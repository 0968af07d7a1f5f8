// join: the Fig. 16(b) TOSS title-similarity join dblp x sigmod over
// POST /v1/query, on one connection with intra-query fan-out (README.md
// "Workloads").

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/query_language.h"
#include "data/workload.h"
#include "service/wire.h"
#include "workloads.h"

namespace perfbench {

using namespace toss;

namespace {

constexpr size_t kPapers = 200;  // 200 dblp + ~30 sigmod documents
constexpr size_t kPeople = 120;
constexpr size_t kProfileJoins = 40;
const std::vector<std::string> kKindNames = {"join", "join_text"};

struct Fixture {
  data::BibWorld world;
  store::Database db;
  core::Seo seo;
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  tax::PatternTree pattern = data::MakeTitleJoinPattern();
  std::vector<int> sl = {2, 4};
  std::string text;               ///< the join as TOSS-QL
  std::vector<std::string> json;  ///< [0] structured, [1] TOSS-QL body
  std::vector<std::string> expected;
  /// (inproceedings, article) ids of each tree of the in-process answer.
  std::set<std::pair<uint64_t, uint64_t>> toss_pairs;
  Server server;  // last: stops before what it serves is destroyed
};

/// The (inproceedings, article) provenance pair of each joined tree.
std::set<std::pair<uint64_t, uint64_t>> JoinPairs(
    const tax::TreeCollection& trees) {
  std::set<std::pair<uint64_t, uint64_t>> out;
  for (const tax::DataTree& tree : trees) {
    uint64_t left = 0, right = 0;
    for (tax::NodeId v = 0; v < tree.size(); ++v) {
      const tax::DataNode& n = tree.node(v);
      if (left == 0 && n.tag == "inproceedings") left = n.provenance;
      if (right == 0 && n.tag == "article") right = n.provenance;
    }
    out.insert({left, right});
  }
  return out;
}

size_t Parallelism() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

Result<std::unique_ptr<Fixture>> Build(uint64_t seed, Tracer* tracer) {
  auto fx = std::make_unique<Fixture>();
  data::BibConfig cfg;
  cfg.seed = seed;
  cfg.num_papers = kPapers;
  cfg.num_people = kPeople;
  TOSS_ASSIGN_OR_RETURN(fx->world, GenerateWorld(cfg, tracer));
  {
    SetupSpan span(tracer, "data.load");
    TOSS_RETURN_NOT_OK(data::LoadIntoCollection(
        &fx->db, "dblp", data::EmitDblp(fx->world, 0, kPapers, cfg)));
    TOSS_RETURN_NOT_OK(data::LoadIntoCollection(
        &fx->db, "sigmod", data::EmitSigmod(fx->world, 0, kPapers, cfg)));
  }
  std::vector<ontology::Ontology> ontologies;
  TOSS_ASSIGN_OR_RETURN(ontologies.emplace_back(),
                        CollectionOntology(fx->db, "dblp",
                                           data::DblpContentTags(), tracer));
  TOSS_ASSIGN_OR_RETURN(ontologies.emplace_back(),
                        CollectionOntology(fx->db, "sigmod",
                                           data::SigmodContentTags(), tracer));
  TOSS_ASSIGN_OR_RETURN(fx->seo, BuildSeo(std::move(ontologies), "levenshtein",
                                          2.0, /*venue_part_of=*/true, tracer));

  service::QueryRequest request =
      service::QueryRequest::Join("dblp", "sigmod", fx->pattern, fx->sl);
  request.parallelism = Parallelism();
  fx->text =
      "JOIN dblp, sigmod MATCH $1/$2, $2/$3, $1//$4, $4/$5 WHERE " +
      fx->pattern.condition().ToString() + " SELECT $2, $4";
  fx->json.push_back(service::wire::RequestJson(request));
  fx->json.push_back(
      "{\"text\": " + common::JsonValue::String(fx->text).Dump() +
      ", \"options\": {\"parallelism\": " + std::to_string(Parallelism()) +
      "}}");

  TOSS_ASSIGN_OR_RETURN(fx->server, StartServer(&fx->db, &fx->seo, &fx->types,
                                                /*writable=*/false, tracer));
  return fx;
}

/// Warm-up, once, on the serving set-up: each distinct request in process,
/// through the same decode path the server uses.
Status WarmUp(Fixture* fx) {
  for (const std::string& body : fx->json) {
    TOSS_ASSIGN_OR_RETURN(service::QueryRequest r,
                          service::wire::ParseRequestText(body));
    service::QueryResponse resp = fx->server.service->Run(r);
    TOSS_RETURN_NOT_OK(resp.status);
    fx->expected.push_back(RenderTrees(resp));
    if (fx->expected.size() == 1) fx->toss_pairs = JoinPairs(resp.trees);
  }
  return Status::OK();
}

Op MakeOp(const Fixture& fx, size_t seq) {
  Op op;
  op.target = "/v1/query";
  op.kind = static_cast<int>(seq % 2);
  op.ref = seq % 2;
  op.body = fx.json[op.ref];
  return op;
}

/// TAX pairs within TOSS pairs; the pairwise engine byte-identical to the
/// twig engine on each distinct request; and the answer quality of the
/// TOSS pairs against the generator's truth (paper i in dblp is article i
/// in sigmod).
double CheckJoin(const Fixture& fx, Report* report) {
  const auto* db = static_cast<const store::Database*>(&fx.db);
  const auto& toss_pairs = fx.toss_pairs;
  if (fx.expected[1] != fx.expected[0]) {
    report->CheckFailed("join: TOSS-QL answer differs from the structured one");
  }

  service::TossService tax(db, nullptr, nullptr);
  service::QueryResponse tax_resp = tax.Run(
      service::QueryRequest::Join("dblp", "sigmod", fx.pattern, fx.sl));
  if (!tax_resp.ok()) {
    report->CheckFailed("join: TAX run failed: " + tax_resp.status.ToString());
  } else {
    const auto tax_pairs = JoinPairs(tax_resp.trees);
    if (!std::includes(toss_pairs.begin(), toss_pairs.end(),
                       tax_pairs.begin(), tax_pairs.end())) {
      report->CheckFailed("join: TAX pairs not within TOSS pairs");
    }
  }

  core::QueryExecutor executor(db, &fx.seo, &fx.types);
  core::QueryOptions pairwise;
  pairwise.use_twig_join = false;
  auto parsed = core::ParseQuery(fx.text);
  if (!parsed.ok()) {
    report->CheckFailed("join: TOSS-QL does not parse");
  } else {
    const std::pair<const tax::PatternTree*, const std::vector<int>*>
        requests[] = {{&fx.pattern, &fx.sl}, {&parsed->pattern, &parsed->sl}};
    for (size_t ref = 0; ref < 2; ++ref) {
      auto trees = executor.Join("dblp", "sigmod", *requests[ref].first,
                                 *requests[ref].second, pairwise);
      service::QueryResponse resp;
      if (trees.ok()) resp.trees = std::move(trees).value();
      if (!trees.ok() || RenderTrees(resp) != fx.expected[ref]) {
        report->CheckFailed("join: pairwise engine differs from the twig "
                            "engine on request " + std::to_string(ref));
      }
    }
  }

  size_t hits = 0;
  for (const auto& [left, right] : toss_pairs) {
    if (left != 0 && left == right) ++hits;
  }
  const double precision = PerOp(static_cast<double>(hits), toss_pairs.size());
  const double recall = PerOp(static_cast<double>(hits), kPapers);
  return std::sqrt(precision * recall);
}

}  // namespace

Status RunJoin(const RunConfig& config, Report* report, Tracer* tracer) {
  std::unique_ptr<Fixture> fx;
  std::vector<double> setup_s;
  const Probe setup_before = Probe::Take();
  for (int i = 0; NeedsAnotherSetup(setup_s); ++i) {
    fx.reset();
    // CPU time, not wall time: what other tenants of the machine take
    // from it would otherwise count (README.md "Set-up").
    const double cpu0 = ProcessCpuMs();
    TOSS_ASSIGN_OR_RETURN(fx, Build(config.seed, tracer));
    setup_s.push_back((ProcessCpuMs() - cpu0) / 1e3);
  }
  const Probe setup_after = Probe::Take();
  TOSS_RETURN_NOT_OK(WarmUp(fx.get()));
  const uint16_t port = fx->server.http->port();

  // Closed loop, the first three quarters of the run; cost probe, the last
  // quarter. Both send one join at a time, so every request of the probe
  // has the process to itself.
  std::vector<ClientSpec> clients = {ClientSpec{
      [&](size_t seq) { return MakeOp(*fx, seq); },
      [&](const Op& op, int status, const std::string& body) {
        return status == 200 && TreesSegment(body) == fx->expected[op.ref];
      }}};
  const double loop_s = config.seconds * 3 / 4;
  const Probe before = Probe::Take();
  const LoopResult loop =
      RunClosedLoop(port, clients, kKindNames, loop_s, tracer);
  const LoopResult probe = RunCostProbe(port, clients[0], kKindNames,
                                        config.seconds - loop_s, tracer);
  const Probe after = Probe::Take();
  const double peak_rss_mb = PeakRssMiB();  // before the checks
  for (const LoopResult* l : {&loop, &probe}) {
    for (size_t k = 0; k < kKindNames.size(); ++k) {
      report->CountOps(kKindNames[k], l->counts[k]);
    }
  }
  if (loop.Failed() + probe.Failed() != 0) {
    report->CheckFailed(std::to_string(loop.Failed() + probe.Failed()) +
                        " join answers were not 200 or differed from the "
                        "in-process TossService::Run answer");
  }
  const double quality = CheckJoin(*fx, report);

  const std::vector<int> all = {0, 1};
  report->Set("setup_s", Median(setup_s), "s");
  ReportLatency("loadgen.query", loop, all, {50, 90}, report);
  report->Set("loadgen.query_qps", WindowedRate(loop, all), "1/s");
  if (!config.trace) {
    ReportQueryCpu(probe, report);
    report->Set("answer_quality", quality, "score");
    report->Set("peak_rss_mb", peak_rss_mb, "MiB");
    return Status::OK();
  }

  const uint64_t done = loop.Completed(all) + probe.Completed(all);
  ReportCounterLayers(before, after, done, done, report);
  ReportSetupLayers(*tracer, setup_before, setup_after, report);
  std::vector<std::string> bodies;
  for (size_t i = 0; i < kProfileJoins; ++i) bodies.push_back(fx->json[i % 2]);
  std::vector<ProfileSample> samples;
  if (!Profile(port, fx->server.service.get(), bodies, tracer, &samples)) {
    return Status::Internal("join: a profiled request failed");
  }
  ReportProfileLayers(samples, report);
  TOSS_ASSIGN_OR_RETURN(
      const double overhead,
      TracingOverheadP50Ms(port, clients, kKindNames, config.seconds, tracer));
  report->Set("trace.overhead_p50_ms", overhead, "ms");
  return Status::OK();
}

}  // namespace perfbench
