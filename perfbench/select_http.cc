// select_http: read-only POST /v1/query selections over a DBLP corpus that
// fits both caches (README.md "Workloads").

#include <algorithm>
#include <mutex>

#include "common/random.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "service/wire.h"
#include "workloads.h"

namespace perfbench {

using namespace toss;

namespace {

constexpr size_t kPapers = 500;  // 500 documents < 16,384 cached
constexpr size_t kPeople = 300;
constexpr size_t kFig15Queries = 192;   // distinct rewrites < 512 cached
// Open-loop offered rate, fixed so that commits are compared at the same
// load (README.md "Offered rate").
constexpr double kOpenRatePerS = 100;
constexpr size_t kConnections = 4;      // nproc on the reference machine
constexpr size_t kMixLength = 4096;
constexpr size_t kProfileRequests = 200;  // traced run, one idle connection

// Query kinds, in the mix's proportions.
enum Kind { kFig15 = 0, kFig15Text, kBroad, kUnknown };
const std::vector<std::string> kKindNames = {"fig15", "fig15_text", "broad",
                                             "unknown_literal"};
constexpr double kTextShare = 0.15;
constexpr double kBroadShare = 0.02;
constexpr double kUnknownShare = 0.01;  // ~150 fresh literals a 20 s run

struct Fixture {
  data::BibWorld world;
  store::Database db;
  ontology::Ontology onto;
  core::Seo seo;
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  std::vector<data::SelectionQuery> fig15;
  /// Distinct requests by ref: fig15 queries, then the broad ones.
  std::vector<service::QueryRequest> requests;
  std::vector<std::string> json;  ///< structured wire body per ref
  std::vector<std::string> text;  ///< TOSS-QL wire body (fig15 refs only)
  std::vector<std::string> expected;  ///< in-process trees segment per ref
  /// Root ids of the in-process answer per fig15 ref (the served eps=3).
  std::vector<std::set<uint64_t>> root_ids;
  /// (kind, ref) of the mix, drawn once from the seed.
  std::vector<std::pair<Kind, size_t>> mix;
  Server server;  // last: stops before what it serves is destroyed
};

/// A person literal that occurs nowhere in the corpus, unique per `n`.
std::string UnknownLiteral(size_t n) {
  return "Qzxw Vkjq " + std::to_string(n);
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
  }
  TOSS_ASSIGN_OR_RETURN(fx->onto, CollectionOntology(fx->db, "dblp",
                                                     data::DblpContentTags(),
                                                     tracer));
  TOSS_ASSIGN_OR_RETURN(fx->seo, BuildSeo({fx->onto}, "guarded-levenshtein",
                                          3.0, false, tracer));
  TOSS_ASSIGN_OR_RETURN(fx->server, StartServer(&fx->db, &fx->seo, &fx->types,
                                                /*writable=*/false, tracer));
  return fx;
}

/// Once, on the serving set-up: the requests drawn from the seed (the
/// benchmark's inputs, not the service's set-up), then the warm-up, every
/// distinct request in process. Its answers are what every HTTP answer is
/// compared with, byte for byte.
Status WarmUp(Fixture* fx, uint64_t seed) {
  TOSS_ASSIGN_OR_RETURN(
      fx->fig15, data::MakeSelectionWorkload(fx->world, 0, kPapers,
                                             kFig15Queries, seed * 31 + 7));

  for (const data::SelectionQuery& q : fx->fig15) {
    fx->requests.push_back(
        service::QueryRequest::Select("dblp", q.pattern, q.sl));
    fx->text.push_back("{\"text\": " +
                       common::JsonValue::String(SelectText("dblp", q.pattern))
                           .Dump() +
                       "}");
  }
  // Fig. 16(a)'s broad selections: each venue under its category, and
  // each category on its own (half the corpus for "database conference").
  std::set<std::string> categories;
  for (const data::VenueEntity& v : fx->world.venues) {
    fx->requests.push_back(service::QueryRequest::Select(
        "dblp", data::MakeScalabilitySelectionPattern(v.short_name, v.category),
        {1}));
    categories.insert(v.category);
  }
  for (const std::string& c : categories) {
    fx->requests.push_back(service::QueryRequest::Select(
        "dblp", data::MakeScalabilitySelectionPattern(c, c), {1}));
  }
  for (const service::QueryRequest& r : fx->requests) {
    fx->json.push_back(service::wire::RequestJson(r));
  }

  Random rng(seed * 131 + 3);
  const size_t broad = fx->requests.size() - fx->fig15.size();
  for (size_t i = 0; i < kMixLength; ++i) {
    const double u = rng.NextDouble();
    Kind kind = kFig15;
    if (u < kBroadShare) {
      kind = kBroad;
    } else if (u < kBroadShare + kUnknownShare) {
      kind = kUnknown;
    } else if (u < kBroadShare + kUnknownShare + kTextShare) {
      kind = kFig15Text;
    }
    const size_t ref = kind == kBroad
                           ? fx->fig15.size() + rng.Uniform(broad)
                           : rng.Uniform(fx->fig15.size());
    fx->mix.push_back({kind, ref});
  }

  for (const service::QueryRequest& r : fx->requests) {
    service::QueryResponse resp = fx->server.service->Run(r);
    TOSS_RETURN_NOT_OK(resp.status);
    fx->expected.push_back(RenderTrees(resp));
    if (fx->root_ids.size() < fx->fig15.size()) {
      fx->root_ids.push_back(eval::ExtractRootProvenance(resp.trees));
    }
  }
  return Status::OK();
}

/// The mix's `pos`-th operation; `unique` names its literal when it is an
/// unknown-literal query.
Op MakeOp(const Fixture& fx, size_t pos, size_t unique) {
  const auto [kind, ref] = fx.mix[pos % fx.mix.size()];
  Op op;
  op.target = "/v1/query";
  op.kind = kind;
  op.ref = ref;
  switch (kind) {
    case kFig15:
    case kBroad:
      op.body = fx.json[ref];
      break;
    case kFig15Text:
      op.body = fx.text[ref];
      break;
    case kUnknown:
      op.body = service::wire::RequestJson(service::QueryRequest::Select(
          "dblp",
          Fig15Pattern(UnknownLiteral(unique), fx.fig15[ref].venue_literal),
          {1}));
      break;
  }
  return op;
}

/// Fig. 15 answers under TAX, TOSS(eps=2) and the served TOSS(eps=3),
/// against the generator's ground truth: TAX precision is exactly 1, each
/// answer set contains the previous one, and the served answers' mean
/// sqrt(P*R) is the workload's answer quality.
double CheckFig15(const Fixture& fx, Tracer* tracer, Report* report) {
  const auto* db = static_cast<const store::Database*>(&fx.db);
  service::TossService tax(db, nullptr, nullptr);
  auto seo2 = BuildSeo({fx.onto}, "guarded-levenshtein", 2.0, false, tracer);
  if (!seo2.ok()) {
    report->CheckFailed("TOSS(eps=2) SEO: " + seo2.status().ToString());
    return 0;
  }
  service::TossService toss2(db, &*seo2, &fx.types);
  double quality = 0;
  for (size_t i = 0; i < fx.fig15.size(); ++i) {
    const data::SelectionQuery& q = fx.fig15[i];
    service::QueryResponse a = tax.Run(fx.requests[i]);
    service::QueryResponse b = toss2.Run(fx.requests[i]);
    if (!a.ok() || !b.ok()) {
      report->CheckFailed(q.name + ": TAX/TOSS(eps=2) run failed");
      continue;
    }
    const std::set<uint64_t> tax_ids = eval::ExtractRootProvenance(a.trees);
    const std::set<uint64_t> eps2 = eval::ExtractRootProvenance(b.trees);
    const std::set<uint64_t>& eps3 = fx.root_ids[i];
    if (eval::ComputePr(tax_ids, q.correct).precision != 1.0) {
      report->CheckFailed(q.name + ": TAX precision below 1");
    }
    if (!std::includes(eps2.begin(), eps2.end(), tax_ids.begin(),
                       tax_ids.end())) {
      report->CheckFailed(q.name + ": TAX answer not within TOSS(eps=2)");
    }
    if (!std::includes(eps3.begin(), eps3.end(), eps2.begin(), eps2.end())) {
      report->CheckFailed(q.name + ": TOSS(eps=2) answer not within eps=3");
    }
    quality += eval::ComputePr(eps3, q.correct).quality;
  }
  return quality / static_cast<double>(fx.fig15.size());
}

}  // namespace

Status RunSelectHttp(const RunConfig& config, Report* report,
                     Tracer* tracer) {
  // --- Set-up, several times; the last one serves. --------------------------
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
  TOSS_RETURN_NOT_OK(WarmUp(fx.get(), config.seed));
  const uint16_t port = fx->server.http->port();

  // --- Timed phase: open loop for latency, closed loop for throughput. -----
  std::mutex wait_mu;
  std::vector<double> queue_wait_ms;
  auto check = [&](const Op& op, int status, const std::string& body) {
    if (status != 200) return false;
    if (tracer->enabled()) {
      std::lock_guard<std::mutex> lock(wait_mu);
      queue_wait_ms.push_back(QueueWaitMs(body));
    }
    const std::string_view trees = TreesSegment(body);
    return op.kind == kUnknown ? trees == "\"trees\":[]"
                               : trees == fx->expected[op.ref];
  };
  // Open loop, the first half of the run: requests due on one schedule,
  // taken by whichever of the kConnections connections is free
  // (independent users over a pool of connections). Closed loop, the third
  // quarter: the same connections back to back, each walking its own
  // quarter of the mix. Cost probe, the last quarter: the mix one request
  // at a time. Unknown literals are unique per request.
  const double open_s = config.seconds / 2;
  const double closed_s = config.seconds / 4;
  const Probe before = Probe::Take();
  const LoopResult open = RunOpenLoop(
      port, kConnections, OpenLoopSchedule(kOpenRatePerS, open_s),
      [&](size_t i) { return MakeOp(*fx, i, i); }, check, kKindNames, tracer);
  std::vector<ClientSpec> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    clients.push_back(ClientSpec{
        [&, c](size_t seq) {
          return MakeOp(*fx, c * (kMixLength / kConnections) + seq,
                        (c + 1) * 1000000000ull + seq);
        },
        check});
  }
  const LoopResult closed =
      RunClosedLoop(port, clients, kKindNames, closed_s, tracer);
  const LoopResult probe = RunCostProbe(
      port,
      ClientSpec{[&](size_t seq) {
                   return MakeOp(*fx, seq, 7000000000ull + seq);
                 },
                 check},
      kKindNames, config.seconds - open_s - closed_s, tracer);
  const Probe after = Probe::Take();
  // Before the checks, which build a second SEO of their own.
  const double peak_rss_mb = PeakRssMiB();

  for (const LoopResult* loop : {&open, &closed, &probe}) {
    for (size_t k = 0; k < kKindNames.size(); ++k) {
      report->CountOps(kKindNames[k], loop->counts[k]);
    }
  }
  const uint64_t failed = open.Failed() + closed.Failed() + probe.Failed();
  if (failed != 0) {
    report->CheckFailed(std::to_string(failed) +
                        " HTTP answers were not 200 or differed from the "
                        "in-process TossService::Run answer");
  }

  // --- Checks against the generator's ground truth. -------------------------
  const double quality = CheckFig15(*fx, tracer, report);

  const std::vector<int> all = {kFig15, kFig15Text, kBroad, kUnknown};
  report->Set("setup_s", Median(setup_s), "s");
  ReportLatency("loadgen.query", open, all, {50, 90}, report);
  report->Set("loadgen.query_qps", WindowedRate(closed, all), "1/s");
  if (!config.trace) {
    ReportQueryCpu(probe, report);
    report->Set("answer_quality", quality, "score");
    report->Set("peak_rss_mb", peak_rss_mb, "MiB");
    return Status::OK();
  }

  // --- Traced run: per-layer figures. ---------------------------------------
  const uint64_t done =
      open.Completed(all) + closed.Completed(all) + probe.Completed(all);
  ReportCounterLayers(before, after, done, done, report);
  ReportSetupLayers(*tracer, setup_before, setup_after, report);
  report->Set("loadgen.late_p99_ms", Percentile(open.late_ms, 99), "ms");
  double wait_sum = 0;
  for (double w : queue_wait_ms) wait_sum += w;
  report->Set("service.queue_wait_ms", PerOp(wait_sum, queue_wait_ms.size()),
              "ms");

  std::vector<std::string> bodies;
  for (size_t i = 0; i < kProfileRequests; ++i) {
    bodies.push_back(MakeOp(*fx, i, 9000000000ull + i).body);
  }
  std::vector<ProfileSample> samples;
  if (!Profile(port, fx->server.service.get(), bodies, tracer, &samples)) {
    return Status::Internal("select_http: a profiled request failed");
  }
  ReportProfileLayers(samples, report);

  TOSS_ASSIGN_OR_RETURN(
      const double overhead,
      TracingOverheadP50Ms(port, clients, kKindNames, config.seconds, tracer));
  report->Set("trace.overhead_p50_ms", overhead, "ms");
  return Status::OK();
}

}  // namespace perfbench
