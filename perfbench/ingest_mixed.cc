// ingest_mixed: durable POST /v1/mutate traffic beside selective reads over
// a corpus larger than the decoded-tree cache, then a checkpoint, a tail
// left in the write-ahead log, and a reopen (README.md "Workloads").

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <unordered_map>

#include "common/random.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "service/wire.h"
#include "store/env.h"
#include "workloads.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace perfbench {

using namespace toss;
namespace fs = std::filesystem;

namespace {

constexpr size_t kBasePapers = 17000;  // > 16,384 cached decoded trees
constexpr size_t kPoolPapers = 3000;   // inserted / replacing documents
constexpr size_t kPeople = 900;        // under kNamePoolCap
constexpr size_t kReadQueries = 24;
constexpr size_t kQualityQueries = 96;  // checked after the reopen
constexpr size_t kReaders = 2;
constexpr size_t kWriters = 2;
constexpr size_t kTailMutations = 64;
constexpr size_t kSampledSelections = 8;
constexpr size_t kProfileReads = 40;
constexpr double kWriterRatePerS = 4;  // per writer: 8 mutations/s in all
constexpr double kInsertShare = 0.5;
constexpr double kReplaceShare = 0.3;  // the rest removes

enum Kind { kRead = 0, kInsert, kReplace, kRemove };
const std::vector<std::string> kKindNames = {"read", "insert", "replace",
                                             "remove"};

/// A directory under the run's work dir, removed with everything in it
/// when the fixture goes away.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

struct Fixture;

/// One writing client. It owns half of the base keys and every key it
/// inserted, so the two writers never touch the same document and each
/// knows which of its mutations are valid.
struct Writer {
  int id = 0;
  Random rng{1};
  std::vector<std::string> live;
  std::unordered_map<std::string, size_t> slot;  ///< key -> index in live
  size_t inserted = 0;
  uint64_t user_bytes = 0;  ///< XML bytes of acknowledged mutations

  // The request in flight.
  Kind kind = kInsert;
  std::string key;
  const std::string* xml = nullptr;

  void AddLive(const std::string& k) {
    slot[k] = live.size();
    live.push_back(k);
  }
  void DropLive(const std::string& k) {
    const size_t at = slot[k];
    slot[live.back()] = at;
    std::swap(live[at], live.back());
    live.pop_back();
    slot.erase(k);
  }

  Op Next(const std::vector<std::string>& pool);
  /// Applies the acknowledged in-flight mutation to the model.
  void Ack(std::map<std::string, std::string>* model, std::mutex* mu);
};

struct Fixture {
  ScratchDir dir;  // first: removed after the database closes
  data::BibWorld world;
  std::vector<std::string> pool;  ///< canonical XML of the pool papers
  /// The benchmark's own model: key -> canonical XML of every document the
  /// database acknowledged. Writers update it under model_mu.
  std::map<std::string, std::string> model;
  std::mutex model_mu;
  std::vector<Writer> writers;
  std::unique_ptr<store::Database> db;
  core::Seo seo;
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  std::vector<data::SelectionQuery> reads;
  std::vector<service::QueryRequest> read_requests;
  std::vector<std::string> read_json;
  Server server;  // last: stops before what it serves is destroyed
};

Op Writer::Next(const std::vector<std::string>& pool) {
  const double u = rng.NextDouble();
  Op op;
  op.target = "/v1/mutate";
  service::QueryRequest request;
  if (live.empty() || u < kInsertShare) {
    kind = kInsert;
    key = "w" + std::to_string(id) + "-" + std::to_string(inserted++);
    xml = &pool[rng.Uniform(pool.size())];
    request = service::QueryRequest::Insert("dblp", key, *xml);
  } else if (u < kInsertShare + kReplaceShare) {
    kind = kReplace;
    key = live[rng.Uniform(live.size())];
    xml = &pool[rng.Uniform(pool.size())];
    request = service::QueryRequest::Replace("dblp", key, *xml);
  } else {
    kind = kRemove;
    key = live[rng.Uniform(live.size())];
    xml = nullptr;
    request = service::QueryRequest::Remove("dblp", key);
  }
  op.kind = kind;
  op.body = service::wire::RequestJson(request);
  return op;
}

void Writer::Ack(std::map<std::string, std::string>* model, std::mutex* mu) {
  std::lock_guard<std::mutex> lock(*mu);
  if (kind == kRemove) {
    model->erase(key);
    DropLive(key);
    return;
  }
  (*model)[key] = *xml;
  user_bytes += xml->size();
  if (kind == kInsert) AddLive(key);
}

Result<std::unique_ptr<Fixture>> Build(const RunConfig& config, int setup,
                                       Tracer* tracer) {
  auto fx = std::make_unique<Fixture>();
  fx->dir.path = config.work_dir + "/ingest-" + std::to_string(::getpid()) +
                 "-" + std::to_string(setup);
  std::error_code ec;
  fs::remove_all(fx->dir.path, ec);
  fs::create_directories(fx->dir.path, ec);
  if (ec) return Status::IOError("cannot create " + fx->dir.path);

  data::BibConfig cfg;
  cfg.seed = config.seed;
  cfg.num_papers = kBasePapers + kPoolPapers;
  cfg.num_people = kPeople;
  TOSS_ASSIGN_OR_RETURN(fx->world, GenerateWorld(cfg, tracer));
  {
    SetupSpan span(tracer, "store.open_durable");
    TOSS_ASSIGN_OR_RETURN(
        store::Database db,
        store::Database::OpenDurable(fx->dir.path, store::Env::Default()));
    fx->db = std::make_unique<store::Database>(std::move(db));
  }
  {
    // The base corpus goes straight into the durable database's memory;
    // the timed checkpoint after the mixed phase makes it durable.
    SetupSpan span(tracer, "data.load");
    std::vector<data::NamedDoc> docs =
        data::EmitDblp(fx->world, 0, kBasePapers, cfg);
    fx->writers.resize(kWriters);
    for (size_t w = 0; w < kWriters; ++w) {
      fx->writers[w].id = static_cast<int>(w);
      fx->writers[w].rng = Random(config.seed * 977 + w);
    }
    for (size_t i = 0; i < docs.size(); ++i) {
      fx->model[docs[i].first] = xml::Write(docs[i].second);
      fx->writers[i % kWriters].AddLive(docs[i].first);
    }
    TOSS_RETURN_NOT_OK(
        data::LoadIntoCollection(fx->db.get(), "dblp", std::move(docs)));
    for (auto& [key, doc] :
         data::EmitDblp(fx->world, kBasePapers, kPoolPapers, cfg)) {
      fx->pool.push_back(xml::Write(doc));
    }
  }
  std::vector<ontology::Ontology> ontologies;
  TOSS_ASSIGN_OR_RETURN(ontologies.emplace_back(),
                        CollectionOntology(*fx->db, "dblp",
                                           data::DblpContentTags(), tracer));
  TOSS_ASSIGN_OR_RETURN(fx->seo, BuildSeo(std::move(ontologies),
                                          "guarded-levenshtein", 3.0, false,
                                          tracer));
  TOSS_ASSIGN_OR_RETURN(fx->server,
                        StartServer(fx->db.get(), &fx->seo, &fx->types,
                                    /*writable=*/true, tracer));
  return fx;
}

/// Once, on the serving set-up: the reads drawn from the seed (the
/// benchmark's inputs, not the service's set-up), then the warm-up, every
/// distinct read in process.
Status WarmUp(Fixture* fx, uint64_t seed) {
  TOSS_ASSIGN_OR_RETURN(
      fx->reads, data::MakeSelectionWorkload(fx->world, 0, kBasePapers,
                                             kReadQueries, seed * 31 + 11));
  for (const data::SelectionQuery& q : fx->reads) {
    fx->read_requests.push_back(
        service::QueryRequest::Select("dblp", q.pattern, q.sl));
    fx->read_json.push_back(
        service::wire::RequestJson(fx->read_requests.back()));
  }
  for (const service::QueryRequest& r : fx->read_requests) {
    TOSS_RETURN_NOT_OK(fx->server.service->Run(r).status);
  }
  return Status::OK();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// The trees of `response`, sorted: two databases holding the same
/// documents may order their answers differently.
std::vector<std::string> SortedTrees(const service::QueryResponse& response) {
  std::vector<std::string> out;
  auto doc = common::JsonValue::Parse(service::wire::ResponseJson(response));
  if (doc.ok() && doc->Get("trees") != nullptr) {
    for (const common::JsonValue& t : doc->Get("trees")->array()) {
      out.push_back(t.AsString());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Checks the reopened database against the model and returns the answer
/// quality of Fig. 15 queries over it.
double CheckReopened(const Fixture& fx, uint64_t seed,
                     const store::Database& reopened, Report* report) {
  // 1. Keys and canonical documents equal the model.
  auto coll = reopened.GetCollection("dblp");
  if (!coll.ok()) {
    report->CheckFailed("reopen: no dblp collection");
    return 0;
  }
  size_t mismatched = 0;
  const std::vector<store::DocId> ids = (*coll)->AllDocs();
  for (store::DocId id : ids) {
    auto it = fx.model.find((*coll)->key(id));
    if (it == fx.model.end() ||
        it->second != xml::Write((*coll)->document(id))) {
      ++mismatched;
    }
  }
  if (mismatched != 0 || ids.size() != fx.model.size()) {
    report->CheckFailed("reopen: " + std::to_string(ids.size()) +
                        " documents, " + std::to_string(mismatched) +
                        " differ from the model of " +
                        std::to_string(fx.model.size()));
  }

  // 2. Sampled selections equal those over a fresh in-memory database
  // bulk-loaded from the model.
  store::Database fresh;
  std::vector<data::NamedDoc> docs;
  for (const auto& [key, text] : fx.model) {
    auto doc = xml::Parse(text);
    if (!doc.ok()) {
      report->CheckFailed("model document " + key + " does not parse");
      return 0;
    }
    docs.emplace_back(key, std::move(doc).value());
  }
  if (!data::LoadIntoCollection(&fresh, "dblp", std::move(docs)).ok()) {
    report->CheckFailed("cannot bulk-load the model");
    return 0;
  }
  service::TossService over_reopened(&reopened, &fx.seo, &fx.types);
  service::TossService over_fresh(static_cast<const store::Database*>(&fresh),
                                  &fx.seo, &fx.types);
  for (size_t i = 0; i < kSampledSelections; ++i) {
    service::QueryResponse a = over_reopened.Run(fx.read_requests[i]);
    service::QueryResponse b = over_fresh.Run(fx.read_requests[i]);
    if (!a.ok() || !b.ok() || SortedTrees(a) != SortedTrees(b)) {
      report->CheckFailed(fx.reads[i].name +
                          ": reopened answer differs from the model's");
    }
  }

  // 3. Answer quality against ground truth taken from the model: the
  // papers it holds by the query's person at the query's venue.
  std::set<uint64_t> present;
  for (const auto& [key, text] : fx.model) {
    const size_t at = text.find("gtid=\"");
    if (at != std::string::npos) {
      present.insert(std::strtoull(text.c_str() + at + 6, nullptr, 10));
    }
  }
  auto queries = data::MakeSelectionWorkload(fx.world, 0, kBasePapers,
                                             kQualityQueries, seed * 31 + 13);
  if (!queries.ok()) {
    report->CheckFailed("quality queries: " + queries.status().ToString());
    return 0;
  }
  double quality = 0;
  for (const data::SelectionQuery& q : *queries) {
    std::set<uint64_t> truth;
    // Over world.papers, not PaperById: that lookup scans every paper.
    for (const data::PaperEntity& p : fx.world.papers) {
      if (present.count(p.id) == 0) continue;
      const data::VenueEntity& v = fx.world.VenueById(p.venue);
      if (std::find(p.authors.begin(), p.authors.end(), q.person) !=
              p.authors.end() &&
          (q.category_query ? v.category : v.short_name) == q.venue_literal) {
        truth.insert(p.id);
      }
    }
    service::QueryResponse r = over_reopened.Run(
        service::QueryRequest::Select("dblp", q.pattern, q.sl));
    if (!r.ok()) {
      report->CheckFailed(q.name + ": read over the reopened database failed");
      continue;
    }
    quality +=
        eval::ComputePr(eval::ExtractRootProvenance(r.trees), truth).quality;
  }
  return quality / static_cast<double>(queries->size());
}

}  // namespace

Status RunIngestMixed(const RunConfig& config, Report* report,
                      Tracer* tracer) {
  std::unique_ptr<Fixture> fx;
  std::vector<double> setup_s;
  const Probe setup_before = Probe::Take();
  for (int i = 0; NeedsAnotherSetup(setup_s); ++i) {
    fx.reset();
    // CPU time, not wall time: what other tenants of the machine take
    // from it would otherwise count (README.md "Set-up").
    const double cpu0 = ProcessCpuMs();
    TOSS_ASSIGN_OR_RETURN(fx, Build(config, i, tracer));
    setup_s.push_back((ProcessCpuMs() - cpu0) / 1e3);
  }
  const Probe setup_after = Probe::Take();
  TOSS_RETURN_NOT_OK(WarmUp(fx.get(), config.seed));
  const uint16_t port = fx->server.http->port();

  // --- Timed phase: 2 readers beside 2 writers. ------------------------------
  std::mutex wait_mu;
  std::vector<double> queue_wait_ms;
  auto read_check = [&](const Op&, int status, const std::string& body) {
    if (status == 200 && tracer->enabled()) {
      std::lock_guard<std::mutex> lock(wait_mu);
      queue_wait_ms.push_back(QueueWaitMs(body));
    }
    return status == 200;
  };
  std::vector<ClientSpec> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.push_back(ClientSpec{
        [&, r](size_t seq) {
          Op op;
          op.target = "/v1/query";
          op.kind = kRead;
          op.body = fx->read_json[(r * kReadQueries / kReaders + seq) %
                                  kReadQueries];
          return op;
        },
        read_check});
  }
  std::vector<ClientSpec> clients = readers;
  for (size_t w = 0; w < kWriters; ++w) {
    Writer* writer = &fx->writers[w];
    clients.push_back(ClientSpec{
        [&, writer](size_t) { return writer->Next(fx->pool); },
        [&, writer](const Op&, int status, const std::string&) {
          if (status != 200) return false;
          writer->Ack(&fx->model, &fx->model_mu);
          return true;
        },
        kWriterRatePerS});
  }
  // Readers beside writers, the first three quarters of the run; then the
  // cost probe, the last quarter: the reads one at a time, with the
  // writers stopped, over the database they churned.
  const double loop_s = config.seconds * 3 / 4;
  const Probe before = Probe::Take();
  const LoopResult loop =
      RunClosedLoop(port, clients, kKindNames, loop_s, tracer);
  const LoopResult probe = RunCostProbe(port, readers[0], kKindNames,
                                        config.seconds - loop_s, tracer);
  const Probe after = Probe::Take();
  for (const LoopResult* l : {&loop, &probe}) {
    for (size_t k = 0; k < kKindNames.size(); ++k) {
      report->CountOps(kKindNames[k], l->counts[k]);
    }
  }
  if (loop.Failed() + probe.Failed() != 0) {
    report->CheckFailed(std::to_string(loop.Failed() + probe.Failed()) +
                        " reads or mutations were not acknowledged");
  }
  uint64_t user_bytes = 0;
  for (const Writer& w : fx->writers) user_bytes += w.user_bytes;

  // Traced run: profile reads and measure the tracer while the server
  // still holds the mixed phase's state.
  std::vector<ProfileSample> samples;
  double overhead = 0;
  if (config.trace) {
    std::vector<std::string> bodies;
    for (size_t i = 0; i < kProfileReads; ++i) {
      bodies.push_back(fx->read_json[i % kReadQueries]);
    }
    if (!Profile(port, fx->server.service.get(), bodies, tracer, &samples)) {
      return Status::Internal("ingest_mixed: a profiled read failed");
    }
    TOSS_ASSIGN_OR_RETURN(overhead,
                          TracingOverheadP50Ms(port, readers, kKindNames,
                                               config.seconds, tracer));
  }

  // --- Checkpoint, a tail left in the log, reopen. ---------------------------
  const int64_t c0 = NowNs();
  TOSS_RETURN_NOT_OK(fx->db->Checkpoint());
  const double checkpoint_s = static_cast<double>(NowNs() - c0) / 1e9;
  const Probe after_checkpoint = Probe::Take();
  uint64_t live_bytes = 0;
  for (const auto& [key, text] : fx->model) live_bytes += text.size();
  const double storage_ratio =
      Share(static_cast<double>(DirBytes(fx->dir.path)),
            static_cast<double>(live_bytes));

  OpCount tail;
  {
    ClientConn conn;
    if (!conn.Connect(port)) return Status::IOError("tail: cannot connect");
    std::string body;
    for (size_t i = 0; i < kTailMutations; ++i) {
      Writer& writer = fx->writers[i % kWriters];
      const Op op = writer.Next(fx->pool);
      int status = 0;
      ++tail.attempted;
      if (conn.Post(op.target, op.body, "", &status, &body) &&
          status == 200) {
        writer.Ack(&fx->model, &fx->model_mu);
      } else {
        ++tail.failed;
      }
    }
  }
  report->CountOps("tail_mutation", tail);
  if (tail.failed != 0) report->CheckFailed("tail mutations failed");

  fx->server.http.reset();
  fx->server.service.reset();
  fx->db.reset();
  const int64_t r0 = NowNs();
  auto reopened =
      store::Database::OpenDurable(fx->dir.path, store::Env::Default());
  const double recovery_s = static_cast<double>(NowNs() - r0) / 1e9;
  TOSS_RETURN_NOT_OK(reopened.status());
  // Recovery counts; the checks' own in-memory copy of the model does not.
  const double peak_rss_mb = PeakRssMiB();
  const double quality = CheckReopened(*fx, config.seed, *reopened, report);

  const std::vector<int> mutations = {kInsert, kReplace, kRemove};
  report->Set("setup_s", Median(setup_s), "s");
  ReportLatency("loadgen.query", loop, {kRead}, {50, 90}, report);
  report->Set("loadgen.query_qps", WindowedRate(loop, {kRead}), "1/s");
  if (!config.trace) {
    ReportQueryCpu(probe, report);
    report->Set("answer_quality", quality, "score");
    report->Set("peak_rss_mb", peak_rss_mb, "MiB");
    return Status::OK();
  }

  const uint64_t reads = loop.Completed({kRead}) + probe.Completed({kRead});
  ReportCounterLayers(before, after, reads, reads + loop.Completed(mutations),
                      report);
  ReportSetupLayers(*tracer, setup_before, setup_after, report);
  ReportProfileLayers(samples, report);
  double wait_sum = 0;
  for (double w : queue_wait_ms) wait_sum += w;
  report->Set("service.queue_wait_ms", PerOp(wait_sum, queue_wait_ms.size()),
              "ms");
  report->Set("trace.overhead_p50_ms", overhead, "ms");
  const std::vector<double> mutation_ms = loop.AllLatencies(mutations);
  report->Set("ingest.mutation_p50_ms", Percentile(mutation_ms, 50), "ms");
  // The writers are paced for three quarters of the run, so a 20 s run
  // holds 120 mutations: enough for p90 (12 beyond it), not for p99.
  if (SupportsPercentile(mutation_ms.size(), 90)) {
    report->Set("ingest.mutation_p90_ms", Percentile(mutation_ms, 90), "ms");
  }
  report->Set("ingest.mutations_per_s",
              static_cast<double>(loop.Completed(mutations)) / loop.seconds,
              "1/s");
  report->Set("ingest.checkpoint_s", checkpoint_s, "s");
  report->Set("ingest.recovery_s", recovery_s, "s");
  report->Set("ingest.storage_bytes_per_user_byte", storage_ratio, "ratio");
  report->Set("store.write_bytes_per_user_byte",
              Share(static_cast<double>(after_checkpoint.Delta(
                        before, "store.env.bytes_written")),
                    static_cast<double>(user_bytes)),
              "ratio");
  return Status::OK();
}

}  // namespace perfbench
