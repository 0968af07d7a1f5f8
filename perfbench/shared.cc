// Pieces the three workloads share (workloads.h).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/interner.h"
#include "lexicon/lexicon.h"
#include "net/toss_handler.h"
#include "obs/metrics.h"
#include "ontology/ontology_maker.h"
#include "service/wire.h"
#include "tax/condition_parser.h"
#include "workloads.h"

namespace perfbench {

using namespace toss;

Status CheckWorldConfig(const data::BibConfig& config) {
  if (config.num_people > kNamePoolCap) {
    return Status::InvalidArgument(
        "world config: " + std::to_string(config.num_people) +
        " people exceed the generator's name pool of " +
        std::to_string(kNamePoolCap) +
        " first/last combinations (data::GenerateWorld would never return)");
  }
  return Status::OK();
}

bool NeedsAnotherSetup(const std::vector<double>& setup_s) {
  double total = 0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 2.0 && setup_s.size() < 25);
}

Result<data::BibWorld> GenerateWorld(const data::BibConfig& config,
                                     Tracer* tracer) {
  TOSS_RETURN_NOT_OK(CheckWorldConfig(config));
  SetupSpan span(tracer, "data.generate");
  return data::GenerateWorld(config);
}

Result<ontology::Ontology> CollectionOntology(
    const store::Database& db, const std::string& collection,
    std::vector<std::string> content_tags, Tracer* tracer) {
  SetupSpan span(tracer, "ontology.maker");
  TOSS_ASSIGN_OR_RETURN(const store::Collection* coll,
                        db.GetCollection(collection));
  std::vector<const xml::XmlDocument*> docs;
  for (store::DocId id : coll->AllDocs()) docs.push_back(&coll->document(id));
  ontology::OntologyMakerOptions options;
  options.content_tags = std::move(content_tags);
  return ontology::MakeOntologyForDocuments(
      docs, lexicon::BuiltinBibliographicLexicon(), options);
}

Result<core::Seo> BuildSeo(std::vector<ontology::Ontology> ontologies,
                           const std::string& measure, double epsilon,
                           bool venue_part_of, Tracer* tracer) {
  SetupSpan span(tracer, "ontology.seo_build");
  core::SeoBuilder builder;
  for (ontology::Ontology& onto : ontologies) {
    builder.AddInstanceOntology(std::move(onto));
  }
  if (venue_part_of) {
    builder.AddConstraints(ontology::kPartOf,
                           ontology::Eq("booktitle", 0, "conference", 1));
  }
  TOSS_ASSIGN_OR_RETURN(sim::StringMeasurePtr m, sim::MakeMeasure(measure));
  builder.SetMeasure(std::move(m));
  builder.SetEpsilon(epsilon);
  return builder.Build();
}

Result<Server> StartServer(store::Database* db, const core::Seo* seo,
                           const core::TypeSystem* types, bool writable,
                           Tracer* tracer) {
  SetupSpan span(tracer, "net.server_start");
  Server server;
  const service::ServiceOptions options;  // tossd: max_inflight 4
  if (writable) {
    server.service =
        std::make_unique<service::TossService>(db, seo, types, options);
  } else {
    server.service = std::make_unique<service::TossService>(
        static_cast<const store::Database*>(db), seo, types, options);
  }
  net::Handler handler = net::MakeTossHandler(server.service.get());
  if (tracer->enabled()) handler = TracedHandler(std::move(handler), tracer);
  server.http = std::make_unique<net::HttpServer>(std::move(handler),
                                                  net::ServerOptions{});
  TOSS_RETURN_NOT_OK(server.http->Start());
  return server;
}

std::string RenderTrees(const service::QueryResponse& response) {
  return std::string(TreesSegment(service::wire::ResponseJson(response)));
}

tax::PatternTree Fig15Pattern(const std::string& person_literal,
                              const std::string& venue_literal) {
  tax::PatternTree pt;
  const int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);  // $2 author
  pt.AddChild(root, tax::EdgeKind::kPc);  // $3 booktitle
  auto quote = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  auto cond = tax::ParseCondition(
      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$3.tag = \"booktitle\" & $2.content ~ " +
      quote(person_literal) + " & $3.content isa " + quote(venue_literal));
  pt.SetCondition(std::move(cond).value());
  return pt;
}

std::string SelectText(const std::string& collection,
                       const tax::PatternTree& pattern) {
  std::string text = "SELECT $1 FROM " + collection + " MATCH ";
  for (size_t i = 1; i < pattern.node_count(); ++i) {
    const tax::PatternNode& n = pattern.node(i);
    if (i > 1) text += ", ";
    text += '$';
    text += std::to_string(pattern.node(n.parent).label);
    text += n.edge_from_parent == tax::EdgeKind::kPc ? "/$" : "//$";
    text += std::to_string(n.label);
  }
  return text + " WHERE " + pattern.condition().ToString();
}

// --- Probes and per-layer figures --------------------------------------------

Probe Probe::Take() {
  Probe p;
  p.counters = obs::Metrics().GetSnapshot().counters;
  p.interned = Interner::Global().size();
  p.cpu_ms = ProcessCpuMs();
  return p;
}

uint64_t Probe::Delta(const Probe& before, const std::string& name) const {
  auto get = [&](const std::map<std::string, uint64_t>& m) -> uint64_t {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  return get(counters) - get(before.counters);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"net.round_trip_ms", "ms"},
      {"net.handler_ms", "ms"},
      {"net.edge_overhead_ms", "ms"},
      {"service.wire_decode_ms", "ms"},
      {"service.wire_encode_ms", "ms"},
      {"service.response_bytes", "bytes"},
      {"service.queue_wait_ms", "ms"},
      {"service.prepared_cache_hit_ratio", "ratio"},
      {"core.rewrite_ms", "ms"},
      {"core.store_ms", "ms"},
      {"core.eval_ms", "ms"},
      {"core.expanded_terms", "count"},
      {"core.candidate_docs", "count"},
      {"core.result_trees", "count"},
      {"core.answer_yield", "ratio"},
      {"store.docs_scanned_per_query", "count"},
      {"store.tree_cache_hit_ratio", "ratio"},
      {"store.wal_records_per_fsync", "count"},
      {"store.fsyncs_per_mutation", "count"},
      {"store.write_bytes_per_user_byte", "ratio"},
      {"tax.twig_pairs_scanned", "count"},
      {"tax.twig_pairs_skipped_ratio", "ratio"},
      {"tax.twig_combos_per_pair", "count"},
      {"common.pool_busy_ms_per_query", "ms"},
      {"common.interner_growth", "count"},
      {"process.cpu_ms_per_op", "ms"},
      {"data.generate_ms", "ms"},
      {"data.load_ms", "ms"},
      {"ontology.maker_ms", "ms"},
      {"ontology.seo_build_ms", "ms"},
      {"sim.pairs_filtered_ratio", "ratio"},
      {"loadgen.query_p50_ms", "ms"},
      {"loadgen.query_qps", "1/s"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.handler_coverage", "ratio"},
      {"trace.overhead_p50_ms", "ms"},
      {"ingest.mutation_p50_ms", "ms"},
      {"ingest.mutation_p90_ms", "ms"},
      {"ingest.mutations_per_s", "1/s"},
      {"ingest.checkpoint_s", "s"},
      {"ingest.recovery_s", "s"},
      {"ingest.storage_bytes_per_user_byte", "ratio"},
  };
  return kMetrics;
}

void ReportCounterLayers(const Probe& before, const Probe& after,
                         uint64_t queries, uint64_t ops, Report* report) {
  auto d = [&](const char* name) { return after.Delta(before, name); };
  auto dd = [&](const char* name) { return static_cast<double>(d(name)); };
  report->Set("service.prepared_cache_hit_ratio",
              HitRatio(d("service.prepared_cache.hits"),
                       d("service.prepared_cache.misses")),
              "ratio");
  report->Set("core.expanded_terms",
              PerOp(dd("core.query.expanded_terms"), queries), "count");
  report->Set("core.candidate_docs",
              PerOp(dd("core.query.candidate_docs"), queries), "count");
  report->Set("core.result_trees",
              PerOp(dd("core.query.result_trees"), queries), "count");
  report->Set("core.answer_yield",
              Share(dd("core.query.result_trees"),
                    dd("core.query.candidate_docs")),
              "ratio");
  report->Set("store.docs_scanned_per_query",
              PerOp(dd("store.query.docs_scanned"), queries), "count");
  report->Set("store.tree_cache_hit_ratio",
              HitRatio(d("store.tree_cache.hits"), d("store.tree_cache.misses")),
              "ratio");
  report->Set("store.wal_records_per_fsync",
              PerOp(dd("store.wal.records"), d("store.wal.batches")), "count");
  report->Set("store.fsyncs_per_mutation",
              PerOp(dd("store.wal.fsyncs"), d("store.wal.records")), "count");
  report->Set("tax.twig_pairs_scanned",
              PerOp(dd("core.query.join.twig.pairs_scanned"), queries),
              "count");
  report->Set("tax.twig_pairs_skipped_ratio",
              SkippedRatio(d("core.query.join.twig.pairs_value_skipped"),
                           d("core.query.join.twig.pairs_scanned")),
              "ratio");
  report->Set("tax.twig_combos_per_pair",
              Share(dd("core.query.join.twig.combos_emitted"),
                    dd("core.query.join.twig.pairs_scanned")),
              "count");
  report->Set("common.pool_busy_ms_per_query",
              PerOp(dd("common.worker_pool.busy_ns") / 1e6, queries), "ms");
  report->Set("common.interner_growth",
              static_cast<double>(after.interned - before.interned), "count");
  report->Set("process.cpu_ms_per_op", PerOp(after.cpu_ms - before.cpu_ms, ops),
              "ms");
}

void ReportSetupLayers(const Tracer& tracer, const Probe& before,
                       const Probe& after, Report* report) {
  const std::pair<const char*, const char*> spans[] = {
      {"data.generate", "data.generate_ms"},
      {"data.load", "data.load_ms"},
      {"ontology.maker", "ontology.maker_ms"},
      {"ontology.seo_build", "ontology.seo_build_ms"}};
  for (const auto& [span, metric] : spans) {
    report->Set(metric, Median(tracer.DurationsMs(span)), "ms");
  }
  const double filtered =
      static_cast<double>(after.Delta(before, "sim.pairwise.pairs_filtered"));
  const double computed =
      static_cast<double>(after.Delta(before, "sim.pairwise.pairs_computed"));
  report->Set("sim.pairs_filtered_ratio", Share(filtered, filtered + computed),
              "ratio");
}

bool Profile(uint16_t port, service::TossService* service,
             const std::vector<std::string>& bodies, Tracer* tracer,
             std::vector<ProfileSample>* out) {
  ClientConn conn;
  if (!conn.Connect(port)) return false;
  auto ms = [](int64_t a, int64_t b) { return static_cast<double>(b - a) / 1e6; };
  std::string body;
  for (const std::string& request : bodies) {
    ProfileSample s;
    const uint64_t rid = tracer->NewId();
    const uint64_t sid = tracer->NewId();
    const std::string headers = std::string(kRequestHeader) + ": " +
                                std::to_string(rid) + "\r\n" + kParentHeader +
                                ": " + std::to_string(sid) + "\r\n";
    int status = 0;
    const int64_t t0 = NowNs();
    if (!conn.Post("/v1/query", request, headers, &status, &body) ||
        status != 200) {
      return false;
    }
    const int64_t t1 = NowNs();
    tracer->Record(sid, 0, rid, "client.round_trip", t0, t1);
    s.round_trip_ms = ms(t0, t1);
    s.response_bytes = body.size();

    // The handler's parts, called in-process on the same request.
    const int64_t d0 = NowNs();
    auto parsed = service::wire::ParseRequestText(request);
    const int64_t d1 = NowNs();
    if (!parsed.ok()) return false;
    service::QueryResponse resp = service->Run(*parsed);
    const int64_t r1 = NowNs();
    if (!resp.ok()) return false;
    const std::string encoded = service::wire::ResponseJson(resp);
    const int64_t e1 = NowNs();
    s.decode_ms = ms(d0, d1);
    s.run_ms = ms(d1, r1);
    s.encode_ms = ms(r1, e1);
    s.rewrite_ms = resp.stats.rewrite_ms;
    s.store_ms = resp.stats.store_ms;
    s.eval_ms = resp.stats.eval_ms;
    const uint64_t run_id = tracer->NewId();
    tracer->Record(tracer->NewId(), sid, rid, "service.wire_decode", d0, d1);
    tracer->Record(run_id, sid, rid, "service.run", d1, r1);
    // Phases i-iii from ExecStats, laid end to end from the run's start
    // (the executor reports durations, not timestamps).
    int64_t at = d1;
    for (const auto& [name, phase_ms] :
         {std::pair<const char*, double>{"core.rewrite", s.rewrite_ms},
          {"core.store", s.store_ms},
          {"core.eval", s.eval_ms}}) {
      const int64_t len = static_cast<int64_t>(phase_ms * 1e6);
      tracer->Record(tracer->NewId(), run_id, rid, name, at, at + len);
      at += len;
    }
    tracer->Record(tracer->NewId(), sid, rid, "service.wire_encode", r1, e1);
    s.handler_ms = tracer->DurationMs(rid, "net.handler");
    out->push_back(s);
  }
  return true;
}

void ReportProfileLayers(const std::vector<ProfileSample>& samples,
                         Report* report) {
  auto median = [&](double ProfileSample::*field) {
    std::vector<double> xs;
    for (const ProfileSample& s : samples) xs.push_back(s.*field);
    return Median(xs);
  };
  std::vector<double> edge, bytes;
  for (const ProfileSample& s : samples) {
    edge.push_back(s.round_trip_ms - s.handler_ms);
    bytes.push_back(static_cast<double>(s.response_bytes));
  }
  const double handler = median(&ProfileSample::handler_ms);
  const double decode = median(&ProfileSample::decode_ms);
  const double run = median(&ProfileSample::run_ms);
  const double encode = median(&ProfileSample::encode_ms);
  report->Set("net.round_trip_ms", median(&ProfileSample::round_trip_ms), "ms");
  report->Set("net.handler_ms", handler, "ms");
  report->Set("net.edge_overhead_ms", Median(edge), "ms");
  report->Set("service.wire_decode_ms", decode, "ms");
  report->Set("service.wire_encode_ms", encode, "ms");
  report->Set("service.response_bytes", Median(bytes), "bytes");
  report->Set("core.rewrite_ms", median(&ProfileSample::rewrite_ms), "ms");
  report->Set("core.store_ms", median(&ProfileSample::store_ms), "ms");
  report->Set("core.eval_ms", median(&ProfileSample::eval_ms), "ms");
  report->Set("trace.handler_coverage",
              Share(decode + run + encode, handler), "ratio");
}

void ReportLatency(const std::string& prefix, const LoopResult& loop,
                   const std::vector<int>& kinds,
                   const std::vector<int>& percentiles, Report* report) {
  const auto windows = SplitByTime(loop.AllLatencies(kinds), loop.AllDone(kinds),
                                   loop.seconds, kWindows);
  for (int pct : percentiles) {
    std::vector<double> per_window;
    for (const std::vector<double>& w : windows) {
      if (SupportsPercentile(w.size(), pct)) {
        per_window.push_back(Percentile(w, pct));
      }
    }
    if (per_window.size() < windows.size()) {
      std::fprintf(stderr,
                   "perfbench: %s p%d not reported: a window holds too few "
                   "samples (needs %zu beyond it)\n",
                   prefix.c_str(), pct, kSamplesBeyondTail);
      continue;
    }
    report->Set(prefix + "_p" + std::to_string(pct) + "_ms",
                Median(per_window), "ms");
  }
}

void ReportQueryCpu(const LoopResult& probe, Report* report) {
  std::vector<int> kinds;
  for (size_t k = 0; k < probe.kind_names.size(); ++k) kinds.push_back(int(k));
  std::fprintf(stderr,
               "perfbench: cost probe: %zu requests, median CPU %.3f ms, "
               "median wall %.3f ms\n",
               probe.cpu_ms.size(), Median(probe.cpu_ms),
               Median(probe.AllLatencies(kinds)));
  if (!probe.cpu_ms.empty()) {
    report->Set("query_cpu_ms", Median(probe.cpu_ms), "ms");
  }
}

double WindowedRate(const LoopResult& loop, const std::vector<int>& kinds) {
  const std::vector<double> done = loop.AllDone(kinds);
  const double window_s = loop.seconds / static_cast<double>(kWindows);
  std::vector<double> rates;
  for (const std::vector<double>& w :
       SplitByTime(done, done, loop.seconds, kWindows)) {
    rates.push_back(static_cast<double>(w.size()) / window_s);
  }
  return Median(rates);
}

Result<double> TracingOverheadP50Ms(uint16_t port,
                                   const std::vector<ClientSpec>& clients,
                                   const std::vector<std::string>& kind_names,
                                   double seconds, Tracer* tracer) {
  const double each = std::min(seconds / 4, 4.0);
  std::vector<int> kinds;
  for (size_t k = 0; k < kind_names.size(); ++k) kinds.push_back(int(k));
  double p50[2] = {0, 0};
  for (int traced = 0; traced < 2; ++traced) {
    tracer->set_enabled(traced == 1);
    const LoopResult r =
        RunClosedLoop(port, clients, kind_names, each, tracer);
    if (r.Failed() != 0) {
      tracer->set_enabled(true);
      return Status::Internal("tracing-overhead loop: a request failed");
    }
    p50[traced] = Percentile(r.AllLatencies(kinds), 50);
  }
  tracer->set_enabled(true);
  return p50[1] - p50[0];
}

double QueueWaitMs(const std::string& body) {
  const char* kKey = "\"queue_wait_ms\":";
  const size_t at = body.find(kKey);
  if (at == std::string::npos) return 0;
  return std::strtod(body.c_str() + at + std::strlen(kKey), nullptr);
}

}  // namespace perfbench
