// The three workloads and what they share: the world generator's guard
// rail, the served stack (TossService behind net::HttpServer, configured
// as tossd configures it), wire rendering of in-process answers, and the
// probes that turn counter deltas and spans into per-layer figures.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "harness.h"
#include "net/http_server.h"
#include "service/toss_service.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir;  ///< scratch space inside the checkout
};

/// Each returns a non-OK status only when the run could not be set up or
/// driven at all (no result is printed then); output checks that fail go
/// to the report instead.
toss::Status RunSelectHttp(const RunConfig& config, Report* report,
                           Tracer* tracer);
toss::Status RunJoin(const RunConfig& config, Report* report, Tracer* tracer);
toss::Status RunIngestMixed(const RunConfig& config, Report* report,
                            Tracer* tracer);

// --- Shared pieces -------------------------------------------------------------

/// A run sets up at least 3 times and until 2 s of set-up CPU time have
/// accumulated (at most 25 times); setup_s is the median, and the last
/// set-up serves the timed phase.
bool NeedsAnotherSetup(const std::vector<double>& setup_s);

/// Distinct first x last names in src/data/bib_generator.cc. Beyond this
/// many people data::GenerateWorld keeps drawing fresh names forever, so a
/// larger author pool is refused up front.
inline constexpr size_t kNamePoolCap = 35 * 28;

/// InvalidArgument when `config`'s author pool exceeds kNamePoolCap.
toss::Status CheckWorldConfig(const toss::data::BibConfig& config);

/// GenerateWorld behind CheckWorldConfig, traced as "data.generate".
toss::Result<toss::data::BibWorld> GenerateWorld(
    const toss::data::BibConfig& config, Tracer* tracer);

/// The instance ontology of one loaded collection ("ontology.maker").
toss::Result<toss::ontology::Ontology> CollectionOntology(
    const toss::store::Database& db, const std::string& collection,
    std::vector<std::string> content_tags, Tracer* tracer);

/// An SEO over `ontologies` ("ontology.seo_build"); `venue_part_of` adds
/// Fig. 16(b)'s interoperation constraint booktitle = conference.
toss::Result<toss::core::Seo> BuildSeo(
    std::vector<toss::ontology::Ontology> ontologies,
    const std::string& measure, double epsilon, bool venue_part_of,
    Tracer* tracer);

/// The served stack: the service as tossd builds it (default
/// ServiceOptions: max_inflight 4) and an HttpServer with 4 workers.
struct Server {
  std::unique_ptr<toss::service::TossService> service;
  std::unique_ptr<toss::net::HttpServer> http;
};

/// Starts `service` behind HTTP ("net.server_start"). Read-only services
/// take the const Database constructor; `writable` serves mutations too.
toss::Result<Server> StartServer(toss::store::Database* db,
                                 const toss::core::Seo* seo,
                                 const toss::core::TypeSystem* types,
                                 bool writable, Tracer* tracer);

/// The `"trees":[...]` bytes the wire protocol renders for `response`.
std::string RenderTrees(const toss::service::QueryResponse& response);

/// The paper's Fig. 15 selection: inproceedings with an author `~ person`
/// and a booktitle `isa venue` (1 isa + 1 ~ + 3 tag conditions).
toss::tax::PatternTree Fig15Pattern(const std::string& person_literal,
                                    const std::string& venue_literal);

/// A selection of `$1` as a TOSS-QL statement.
std::string SelectText(const std::string& collection,
                       const toss::tax::PatternTree& pattern);

/// Counters, interned terms and CPU time, taken before and after a timed
/// phase.
struct Probe {
  std::map<std::string, uint64_t> counters;
  size_t interned = 0;
  double cpu_ms = 0;
  static Probe Take();
  /// This probe's counter `name` minus `before`'s (absent counters read 0).
  uint64_t Delta(const Probe& before, const std::string& name) const;
};

/// Per-layer figures every traced run reports; a layer a workload does not
/// reach reads 0. `queries` and `ops` are the timed phase's completed
/// query requests and operations.
void ReportCounterLayers(const Probe& before, const Probe& after,
                         uint64_t queries, uint64_t ops, Report* report);

/// Set-up spans ("data.generate", ...) as medians over the set-ups run,
/// plus sim.pairs_filtered_ratio from the set-up counters.
void ReportSetupLayers(const Tracer& tracer, const Probe& before,
                       const Probe& after, Report* report);

/// Every per-layer name, so a traced run can zero-fill what it did not
/// measure.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// One request profiled on a single idle connection: the HTTP round trip
/// with its server-side handler span, then the handler's parts called
/// in-process on the same body -- wire decode, TossService::Run (with its
/// phases i-iii), wire encode.
struct ProfileSample {
  double round_trip_ms = 0;
  double handler_ms = 0;
  double decode_ms = 0;
  double run_ms = 0;
  double encode_ms = 0;
  double rewrite_ms = 0;
  double store_ms = 0;
  double eval_ms = 0;
  size_t response_bytes = 0;
};

/// Profiles `bodies` (query requests) in order; false on a failed request.
bool Profile(uint16_t port, toss::service::TossService* service,
             const std::vector<std::string>& bodies, Tracer* tracer,
             std::vector<ProfileSample>* out);

/// net.*, service.wire_*, core.*_ms and trace.handler_coverage from a
/// profile.
void ReportProfileLayers(const std::vector<ProfileSample>& samples,
                         Report* report);

/// Wall-clock figures of the load loops are taken in this many equal
/// windows of the loop and reported as the median over the windows.
inline constexpr size_t kWindows = 3;

/// `<prefix>_p<N>_ms` for each of `percentiles`, over the operations of
/// `kinds`: the median of the windows' percentiles. A percentile that some
/// window holds too few samples to support is left out (and said so on
/// standard error): these wall-clock figures are shown, not gated.
void ReportLatency(const std::string& prefix, const LoopResult& loop,
                   const std::vector<int>& kinds,
                   const std::vector<int>& percentiles, Report* report);

/// Completed operations of `kinds` per second: the median of the windows'
/// rates.
double WindowedRate(const LoopResult& loop, const std::vector<int>& kinds);

/// query_cpu_ms: the median over a cost probe's answered requests of the
/// process CPU time each cost (RunCostProbe).
void ReportQueryCpu(const LoopResult& probe, Report* report);

/// The traced run's own cost: the p50 latency of `clients` in a closed
/// loop with the tracer on, minus the same loop with it off (each a
/// quarter of the run, at most 4 s).
toss::Result<double> TracingOverheadP50Ms(
    uint16_t port, const std::vector<ClientSpec>& clients,
    const std::vector<std::string>& kind_names, double seconds,
    Tracer* tracer);

/// service.queue_wait_ms from a wire response body ("queue_wait_ms").
double QueueWaitMs(const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
