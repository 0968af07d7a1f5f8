// perfbench: the TOSS request-path benchmark. Runs one workload against an
// in-process tossd (TossService behind net::HttpServer) over loopback and
// prints its figures as one JSON line, last on stdout.
//
//   perfbench --workload select_http|join|ingest_mixed --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics and writes its spans to
// DIR/spans-<workload>-<seed>.json. Usually started through run.py, which
// builds this binary first.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/telemetry.h"
#include "workloads.h"

namespace {

// Wall-clock latency and throughput (loadgen.*) are measured too and shown
// on standard error, and the traced run reports them, but they are not
// end-to-end metrics: on the reference machine, time its other tenants
// take moves them by more than the largest bound a metric may have
// (README.md). The cost probe's CPU time per query stands in for them.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"query_cpu_ms", "ms"},
    {"answer_quality", "score"},
    {"peak_rss_mb", "MiB"}};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload select_http|join|ingest_mixed "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  perfbench::Tracer tracer(config.trace);
  perfbench::Report report;
  toss::obs::Telemetry::Global().StartTicker();  // as tossd runs
  toss::Status status;
  if (config.workload == "select_http") {
    status = perfbench::RunSelectHttp(config, &report, &tracer);
  } else if (config.workload == "join") {
    status = perfbench::RunJoin(config, &report, &tracer);
  } else if (config.workload == "ingest_mixed") {
    status = perfbench::RunIngestMixed(config, &report, &tracer);
  } else {
    toss::obs::Telemetry::Global().StopTicker();
    return Usage();
  }
  toss::obs::Telemetry::Global().StopTicker();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  if (config.trace) {
    const std::string spans = config.work_dir + "/spans-" + config.workload +
                              "-" + std::to_string(config.seed) + ".json";
    if (toss::Status s = tracer.WriteJson(spans); !s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: spans written to %s\n", spans.c_str());
  }
  if (!report.Print(config.trace ? perfbench::PerLayerMetrics() : kEndToEnd,
                    /*zero_fill=*/config.trace)) {
    return 1;
  }
  return report.correct() ? 0 : 1;
}
