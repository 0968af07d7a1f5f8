// Load generation, tracing and reporting shared by the workloads: a
// blocking keep-alive HTTP client, closed- and open-loop load loops (one
// thread and one connection per client, never more than nproc), the
// in-memory span recorder of the traced run, and the report printed as the
// benchmark's last line.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/http_server.h"
#include "stats.h"

namespace perfbench {

// --- Report ------------------------------------------------------------------

/// Operations attempted and failed, per kind ("fig15", "insert", ...).
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// Records a failed output check; the run reports correct = false.
  void CheckFailed(const std::string& what);
  bool correct() const { return failures_.empty(); }

  /// Adds timed-phase operations of one kind.
  void CountOps(const std::string& kind, const OpCount& count);

  /// The per-kind counts line, then the final JSON line, on stdout, with
  /// exactly the metrics `names` lists (name, unit). A name never set
  /// reads 0 when `zero_fill`; otherwise nothing is printed and the result
  /// is false.
  bool Print(const std::vector<std::pair<std::string, std::string>>& names,
             bool zero_fill) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, OpCount> ops_;
  std::vector<std::string> failures_;
};

// --- Tracing -----------------------------------------------------------------

/// Nanoseconds on the steady clock (the span time base).
int64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< shared by the spans of one request; 0 in set-up
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans kept in memory and written out once, at the end of the run. A
/// disabled tracer records nothing and costs one branch per call; the
/// traced run pauses it to measure its own overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Record(uint64_t id, uint64_t parent, uint64_t request,
              std::string name, int64_t start_ns, int64_t end_ns);

  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Duration (ms) of the latest span called `name` of `request`; 0 when
  /// there is none.
  double DurationMs(uint64_t request, const std::string& name) const;

  /// {"spans": [{"id", "parent", "request", "name", "start_ns",
  /// "end_ns"}...]} to `path`.
  toss::Status WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a set-up span around its scope (request 0, no parent).
class SetupSpan {
 public:
  SetupSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), name_(std::move(name)), start_(NowNs()) {}
  ~SetupSpan() {
    if (tracer_->enabled()) {
      tracer_->Record(tracer_->NewId(), 0, 0, name_, start_, NowNs());
    }
  }
  SetupSpan(const SetupSpan&) = delete;
  SetupSpan& operator=(const SetupSpan&) = delete;

 private:
  Tracer* tracer_;
  std::string name_;
  int64_t start_;
};

/// Headers the traced client sends so the server-side handler span can name
/// its request and parent.
inline constexpr const char* kRequestHeader = "x-perfbench-request";
inline constexpr const char* kParentHeader = "x-perfbench-span";

/// Wraps the server's handler: while the tracer is on, each call is
/// recorded as a "net.handler" span under the client's round-trip span.
toss::net::Handler TracedHandler(toss::net::Handler inner, Tracer* tracer);

// --- Client ------------------------------------------------------------------

/// A blocking keep-alive HTTP/1.1 connection over loopback.
class ClientConn {
 public:
  ClientConn() = default;
  ~ClientConn();
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  bool Connect(uint16_t port);

  /// Sends one POST and reads its Content-Length-framed response. False on
  /// a transport error.
  bool Post(const std::string& target, const std::string& body,
            const std::string& extra_headers, int* status, std::string* out);

 private:
  bool Fill();

  int fd_ = -1;
  std::string buf_;
};

// --- Load ----------------------------------------------------------------------

/// One request a client sends.
struct Op {
  std::string target;  ///< "/v1/query" or "/v1/mutate"
  std::string body;    ///< wire JSON
  int kind = 0;        ///< index into the loop's kind names
  size_t ref = 0;      ///< workload-defined (which distinct request)
};

/// One client: a connection driven by its own thread. `next(seq)` yields
/// its seq-th request; `check` judges each answer (HTTP status and body)
/// and returns false for a failed operation. Both run on the client's
/// thread only. A client with a `rate_per_s` is paced: its requests are
/// due on an OpenLoopSchedule, each sent when due or, if the previous
/// answer is late, as soon as it arrives, and timed from its due time.
struct ClientSpec {
  std::function<Op(size_t seq)> next;
  std::function<bool(const Op&, int status, const std::string& body)> check;
  double rate_per_s = 0;  ///< 0: closed loop
};

struct LoopResult {
  std::vector<std::string> kind_names;
  std::vector<OpCount> counts;             ///< per kind
  std::vector<std::vector<double>> lat_ms;  ///< per kind, successful ops
  std::vector<std::vector<double>> done_s;  ///< their completion times
  std::vector<double> late_ms;              ///< open-loop and paced sends
  std::vector<double> cpu_ms;  ///< RunCostProbe: per successful request
  double seconds = 0;          ///< measured wall time

  std::vector<double> AllLatencies(const std::vector<int>& kinds) const;
  std::vector<double> AllDone(const std::vector<int>& kinds) const;
  uint64_t Completed(const std::vector<int>& kinds) const;
  uint64_t Failed() const;
};

/// Closed loop: every unpaced client sends its next request when the
/// previous one is answered, until `seconds` have passed (requests in
/// flight then still complete and count); paced clients send their
/// schedule's floor(rate * seconds) requests.
LoopResult RunClosedLoop(uint16_t port, std::vector<ClientSpec> clients,
                         std::vector<std::string> kind_names, double seconds,
                         Tracer* tracer);

/// Open loop: request i of `schedule` is due at its scheduled time; the
/// clients take due requests in order, each waiting for its answer before
/// taking the next, so a request is late when every connection is busy.
/// Latency runs from the due time to the answer.
LoopResult RunOpenLoop(uint16_t port, size_t connections,
                       const OpenLoopSchedule& schedule,
                       const std::function<Op(size_t i)>& next,
                       const std::function<bool(const Op&, int,
                                                const std::string&)>& check,
                       std::vector<std::string> kind_names, Tracer* tracer);

/// The cost probe: `client`'s requests one at a time on one connection,
/// with nothing else in flight, for `seconds`. Each answered request's cost
/// (`cpu_ms`) is the process CPU time -- every thread, server and load
/// generator -- spent from its send to its answer. CPU time leaves out the
/// time the machine's other tenants take from this one (steal, run-queue
/// waits), which wall time counts, so the cost repeats from run to run
/// where latency does not.
LoopResult RunCostProbe(uint16_t port, const ClientSpec& client,
                        std::vector<std::string> kind_names, double seconds,
                        Tracer* tracer);

// --- Process -------------------------------------------------------------------

double PeakRssMiB();
/// CPU time of every thread of the process, server and load generator, in
/// ms (CLOCK_PROCESS_CPUTIME_ID).
double ProcessCpuMs();

/// The `"trees":[...]` member of a wire QueryResponse document, as it
/// appears in the bytes (responses are rendered with sorted keys, so it is
/// the second-to-last member). Empty when absent.
std::string_view TreesSegment(std::string_view response_json);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
