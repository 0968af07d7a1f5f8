#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>


namespace perfbench {

// --- Report ------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::CheckFailed(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

void Report::CountOps(const std::string& kind, const OpCount& count) {
  OpCount& c = ops_[kind];
  c.attempted += count.attempted;
  c.failed += count.failed;
}

bool Report::Print(
    const std::vector<std::pair<std::string, std::string>>& names,
    bool zero_fill) const {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string line = "ops:";
  for (const auto& [kind, c] : ops_) {
    attempted += c.attempted;
    failed += c.failed;
    line += " " + kind + "=" + std::to_string(c.attempted) + "(" +
            std::to_string(c.failed) + " failed)";
  }
  for (const auto& [name, m] : metrics_) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& [name, unit] = names[i];
    auto it = metrics_.find(name);
    if (it == metrics_.end() && !zero_fill) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  it == metrics_.end() ? 0.0 : it->second.value);
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n%s\n", line.c_str(), json.c_str());
  std::fflush(stdout);
  return true;
}

// --- Tracing -----------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(uint64_t id, uint64_t parent, uint64_t request,
                    std::string name, int64_t start_ns, int64_t end_ns) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, request, std::move(name), start_ns, end_ns});
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

double Tracer::DurationMs(uint64_t request, const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->request == request && it->name == name) {
      return static_cast<double>(it->end_ns - it->start_ns) / 1e6;
    }
  }
  return 0;
}

toss::Status Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return toss::Status::IOError("cannot write " + path);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.good() ? toss::Status::OK()
                    : toss::Status::IOError("short write to " + path);
}

toss::net::Handler TracedHandler(toss::net::Handler inner, Tracer* tracer) {
  return [inner = std::move(inner),
          tracer](const toss::net::HttpRequest& request) {
    if (!tracer->enabled()) return inner(request);
    const int64_t start = NowNs();
    toss::net::HttpResponse response = inner(request);
    const int64_t end = NowNs();
    const std::string* rid = request.FindHeader(kRequestHeader);
    const std::string* parent = request.FindHeader(kParentHeader);
    tracer->Record(tracer->NewId(),
                   parent ? std::strtoull(parent->c_str(), nullptr, 10) : 0,
                   rid ? std::strtoull(rid->c_str(), nullptr, 10) : 0,
                   "net.handler", start, end);
    return response;
  };
}

// --- Client ------------------------------------------------------------------

ClientConn::~ClientConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool ClientConn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
         0;
}

bool ClientConn::Fill() {
  char chunk[65536];
  const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
  if (n <= 0) return false;
  buf_.append(chunk, static_cast<size_t>(n));
  return true;
}

bool ClientConn::Post(const std::string& target, const std::string& body,
                      const std::string& extra_headers, int* status,
                      std::string* out) {
  std::string bytes = "POST " + target +
                      " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: "
                      "application/json\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n" + extra_headers +
                      "\r\n";
  bytes += body;
  for (size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  size_t head_end;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) return false;
  }
  const std::string head = buf_.substr(0, head_end);
  const char* kLength = "\r\ncontent-length:";
  size_t len_pos = std::string::npos;
  for (size_t i = 0; i + std::strlen(kLength) <= head.size(); ++i) {
    if (::strncasecmp(head.c_str() + i, kLength, std::strlen(kLength)) == 0) {
      len_pos = i + std::strlen(kLength);
      break;
    }
  }
  if (len_pos == std::string::npos || head.compare(0, 9, "HTTP/1.1 ") != 0) {
    return false;
  }
  const size_t body_len =
      static_cast<size_t>(std::strtoull(head.c_str() + len_pos, nullptr, 10));
  const size_t total = head_end + 4 + body_len;
  while (buf_.size() < total) {
    if (!Fill()) return false;
  }
  *status = std::atoi(head.c_str() + 9);
  out->assign(buf_, head_end + 4, body_len);
  buf_.erase(0, total);
  return true;
}

// --- Load ----------------------------------------------------------------------

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Per-thread tallies, merged after the join.
struct Tally {
  std::vector<OpCount> counts;
  std::vector<std::vector<double>> lat_ms;
  std::vector<std::vector<double>> done_s;
  std::vector<double> late_ms;
  explicit Tally(size_t kinds) : counts(kinds), lat_ms(kinds), done_s(kinds) {}

  void Done(int kind, const OpenLoopTiming& timing) {
    lat_ms[kind].push_back(timing.LatencyMs());
    done_s[kind].push_back(timing.done_s);
  }
};

/// One request on `conn`, traced when the tracer is on. Returns whether the
/// operation succeeded (transport, then `check`).
bool Exchange(ClientConn& conn, const Op& op,
              const std::function<bool(const Op&, int, const std::string&)>&
                  check,
              Tracer* tracer, std::string* body) {
  std::string headers;
  uint64_t rid = 0, sid = 0;
  int64_t start = 0;
  if (tracer->enabled()) {
    rid = tracer->NewId();
    sid = tracer->NewId();
    headers = std::string(kRequestHeader) + ": " + std::to_string(rid) +
              "\r\n" + kParentHeader + ": " + std::to_string(sid) + "\r\n";
    start = NowNs();
  }
  int status = 0;
  const bool sent = conn.Post(op.target, op.body, headers, &status, body);
  if (tracer->enabled()) {
    tracer->Record(sid, 0, rid, "client.round_trip", start, NowNs());
  }
  return sent && check(op, status, *body);
}

LoopResult Merge(std::vector<std::string> kind_names,
                 std::vector<Tally>& tallies, double seconds) {
  LoopResult r;
  r.kind_names = std::move(kind_names);
  r.counts.resize(r.kind_names.size());
  r.lat_ms.resize(r.kind_names.size());
  r.done_s.resize(r.kind_names.size());
  r.seconds = seconds;
  for (Tally& t : tallies) {
    for (size_t k = 0; k < r.kind_names.size(); ++k) {
      r.counts[k].attempted += t.counts[k].attempted;
      r.counts[k].failed += t.counts[k].failed;
      r.lat_ms[k].insert(r.lat_ms[k].end(), t.lat_ms[k].begin(),
                         t.lat_ms[k].end());
      r.done_s[k].insert(r.done_s[k].end(), t.done_s[k].begin(),
                         t.done_s[k].end());
    }
    r.late_ms.insert(r.late_ms.end(), t.late_ms.begin(), t.late_ms.end());
  }
  return r;
}

}  // namespace

std::vector<double> LoopResult::AllLatencies(
    const std::vector<int>& kinds) const {
  std::vector<double> out;
  for (int k : kinds) out.insert(out.end(), lat_ms[k].begin(), lat_ms[k].end());
  return out;
}

std::vector<double> LoopResult::AllDone(const std::vector<int>& kinds) const {
  std::vector<double> out;
  for (int k : kinds) out.insert(out.end(), done_s[k].begin(), done_s[k].end());
  return out;
}

uint64_t LoopResult::Completed(const std::vector<int>& kinds) const {
  uint64_t n = 0;
  for (int k : kinds) n += counts[k].attempted - counts[k].failed;
  return n;
}

uint64_t LoopResult::Failed() const {
  uint64_t n = 0;
  for (const OpCount& c : counts) n += c.failed;
  return n;
}

LoopResult RunClosedLoop(uint16_t port, std::vector<ClientSpec> clients,
                         std::vector<std::string> kind_names, double seconds,
                         Tracer* tracer) {
  std::vector<Tally> tallies(clients.size(), Tally(kind_names.size()));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientConn conn;
      Tally& tally = tallies[c];
      const bool connected = conn.Connect(port);
      const OpenLoopSchedule pace(clients[c].rate_per_s, seconds);
      const bool paced = clients[c].rate_per_s > 0;
      std::string body;
      for (size_t seq = 0;
           paced ? seq < pace.size() : SecondsSince(t0) < seconds; ++seq) {
        const Op op = clients[c].next(seq);
        OpenLoopTiming timing;
        if (paced) {
          timing.due_s = pace.DueS(seq);
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(timing.due_s)));
        }
        timing.sent_s = SecondsSince(t0);
        if (!paced) timing.due_s = timing.sent_s;
        ++tally.counts[op.kind].attempted;
        if (!connected ||
            !Exchange(conn, op, clients[c].check, tracer, &body)) {
          ++tally.counts[op.kind].failed;
          if (!connected) break;
          continue;
        }
        timing.done_s = SecondsSince(t0);
        tally.Done(op.kind, timing);
        if (paced) tally.late_ms.push_back(timing.LateMs());
      }
    });
  }
  for (auto& t : threads) t.join();
  return Merge(std::move(kind_names), tallies, SecondsSince(t0));
}

LoopResult RunOpenLoop(uint16_t port, size_t connections,
                       const OpenLoopSchedule& schedule,
                       const std::function<Op(size_t i)>& next,
                       const std::function<bool(const Op&, int,
                                                const std::string&)>& check,
                       std::vector<std::string> kind_names, Tracer* tracer) {
  std::vector<Tally> tallies(connections, Tally(kind_names.size()));
  std::atomic<size_t> cursor{0};
  std::mutex next_mu;  // `next` is the workload's; call it from one thread
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClientConn conn;
      Tally& tally = tallies[c];
      const bool connected = conn.Connect(port);
      std::string body;
      for (size_t i; (i = cursor.fetch_add(1)) < schedule.size();) {
        Op op;
        {
          std::lock_guard<std::mutex> lock(next_mu);
          op = next(i);
        }
        OpenLoopTiming timing;
        timing.due_s = schedule.DueS(i);
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(timing.due_s)));
        timing.sent_s = SecondsSince(t0);
        ++tally.counts[op.kind].attempted;
        if (!connected || !Exchange(conn, op, check, tracer, &body)) {
          ++tally.counts[op.kind].failed;
          continue;
        }
        timing.done_s = SecondsSince(t0);
        tally.Done(op.kind, timing);
        tally.late_ms.push_back(timing.LateMs());
      }
    });
  }
  for (auto& t : threads) t.join();
  return Merge(std::move(kind_names), tallies, SecondsSince(t0));
}

LoopResult RunCostProbe(uint16_t port, const ClientSpec& client,
                        std::vector<std::string> kind_names, double seconds,
                        Tracer* tracer) {
  std::vector<Tally> tallies(1, Tally(kind_names.size()));
  Tally& tally = tallies[0];
  std::vector<double> cpu_ms;
  ClientConn conn;
  const bool connected = conn.Connect(port);
  std::string body;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t seq = 0; connected && SecondsSince(t0) < seconds; ++seq) {
    const Op op = client.next(seq);
    OpenLoopTiming timing;
    timing.sent_s = timing.due_s = SecondsSince(t0);
    ++tally.counts[op.kind].attempted;
    const double cpu0 = ProcessCpuMs();
    if (!Exchange(conn, op, client.check, tracer, &body)) {
      ++tally.counts[op.kind].failed;
      continue;
    }
    cpu_ms.push_back(ProcessCpuMs() - cpu0);
    timing.done_s = SecondsSince(t0);
    tally.Done(op.kind, timing);
  }
  if (!connected) {
    ++tally.counts[0].attempted;
    ++tally.counts[0].failed;
  }
  LoopResult r = Merge(std::move(kind_names), tallies, SecondsSince(t0));
  r.cpu_ms = std::move(cpu_ms);
  return r;
}

// --- Process -------------------------------------------------------------------

double PeakRssMiB() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string_view TreesSegment(std::string_view response_json) {
  const size_t end = response_json.rfind(",\"version\":");
  if (end == std::string_view::npos) return {};
  const size_t begin = response_json.rfind("\"trees\":", end);
  if (begin == std::string_view::npos) return {};
  return response_json.substr(begin, end - begin);
}

}  // namespace perfbench
