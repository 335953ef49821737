// serve_demcom_wal: comx_serve runs DemCOM as a child process (2 shards on
// 2 drainer threads, WAL in the work directory) and a single-threaded
// open-loop client drives it over the TCP line protocol.
//
// The send schedule is the instance's own event timestamps compressed so
// the mean rate is the offered rate; bursts in the arrival process reach
// the service as bursts. Each request is timed from its DUE time (not its
// send time), so a client that falls behind shows up as latency, and the
// lateness itself is reported (client.send_lag_p99_us). Between sends the
// client waits in ppoll() until the next due time, reading replies.
//
// One fresh server per pass: kServeNominalPasses at the nominal rate, one
// at every other rate in kServeRates. Every pass replays the whole
// instance, and its DRAIN total must equal `comx_serve --replay` with the
// same flags bit for bit (the deterministic 2-shard value, not the 1-shard
// one) and the client-side sum of decision revenues.
//
// The end-to-end decision percentiles are the service-reported step
// latency of each reply (queue pop -> step done, WAL commit included): the
// p50 of each request's fastest over the nominal passes, scaled to the
// reference host speed (stats.h), and the best pass's p99. The
// client-observed due -> reply percentiles are
// per-layer metrics: on a shared 4-vCPU machine their run-to-run spread is
// several times any usable regression bound.
// Threads: client 1 + server main 1 + drainers 2 = 4.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "datagen/dataset.h"
#include "datagen/synthetic.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using comx::StrFormat;

constexpr int64_t kRequestsPerPlatform = 25000;
constexpr int64_t kWorkersPerPlatform = 5000;
constexpr int64_t kStatsPollNanos = 20'000'000;
constexpr int64_t kStallNanos = 20'000'000'000;

/// A spawned child process; killed and reaped if still running when the
/// handle goes away, so no error path leaves a server behind.
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  /// fork/exec `args` with stdout on a pipe (stderr is inherited).
  bool Start(const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    return true;
  }

  /// Reads one stdout line (blocking); false at EOF.
  bool ReadLine(std::string* line) {
    line->clear();
    char ch;
    for (;;) {
      const ssize_t n = ::read(out_fd_, &ch, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      if (ch == '\n') return true;
      line->push_back(ch);
    }
  }

  /// Reads stdout to EOF.
  std::string ReadAll() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return out;
      out.append(buf, static_cast<size_t>(n));
    }
  }

  /// Waits for exit; true on exit status 0. `max_rss_kb` gets ru_maxrss.
  bool Wait(long* max_rss_kb) {
    int status = 0;
    rusage ru{};
    const pid_t got = ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    if (max_rss_kb != nullptr) *max_rss_kb = ru.ru_maxrss;
    return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Parses "T revenue=<r> assignments=<a> ..." (the DRAIN / replay totals).
bool ParseTotals(const std::string& line, double* revenue,
                 int64_t* assignments) {
  const size_t r = line.find("revenue=");
  const size_t a = line.find("assignments=");
  if (line.rfind("T ", 0) != 0 || r == std::string::npos ||
      a == std::string::npos) {
    return false;
  }
  *revenue = std::strtod(line.c_str() + r + 8, nullptr);
  *assignments = std::strtoll(line.c_str() + a + 12, nullptr, 10);
  return true;
}

/// Client side of one connection: buffered reads, writes that keep
/// reading while the socket is full (the server's reply writer and its
/// request reader share a lock, so a client that stops reading can stall
/// the server).
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  int fd() const { return fd_; }

  /// Reads whatever is ready without blocking; false on EOF/error.
  bool ReadReady() {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  /// Next complete buffered line, if any.
  bool NextLine(std::string* line) {
    const size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      buf_.erase(0, pos_);
      pos_ = 0;
      return false;
    }
    line->assign(buf_, pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

  /// Blocking line read (protocol handshake and shutdown).
  bool ReadLine(std::string* line, int64_t timeout_ns) {
    const int64_t deadline = NowNanos() + timeout_ns;
    while (!NextLine(line)) {
      pollfd p{fd_, POLLIN, 0};
      const int64_t left = deadline - NowNanos();
      if (left <= 0) return false;
      const int rc = ::poll(&p, 1, static_cast<int>(left / 1'000'000 + 1));
      if (rc < 0 && errno != EINTR) return false;
      // At EOF the peer's last lines may still be buffered.
      if (rc > 0 && !ReadReady()) return NextLine(line);
    }
    return true;
  }

  /// Writes all of `data`, reading replies into the buffer meanwhile.
  bool WriteAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return false;
      }
      pollfd p{fd_, POLLIN | POLLOUT, 0};
      if (::poll(&p, 1, 1000) < 0 && errno != EINTR) return false;
      if ((p.revents & POLLIN) != 0 && !ReadReady()) return false;
    }
    return true;
  }

 private:
  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  // The client sends promptly; what the server does with its replies is
  // what is measured.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Value of the first `"key":<number>` in a JSON line (STATS).
double JsonNumber(const std::string& line, const char* key) {
  const std::string k = StrFormat("\"%s\":", key);
  const size_t at = line.find(k);
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + k.size(), nullptr);
}

/// One offered-rate step against a fresh server.
struct StepResult {
  int rate = 0;
  bool traced = false;
  double ready_s = 0.0;
  std::vector<double> latency_us;  // request decisions, due -> reply
  std::vector<double> shard_us;    // request decisions, shard step
  std::vector<double> outside_us;  // latency - shard step
  /// Shard step of each event's decision reply by event index; -1 for
  /// events that are not requests.
  std::vector<double> shard_us_by_event;
  std::vector<double> arrival_shard_us;
  std::vector<double> send_lag_us;
  int64_t decisions = 0;
  int64_t errors = 0;
  int64_t over_30ms = 0;
  int64_t backlog_max = 0;
  int64_t queue_depth_max = 0;
  int64_t negative_outside = 0;
  double client_revenue = 0.0;
  double wall_s = 0.0;  // first due -> last reply
  double tail_s = 0.0;  // last due -> last reply
  double drain_revenue = 0.0;
  int64_t drain_assignments = -1;
  int64_t steps = 0;
  std::map<std::string, double> prom;  // METRICS samples by name
  double child_rss_mb = 0.0;
};

/// Due offset (ns from the first event) of each event: its timestamp,
/// compressed so the mean rate over the whole instance is `rate` events/s.
std::vector<int64_t> MakeSchedule(const comx::Instance& instance, int rate) {
  const auto& events = instance.events();
  const double t0 = events.front().time;
  const double span = events.back().time - t0;
  const double target_s = static_cast<double>(events.size() - 1) / rate;
  const double scale = span > 0.0 ? target_s / span : 0.0;
  std::vector<int64_t> due_ns;
  due_ns.reserve(events.size());
  for (const auto& e : events) {
    due_ns.push_back(static_cast<int64_t>((e.time - t0) * scale * 1e9));
  }
  return due_ns;
}

/// Runs the open loop; false on a protocol failure (logged).
bool DriveOpenLoop(Connection* conn, const std::vector<int64_t>& due_ns,
                   bool traced, StepResult* out) {
  const size_t n = due_ns.size();
  std::vector<char> replied(n, 0);
  out->shard_us_by_event.assign(n, -1.0);
  size_t next = 0;
  int64_t replies = 0;
  int64_t last_reply = 0;
  const int64_t start = NowNanos() + 2'000'000;
  int64_t next_poll = start;
  int64_t last_progress = start;
  std::string out_buf, line;
  while (replies < static_cast<int64_t>(n)) {
    int64_t now = NowNanos();
    if (next < n && now >= start + due_ns[next]) {
      out_buf.clear();
      while (next < n && now >= start + due_ns[next]) {
        out_buf += "S " + std::to_string(next) + "\n";
        out->send_lag_us.push_back(
            static_cast<double>(now - start - due_ns[next]) / 1e3);
        ++next;
      }
      if (traced && now >= next_poll) {
        out_buf += "STATS\n";
        next_poll = now + kStatsPollNanos;
      }
      if (!conn->WriteAll(out_buf)) {
        std::fprintf(stderr, "perfbench: send failed\n");
        return false;
      }
      out->backlog_max = std::max<int64_t>(
          out->backlog_max, static_cast<int64_t>(next) - replies);
    } else {
      int64_t wait_ns = next < n ? start + due_ns[next] - now
                                 : 100'000'000;
      wait_ns = std::max<int64_t>(wait_ns, 0);
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      pollfd p{conn->fd(), POLLIN, 0};
      const int rc = ::ppoll(&p, 1, &ts, nullptr);
      if (rc < 0 && errno != EINTR) return false;
      if (rc > 0 && !conn->ReadReady()) {
        std::fprintf(stderr, "perfbench: connection lost\n");
        return false;
      }
    }
    // Replies that arrived so far, stamped when read.
    now = NowNanos();
    while (conn->NextLine(&line)) {
      if (!line.empty() && line[0] == '{') {
        out->queue_depth_max = std::max<int64_t>(
            out->queue_depth_max,
            static_cast<int64_t>(JsonNumber(line, "queue_depth")));
        continue;
      }
      long long index = -1;
      if (line.size() > 2 && line[0] == 'E') {
        index = std::atoll(line.c_str() + 2);
        ++out->errors;
        std::fprintf(stderr, "perfbench: error reply: %s\n", line.c_str());
      } else {
        // "D i shard A lat" (arrival) or "D i shard D outcome revenue lat".
        int shard = -1, outcome = 0;
        char kind = 0;
        double revenue = 0.0;
        const int got = std::sscanf(line.c_str(), "D %lld %d %c %d %lf", &index,
                                    &shard, &kind, &outcome, &revenue);
        if (got < 3 || (kind == 'D' && got != 5) || index < 0 ||
            index >= static_cast<long long>(n) || replied[index]) {
          ++out->errors;
          std::fprintf(stderr, "perfbench: unexpected reply: %s\n",
                       line.c_str());
          continue;
        }
        // The shard step time is the last field of every D reply.
        const size_t sp = line.rfind(' ');
        const double shard_us =
            std::strtod(line.c_str() + sp + 1, nullptr) / 1e3;
        const double latency_us =
            static_cast<double>(now - start - due_ns[index]) / 1e3;
        if (kind == 'D') {
          ++out->decisions;
          out->client_revenue += revenue;
          out->latency_us.push_back(latency_us);
          out->shard_us.push_back(shard_us);
          out->shard_us_by_event[static_cast<size_t>(index)] = shard_us;
          out->outside_us.push_back(latency_us - shard_us);
          if (latency_us - shard_us < -1.0) ++out->negative_outside;
          if (latency_us > 30000.0) ++out->over_30ms;
        } else {
          out->arrival_shard_us.push_back(shard_us);
        }
      }
      if (index >= 0 && index < static_cast<long long>(n) && !replied[index]) {
        replied[index] = 1;
        ++replies;
        last_reply = now;
        last_progress = now;
      }
    }
    if (now - last_progress > kStallNanos) {
      std::fprintf(stderr, "perfbench: %lld replies missing after a stall\n",
                   static_cast<long long>(n) - static_cast<long long>(replies));
      return false;
    }
  }
  out->wall_s = static_cast<double>(last_reply - start) / 1e9;
  out->tail_s =
      static_cast<double>(last_reply - start - due_ns.back()) / 1e9;
  return true;
}

std::vector<std::string> ServeArgs(const RunArgs& args,
                                   const std::string& prefix,
                                   const std::string& wal_dir) {
  return {args.serve_bin, "--load",    prefix,  "--algo",    "demcom",
          "--shards",     "2",         "--threads", "2",     "--seed",
          std::to_string(kEngineSeed), "--wal-dir", wal_dir};
}

/// Spawn, drive one offered rate, drain, shut down.
bool RunStep(const RunArgs& args, const std::string& prefix,
             const comx::Instance& instance, int rate, bool traced, int index,
             StepResult* out) {
  out->rate = rate;
  out->traced = traced;
  const std::string wal_dir =
      StrFormat("%s/wal-%d", args.work_dir.c_str(), index);
  std::vector<std::string> argv = ServeArgs(args, prefix, wal_dir);
  argv.insert(argv.begin() + 1, {"--port", "0"});
  Child server;
  const int64_t spawn = NowNanos();
  if (!server.Start(argv)) return false;
  std::string line;
  if (!server.ReadLine(&line) ||
      line.find("listening on port ") == std::string::npos) {
    std::fprintf(stderr, "perfbench: no serve banner: %s\n", line.c_str());
    return false;
  }
  out->ready_s = static_cast<double>(NowNanos() - spawn) / 1e9;
  const int port = std::atoi(line.c_str() + line.find("port ") + 5);
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    std::fprintf(stderr, "perfbench: connect to port %d failed\n", port);
    return false;
  }
  Connection conn(fd);
  const int64_t io_timeout = 60'000'000'000;
  if (!conn.WriteAll("HELLO\n") || !conn.ReadLine(&line, io_timeout)) {
    return false;
  }
  long long events = -1;
  if (std::sscanf(line.c_str(), "COMX-SERVE v1 events=%lld", &events) != 1 ||
      events != static_cast<long long>(instance.events().size())) {
    std::fprintf(stderr, "perfbench: bad handshake: %s\n", line.c_str());
    return false;
  }
  if (!DriveOpenLoop(&conn, MakeSchedule(instance, rate), traced, out)) {
    return false;
  }
  if (!conn.WriteAll("DRAIN\n")) return false;
  do {
    if (!conn.ReadLine(&line, io_timeout)) return false;
  } while (!line.empty() && line[0] == '{');
  if (!ParseTotals(line, &out->drain_revenue, &out->drain_assignments)) {
    std::fprintf(stderr, "perfbench: bad DRAIN reply: %s\n", line.c_str());
    return false;
  }
  if (traced) {
    if (!conn.WriteAll("STATS\n") || !conn.ReadLine(&line, io_timeout)) {
      return false;
    }
    out->steps = static_cast<int64_t>(JsonNumber(line, "steps"));
    if (!conn.WriteAll("METRICS\n")) return false;
    for (;;) {
      if (!conn.ReadLine(&line, io_timeout)) return false;
      if (line == ".") break;
      if (line.empty() || line[0] == '#') continue;
      const size_t sp = line.rfind(' ');
      if (sp == std::string::npos) continue;
      out->prom[line.substr(0, sp)] =
          std::strtod(line.c_str() + sp + 1, nullptr);
    }
  }
  if (!conn.WriteAll("QUIT\n") || !conn.ReadLine(&line, io_timeout) ||
      line != "BYE") {
    std::fprintf(stderr, "perfbench: expected BYE, got: %s\n", line.c_str());
    return false;
  }
  long rss_kb = 0;
  if (!server.Wait(&rss_kb)) {
    std::fprintf(stderr, "perfbench: comx_serve exited uncleanly\n");
    return false;
  }
  out->child_rss_mb = static_cast<double>(rss_kb) / 1024.0;
  return true;
}

/// Sum of every METRICS sample whose name starts with `family`.
double PromSum(const StepResult& step, const std::string& family) {
  double sum = 0.0;
  for (const auto& [name, value] : step.prom) {
    if (name == family || name.rfind(family + "{", 0) == 0) sum += value;
  }
  return sum;
}

std::string RateName(int rate) { return StrFormat("serve.r%dk.", rate / 1000); }

}  // namespace

void RunServeWorkload(const RunArgs& args, RunReport* report) {
  // Timer slack would add up to 50 us to every ppoll() wake-up.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const std::string prefix = args.work_dir + "/instance";
  const int64_t g0 = NowNanos();
  comx::SyntheticConfig gen;
  gen.requests_per_platform = {kRequestsPerPlatform};
  gen.workers_per_platform = {kWorkersPerPlatform};
  gen.radius_km = 1.0;
  gen.arrival_process = comx::ArrivalProcess::kPoisson;
  gen.seed = args.seed;
  auto generated = comx::GenerateSynthetic(gen);
  if (!generated.ok()) return report->Fail(generated.status().ToString());
  if (auto st = comx::SaveInstance(*generated, prefix); !st.ok()) {
    return report->Fail(st.ToString());
  }
  const double generate_s = static_cast<double>(NowNanos() - g0) / 1e9;
  // The client reads the same files the server loads, for the schedule.
  auto instance = comx::LoadInstance(prefix);
  if (!instance.ok()) return report->Fail(instance.status().ToString());
  const int64_t events = static_cast<int64_t>(instance->events().size());

  // Reference: the in-process replay with the same flags.
  double ref_revenue = 0.0;
  int64_t ref_assignments = -1;
  {
    std::vector<std::string> argv =
        ServeArgs(args, prefix, args.work_dir + "/wal-replay");
    argv.push_back("--replay");
    Child replay;
    if (!replay.Start(argv)) {
      return report->Fail("cannot start comx_serve --replay");
    }
    const std::string text = replay.ReadAll();
    if (!replay.Wait(nullptr) ||
        !ParseTotals(text.substr(0, text.find('\n')), &ref_revenue,
                     &ref_assignments)) {
      return report->Fail("comx_serve --replay failed: " + text);
    }
  }

  // Steps, in order: kServeNominalPasses untraced passes at the nominal
  // rate (a traced run makes one, the baseline for trace.overhead_frac,
  // then one traced pass), then every other offered rate once.
  std::vector<std::pair<int, bool>> plan;
  for (int i = 0; i < (args.trace ? 1 : kServeNominalPasses); ++i) {
    plan.push_back({kServeNominalRate, false});
  }
  if (args.trace) plan.push_back({kServeNominalRate, true});
  for (const int rate : kServeRates) {
    if (rate != kServeNominalRate) plan.push_back({rate, args.trace});
  }
  std::vector<StepResult> steps(plan.size());
  int64_t calibration_ns = CalibrationNanos();
  for (size_t i = 0; i < plan.size(); ++i) {
    StepResult& s = steps[i];
    report->attempted += events;
    const bool ok = RunStep(args, prefix, *instance, plan[i].first,
                            plan[i].second, static_cast<int>(i), &s);
    calibration_ns = std::min(calibration_ns, CalibrationNanos());
    const int64_t answered = static_cast<int64_t>(
        s.latency_us.size() + s.arrival_shard_us.size());
    report->failed += ok ? s.errors : events - answered + s.errors;
    if (!ok) {
      return report->Fail(
          StrFormat("serve step at %d events/s failed", s.rate));
    }
    std::fprintf(stderr,
                 "perfbench: %d events/s%s: p50 %.1f us, p99 %.1f us, tail "
                 "%.1f us, ready %.3f s, shard p50 %.2f us, shard p99 "
                 "%.1f us\n",
                 s.rate, s.traced ? " (traced)" : "",
                 Quantile(s.latency_us, 0.5), Quantile(s.latency_us, 0.99),
                 s.tail_s * 1e6, s.ready_s, Quantile(s.shard_us, 0.5),
                 Quantile(s.shard_us, 0.99));
    if (s.errors > 0) {
      report->Fail(StrFormat("%lld error replies",
                             static_cast<long long>(s.errors)));
    }
    if (s.drain_revenue != ref_revenue ||
        s.drain_assignments != ref_assignments) {
      report->Fail(StrFormat(
          "DRAIN revenue=%.17g assignments=%lld vs --replay revenue=%.17g "
          "assignments=%lld",
          s.drain_revenue, static_cast<long long>(s.drain_assignments),
          ref_revenue, static_cast<long long>(ref_assignments)));
    }
    // Client sum is in reply order, so equal only up to rounding.
    if (std::abs(s.client_revenue - s.drain_revenue) >
        1e-9 * std::max(1.0, std::abs(s.drain_revenue))) {
      report->Fail(StrFormat("client revenue sum %.17g vs DRAIN %.17g",
                             s.client_revenue, s.drain_revenue));
    }
    if (s.negative_outside > 0) {
      report->Fail(StrFormat("%lld replies report a shard step longer than "
                             "the client latency",
                             static_cast<long long>(s.negative_outside)));
    }
  }

  // Per offered rate, over the passes of this run's mode: medians of the
  // pass percentiles, totals for the rates.
  struct RateSummary {
    std::vector<double> p50, p99, shard_p99, tail_s, rss_mb;
    int64_t events = 0;
    int64_t decisions = 0;
    double wall_s = 0.0;
  };
  std::map<int, RateSummary> by_rate;
  std::vector<double> ready_s;
  const StepResult* traced_nominal = nullptr;
  const StepResult* untraced_nominal = nullptr;
  for (const StepResult& s : steps) {
    ready_s.push_back(s.ready_s);
    if (s.rate == kServeNominalRate) {
      (s.traced ? traced_nominal : untraced_nominal) = &s;
    }
    if (s.traced != args.trace) continue;
    RateSummary& r = by_rate[s.rate];
    r.p50.push_back(Quantile(s.latency_us, 0.5));
    r.p99.push_back(Quantile(s.latency_us, 0.99));
    r.shard_p99.push_back(Quantile(s.shard_us, 0.99));
    r.tail_s.push_back(s.tail_s);
    r.rss_mb.push_back(s.child_rss_mb);
    r.events += events;
    r.decisions += s.decisions;
    r.wall_s += s.wall_s;
  }
  const RateSummary* capacity = nullptr;
  for (const auto& [rate, r] : by_rate) {
    if (Median(r.p99) <= kServeCapacityP99LimitUs &&
        Median(r.tail_s) * 1e6 <= kServeCapacityP99LimitUs) {
      capacity = &r;
    }
  }
  if (capacity == nullptr) {
    report->Fail("no offered rate met the p99 limit");
    capacity = &by_rate.begin()->second;
  }

  const RateSummary& nominal = by_rate[kServeNominalRate];
  auto& E = report->end_to_end;
  E["setup_s"] = Median(ready_s);
  E["decisions_per_s"] =
      static_cast<double>(nominal.decisions) / nominal.wall_s;
  // The service-reported decision latency: client-observed percentiles on
  // a shared machine spread far beyond any usable bound (see README), so
  // they are per-layer metrics (serve.r<k>k.*, serve.outside_step_*). The
  // p50 is CPU work: as in-process, each request's fastest shard step over
  // the nominal passes (every pass makes the same steps), scaled to the
  // reference host speed. The p99 is the best pass's: about 3% of steps
  // carry a WAL group commit, so the step p99 is an fsync latency, which
  // the CPU calibration does not follow, and host disk load inflates whole
  // passes at a time.
  std::vector<double> fastest_by_event;
  for (const StepResult& s : steps) {
    if (s.rate != kServeNominalRate || s.traced != args.trace) continue;
    if (fastest_by_event.empty()) {
      fastest_by_event = s.shard_us_by_event;
      continue;
    }
    for (size_t i = 0; i < fastest_by_event.size(); ++i) {
      if ((fastest_by_event[i] < 0.0) != (s.shard_us_by_event[i] < 0.0)) {
        return report->Fail("passes decided different events");
      }
      fastest_by_event[i] =
          std::min(fastest_by_event[i], s.shard_us_by_event[i]);
    }
  }
  const double scale =
      kCalibrationReferenceNanos / static_cast<double>(calibration_ns);
  std::fprintf(stderr,
               "perfbench: fastest calibration %.3f ms; decision p50 scaled "
               "by %.4f\n",
               static_cast<double>(calibration_ns) / 1e6, scale);
  std::vector<double> fastest_us;
  for (const double us : fastest_by_event) {
    if (us >= 0.0) fastest_us.push_back(us * scale);
  }
  E["decision_p50_us"] = Quantile(fastest_us, 0.5);
  E["decision_p99_us"] =
      *std::min_element(nominal.shard_p99.begin(), nominal.shard_p99.end());
  E["capacity_qps"] = static_cast<double>(capacity->events) / capacity->wall_s;
  E["revenue"] = ref_revenue;
  E["peak_rss_mb"] = Median(nominal.rss_mb);

  if (!args.trace) return;
  auto& L = report->per_layer;
  const StepResult& s = *traced_nominal;
  // The shard step (queue pop -> SimEngine steps done, WAL append
  // included) is the sim layer as seen from outside the server.
  L["sim.steps"] = static_cast<double>(s.steps);
  L["sim.rearrivals"] = static_cast<double>(s.steps - events);
  L["sim.arrival_step_p50_us"] = Quantile(s.arrival_shard_us, 0.5);
  L["sim.request_step_p50_us"] = Quantile(s.shard_us, 0.5);
  L["sim.request_step_p99_us"] = Quantile(s.shard_us, 0.99);
  L["sim.busy_s"] = (Sum(s.shard_us) + Sum(s.arrival_shard_us)) / 1e6;
  L["sim.self_busy_s"] = L["sim.busy_s"];

  const double estimates = PromSum(s, "comx_pricing_estimates_total");
  const double decisions = static_cast<double>(s.decisions);
  const double outer = PromSum(s, "comx_sim_outer_assignments_total");
  const auto per_estimate = [&](const char* family) {
    return estimates > 0 ? PromSum(s, family) / estimates : 0.0;
  };
  L["pricing.estimator_samples_mean"] =
      per_estimate("comx_pricing_mc_samples_total");
  L["pricing.bisect_iterations_mean"] =
      per_estimate("comx_pricing_bisect_iterations_total");
  L["pricing.offer_ratio"] = decisions > 0 ? estimates / decisions : 0.0;
  L["pricing.acceptance_ratio"] = estimates > 0 ? outer / estimates : 0.0;
  L["core.inner"] = PromSum(s, "comx_sim_inner_assignments_total");
  L["core.outer"] = outer;
  L["core.reject"] = PromSum(s, "comx_sim_rejections_total");

  L["serve.shard_step_p50_us"] = Quantile(s.shard_us, 0.5);
  L["serve.shard_step_p99_us"] = Quantile(s.shard_us, 0.99);
  L["serve.outside_step_p50_us"] = Quantile(s.outside_us, 0.5);
  L["serve.outside_step_p99_us"] = Quantile(s.outside_us, 0.99);
  L["serve.queue_depth_max"] = static_cast<double>(s.queue_depth_max);
  L["serve.backlog_max"] = static_cast<double>(s.backlog_max);
  L["serve.replies_over_30ms"] = static_cast<double>(s.over_30ms);
  L["serve.spawn_to_ready_s"] = Median(ready_s);
  int64_t error_replies = 0;
  for (const StepResult& step : steps) error_replies += step.errors;
  for (const auto& [rate, r] : by_rate) {
    L[RateName(rate) + "p50_us"] = Median(r.p50);
    L[RateName(rate) + "p99_us"] = Median(r.p99);
  }
  L["serve.error_replies"] = static_cast<double>(error_replies);

  const double records = PromSum(s, "comx_recovery_wal_records_total");
  const double commits = PromSum(s, "comx_recovery_wal_commits_total");
  L["recovery.wal_records"] = records;
  L["recovery.wal_commits"] = commits;
  L["recovery.records_per_commit"] = commits > 0 ? records / commits : 0.0;
  L["recovery.wal_bytes_per_event"] =
      PromSum(s, "comx_recovery_wal_bytes_total") / static_cast<double>(events);

  L["datagen.generate_s"] = generate_s;
  L["client.send_lag_p99_us"] = Quantile(s.send_lag_us, 0.99);
  L["trace.overhead_frac"] = Quantile(s.latency_us, 0.5) /
                                  Quantile(untraced_nominal->latency_us, 0.5) -
                              1.0;
  L["failed_frac"] = static_cast<double>(report->failed) /
                     static_cast<double>(report->attempted);

  // The client-side trace: per request, due -> reply split into shard step
  // and the rest, written once at the end.
  std::FILE* f = std::fopen((args.work_dir + "/client_spans.csv").c_str(), "w");
  if (f == nullptr) return report->Fail("cannot write client_spans.csv");
  std::fprintf(f, "pass,rate,latency_us,shard_step_us,outside_us\n");
  for (size_t k = 0; k < steps.size(); ++k) {
    const StepResult& step = steps[k];
    for (size_t i = 0; i < step.latency_us.size(); ++i) {
      std::fprintf(f, "%zu,%d,%.3f,%.3f,%.3f\n", k, step.rate,
                   step.latency_us[i], step.shard_us[i], step.outside_us[i]);
    }
  }
  if (std::fclose(f) != 0) report->Fail("cannot close client_spans.csv");
}

}  // namespace perfbench
