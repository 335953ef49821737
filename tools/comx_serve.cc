// Always-on sharded matching service over a day-scale instance.
//
// Serves a line-oriented TCP protocol on 127.0.0.1 (one client at a time,
// pipelining allowed):
//   HELLO            -> "COMX-SERVE v1 events=N shards=K platforms=P"
//   S <i>            -> async "D <i> <shard> A <latency_ns>"            (arrival)
//                         or "D <i> <shard> D <outcome> <rev> <latency_ns>"
//                         or "E <i> <message>" on a submission error (a
//                         duplicate, stale or skipped index included; the
//                         shard stays healthy), "E -1 bad event index: ..."
//                         when <i> is not an integer
//   STATS            -> one JSON line (seqlock snapshot; never blocks decisions;
//                         durability_lag_p99_us is the WAL's batch
//                         first-append-to-fsync lag)
//   METRICS          -> Prometheus text exposition, terminated by a "." line
//   DRAIN            -> graceful drain-to-completion; "T revenue=<r> assignments=<a>
//                         inner=<i> outer=<o> rejected=<j>"
//   QUIT             -> "BYE", exit 0
//
// Lines end at "\n" ("\r\n" accepted; blank lines ignored). A line over
// 64 KiB gets one "E -1 line too long" and is discarded up to its newline
// (serve/line_framer.h).
//
// --replay skips TCP entirely: the batch simulator reduced to a thin client
// that submits every event in order and drains. With --verify it re-runs
// RunSimulation() on the same instance and requires bit-identical revenue
// and the same assignment count — the one-shard equivalence gate.
// --verify needs --shards 1 (the default is 4) and is refused with exit 2
// otherwise: a one-shard service is RunSimulation() by construction, while
// the N > 1 geo split is exact only for TOTA on radius-separated
// instances (DESIGN §13), so no unsharded run can check it.
//
// SIGINT/SIGTERM: the async-signal-safe guard (util/signal_guard.h) only
// sets a flag and pokes the wake pipe; the poll loop notices, quiesces the
// shards, fsyncs every WAL tail, and exits 128+signo.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_aware.h"
#include "core/dem_com.h"
#include "core/greedy_rt.h"
#include "core/ram_com.h"
#include "core/ranking.h"
#include "core/tota_greedy.h"
#include "core/window_greedy.h"
#include "datagen/dataset.h"
#include "datagen/synthetic.h"
#include "matching/batch_matcher.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "recovery/wal.h"
#include "serve/line_framer.h"
#include "serve/match_service.h"
#include "sim/simulator.h"
#include "util/signal_guard.h"
#include "util/string_util.h"

namespace comx {
namespace {

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int64_t IntFlag(int argc, char** argv, const char* flag, int64_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return v != nullptr ? std::atoll(v) : fallback;
}

double DoubleFlag(int argc, char** argv, const char* flag, double fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return v != nullptr ? std::atof(v) : fallback;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "comx_serve: %s\n", status.ToString().c_str());
  return 1;
}

std::unique_ptr<OnlineMatcher> MakeMatcher(const std::string& algo) {
  if (algo == "tota") return std::make_unique<TotaGreedy>();
  if (algo == "ranking") return std::make_unique<Ranking>();
  if (algo == "greedyrt") return std::make_unique<GreedyRt>();
  if (algo == "demcom") return std::make_unique<DemCom>();
  if (algo == "ramcom") return std::make_unique<RamCom>();
  if (algo == "costdem") return std::make_unique<CostAwareDemCom>();
  // Micro-batch dispatch: the engine never consults these matchers, but
  // still Reset()s one per platform (WindowGreedy is the window=0 twin).
  if (algo == "batch") return std::make_unique<WindowGreedy>();
  return nullptr;
}

Result<Instance> BuildInstance(int argc, char** argv) {
  if (const char* prefix = FlagValue(argc, argv, "--load"); prefix != nullptr) {
    return LoadInstance(prefix);
  }
  SyntheticConfig config;
  config.platforms = static_cast<int32_t>(IntFlag(argc, argv, "--platforms", 2));
  config.requests_per_platform = {IntFlag(argc, argv, "--requests", 1250)};
  config.workers_per_platform = {IntFlag(argc, argv, "--workers", 250)};
  config.radius_km = DoubleFlag(argc, argv, "--radius", 1.0);
  config.imbalance = DoubleFlag(argc, argv, "--imbalance", 0.7);
  config.seed = static_cast<uint64_t>(IntFlag(argc, argv, "--gen-seed", 2020));
  if (const char* arrival = FlagValue(argc, argv, "--arrival");
      arrival != nullptr) {
    if (std::strcmp(arrival, "poisson") == 0) {
      config.arrival_process = ArrivalProcess::kPoisson;
    } else if (std::strcmp(arrival, "day") != 0) {
      return Status::InvalidArgument("--arrival must be day or poisson");
    }
  }
  return GenerateSynthetic(config);
}

/// Guards interleaved reply writes from shard drainer threads and the main
/// protocol loop. Full lines only, so a reader never sees a torn reply.
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}

  void WriteLine(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string buf = line;
    buf.push_back('\n');
    size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
      if (n <= 0) return;  // client went away; drop the reply
      off += static_cast<size_t>(n);
    }
  }

 private:
  int fd_;
  std::mutex mu_;
};

std::string StatsJson(const serve::MatchService& service) {
  const serve::ShardSnapshot total = service.TotalStats();
  const obs::LatencySnapshot lat = service.DecisionLatency();
  const obs::LatencySnapshot lag =
      recovery::WalDurabilityLagHistogram()->Snapshot();
  std::string out = StrFormat(
      "{\"events\":%lld,\"shards\":%d,\"submitted\":%lld,\"steps\":%lld,"
      "\"decisions\":%lld,\"inner\":%lld,\"outer\":%lld,\"rejects\":%lld,"
      "\"queue_depth\":%lld,\"revenue\":%.17g,"
      "\"latency_p50_us\":%.3f,\"latency_p99_us\":%.3f,\"latency_p999_us\":%.3f,"
      "\"durability_lag_p99_us\":%.3f,\"per_shard\":[",
      static_cast<long long>(service.event_count()), service.shard_count(),
      static_cast<long long>(total.submitted),
      static_cast<long long>(total.steps),
      static_cast<long long>(total.decisions),
      static_cast<long long>(total.inner), static_cast<long long>(total.outer),
      static_cast<long long>(total.rejects),
      static_cast<long long>(total.queue_depth), total.revenue,
      lat.QuantileMicros(0.50), lat.QuantileMicros(0.99),
      lat.QuantileMicros(0.999), lag.QuantileMicros(0.99));
  const std::vector<serve::ShardSnapshot> shards = service.ShardStats();
  for (size_t k = 0; k < shards.size(); ++k) {
    out += StrFormat(
        "%s{\"decisions\":%lld,\"revenue\":%.17g,\"queue_depth\":%lld}",
        k == 0 ? "" : ",", static_cast<long long>(shards[k].decisions),
        shards[k].revenue, static_cast<long long>(shards[k].queue_depth));
  }
  out += "]}";
  return out;
}

std::string DecisionReply(const serve::ShardDecision& d) {
  if (d.record.kind == StepRecord::Kind::kArrival) {
    return StrFormat("D %lld %d A %lld", static_cast<long long>(d.global_index),
                     d.shard, static_cast<long long>(d.latency_nanos));
  }
  // Batch mode: a submitted request only joins its window ("Q"); when the
  // step that consumed it also closed a window the flush totals ride along
  // ("F <requests> <revenue>").
  if (d.record.kind == StepRecord::Kind::kBatchEnqueue) {
    return StrFormat("D %lld %d Q %lld", static_cast<long long>(d.global_index),
                     d.shard, static_cast<long long>(d.latency_nanos));
  }
  if (d.record.kind == StepRecord::Kind::kBatchFlush) {
    int64_t requests = 0;
    double revenue = 0.0;
    for (const StepRecord::BatchPlatformDelta& delta : d.record.batch_deltas) {
      requests += delta.requests;
      revenue += delta.revenue;
    }
    return StrFormat("D %lld %d F %lld %.17g %lld",
                     static_cast<long long>(d.global_index), d.shard,
                     static_cast<long long>(requests), revenue,
                     static_cast<long long>(d.latency_nanos));
  }
  return StrFormat("D %lld %d D %d %.17g %lld",
                   static_cast<long long>(d.global_index), d.shard,
                   static_cast<int>(d.record.outcome), d.record.revenue,
                   static_cast<long long>(d.latency_nanos));
}

std::string TotalsLine(const serve::ServiceTotals& totals) {
  return StrFormat(
      "T revenue=%.17g assignments=%lld inner=%lld outer=%lld rejected=%lld",
      totals.total_revenue, static_cast<long long>(totals.assignments),
      static_cast<long long>(totals.completed_inner),
      static_cast<long long>(totals.completed_outer),
      static_cast<long long>(totals.rejected));
}

void MaybeWritePerf(int argc, char** argv) {
  if (const char* path = FlagValue(argc, argv, "--perf-out"); path != nullptr) {
    if (Status st = obs::SpanProfiler::Global().WriteProfile(path); !st.ok()) {
      std::fprintf(stderr, "comx_serve: perf-out: %s\n",
                   st.ToString().c_str());
    }
  }
}

int RunReplay(serve::MatchService* service, const Instance& instance,
              const std::string& algo, const SimConfig& sim, uint64_t seed,
              bool verify, int argc, char** argv) {
  if (Status st = service->SubmitAll(); !st.ok()) return Fail(st);
  auto totals = service->Drain();
  if (!totals.ok()) return Fail(totals.status());
  std::printf("%s\n", TotalsLine(*totals).c_str());
  MaybeWritePerf(argc, argv);
  if (!verify) return 0;

  // Equivalence gate: an uninterrupted batch run of the same instance.
  std::vector<std::unique_ptr<OnlineMatcher>> owned;
  std::vector<OnlineMatcher*> matchers;
  for (int32_t p = 0; p < instance.PlatformCount(); ++p) {
    owned.push_back(MakeMatcher(algo));
    matchers.push_back(owned.back().get());
  }
  SimConfig batch = sim;
  batch.trace = nullptr;
  batch.measure_response_time = false;
  auto batch_result = RunSimulation(instance, matchers, batch, seed);
  if (!batch_result.ok()) return Fail(batch_result.status());
  const double batch_revenue = batch_result->metrics.TotalRevenue();
  const int64_t batch_assignments =
      static_cast<int64_t>(batch_result->matching.assignments.size());
  if (batch_revenue != totals->total_revenue ||
      batch_assignments != totals->assignments) {
    std::fprintf(stderr,
                 "comx_serve: verify FAILED: serve revenue=%.17g "
                 "assignments=%lld vs batch revenue=%.17g assignments=%lld\n",
                 totals->total_revenue,
                 static_cast<long long>(totals->assignments), batch_revenue,
                 static_cast<long long>(batch_assignments));
    return 1;
  }
  std::printf("verify OK (batch revenue=%.17g assignments=%lld)\n",
              batch_revenue, static_cast<long long>(batch_assignments));
  return 0;
}

int ServeLoop(serve::MatchService* service, int argc, char** argv) {
  const int port = static_cast<int>(IntFlag(argc, argv, "--port", 7533));

  ::signal(SIGPIPE, SIG_IGN);
  InstallShutdownGuard();

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return Fail(Status::IoError("socket() failed"));
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Fail(Status::IoError(StrFormat("bind(%d): %s", port,
                                          std::strerror(errno))));
  }
  if (::listen(listen_fd, 1) != 0) {
    return Fail(Status::IoError("listen() failed"));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  std::printf("comx_serve listening on port %d events=%lld shards=%d platforms=%d\n",
              ntohs(addr.sin_port),
              static_cast<long long>(service->event_count()),
              service->shard_count(), service->platform_count());
  std::fflush(stdout);

  int conn_fd = -1;
  std::unique_ptr<LineWriter> writer;
  serve::LineFramer framer;
  bool drained = false;

  auto shutdown_exit = [&]() -> int {
    if (Status st = service->FlushJournals(); !st.ok()) {
      std::fprintf(stderr, "comx_serve: wal flush on shutdown: %s\n",
                   st.ToString().c_str());
    }
    if (conn_fd >= 0) ::close(conn_fd);
    ::close(listen_fd);
    MaybeWritePerf(argc, argv);
    return DrainShutdown();
  };

  for (;;) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = pollfd{ShutdownWakeFd(), POLLIN, 0};
    fds[nfds++] = pollfd{listen_fd, static_cast<short>(conn_fd < 0 ? POLLIN : 0), 0};
    if (conn_fd >= 0) fds[nfds++] = pollfd{conn_fd, POLLIN, 0};
    const int rc = ::poll(fds, nfds, -1);
    if (ShutdownRequested()) return shutdown_exit();
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Fail(Status::IoError("poll() failed"));
    }
    if (conn_fd < 0 && (fds[1].revents & POLLIN) != 0) {
      conn_fd = ::accept(listen_fd, nullptr, nullptr);
      if (conn_fd >= 0) writer = std::make_unique<LineWriter>(conn_fd);
      framer = serve::LineFramer();
      continue;
    }
    if (conn_fd < 0 || (fds[2].revents & (POLLIN | POLLHUP)) == 0) continue;

    char chunk[1 << 16];
    const ssize_t n = ::read(conn_fd, chunk, sizeof(chunk));
    if (n <= 0) {  // disconnect: drop the client, keep serving
      ::close(conn_fd);
      conn_fd = -1;
      writer.reset();
      continue;
    }
    framer.Append(std::string_view(chunk, static_cast<size_t>(n)));
    std::string line;
    for (serve::Frame frame;
         (frame = framer.Pop(&line)) != serve::Frame::kNone;) {
      if (frame == serve::Frame::kTooLong) {
        writer->WriteLine("E -1 line too long");
        continue;
      }
      if (line == "QUIT") {
        writer->WriteLine("BYE");
        ::close(conn_fd);
        ::close(listen_fd);
        MaybeWritePerf(argc, argv);
        return 0;
      }
      if (line == "HELLO") {
        writer->WriteLine(StrFormat(
            "COMX-SERVE v1 events=%lld shards=%d platforms=%d",
            static_cast<long long>(service->event_count()),
            service->shard_count(), service->platform_count()));
      } else if (line == "STATS") {
        writer->WriteLine(StatsJson(*service));
      } else if (line == "METRICS") {
        const std::string text =
            obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
        size_t pos = 0;
        while (pos < text.size()) {
          size_t end = text.find('\n', pos);
          if (end == std::string::npos) end = text.size();
          writer->WriteLine(text.substr(pos, end - pos));
          pos = end + 1;
        }
        writer->WriteLine(".");
      } else if (line == "DRAIN") {
        if (drained) {
          writer->WriteLine("E -1 already drained");
          continue;
        }
        auto totals = service->Drain();
        drained = true;
        if (!totals.ok()) {
          writer->WriteLine(
              StrFormat("E -1 %s", totals.status().ToString().c_str()));
        } else {
          writer->WriteLine(TotalsLine(*totals));
        }
      } else if (line.size() > 2 && line[0] == 'S' && line[1] == ' ') {
        const Result<int64_t> parsed =
            ParseInt64(std::string_view(line).substr(2));
        if (!parsed.ok()) {
          writer->WriteLine(StrFormat("E -1 bad event index: %s",
                                      parsed.status().ToString().c_str()));
          continue;
        }
        const int64_t index = *parsed;
        LineWriter* w = writer.get();
        const Status st = service->SubmitEvent(
            index, [w](const Status& status, const serve::ShardDecision& d) {
              if (!status.ok()) {
                w->WriteLine(StrFormat("E %lld %s",
                                       static_cast<long long>(d.global_index),
                                       status.ToString().c_str()));
                return;
              }
              w->WriteLine(DecisionReply(d));
            });
        if (!st.ok()) {
          writer->WriteLine(StrFormat("E %lld %s",
                                      static_cast<long long>(index),
                                      st.ToString().c_str()));
        }
      } else {
        writer->WriteLine(StrFormat("E -1 unknown command: %s", line.c_str()));
      }
    }
  }
}

int Main(int argc, char** argv) {
  const std::string algo = FlagValue(argc, argv, "--algo") != nullptr
                               ? FlagValue(argc, argv, "--algo")
                               : "ramcom";
  if (MakeMatcher(algo) == nullptr) {
    std::fprintf(stderr, "comx_serve: unknown --algo %s\n", algo.c_str());
    return 2;
  }
  serve::ServiceOptions options;
  options.shards = static_cast<int32_t>(IntFlag(argc, argv, "--shards", 4));
  if (HasFlag(argc, argv, "--verify") && options.shards != 1) {
    std::fprintf(stderr,
                 "comx_serve: --verify needs --shards 1, got %d: it compares "
                 "against one unsharded RunSimulation, and the N > 1 geo "
                 "split is exact only for TOTA on radius-separated "
                 "instances (DESIGN §13)\n",
                 options.shards);
    return 2;
  }
  auto instance = BuildInstance(argc, argv);
  if (!instance.ok()) return Fail(instance.status());

  obs::SetCollectionEnabled(true);

  options.seed = static_cast<uint64_t>(IntFlag(argc, argv, "--seed", 1));
  options.threads = static_cast<size_t>(IntFlag(argc, argv, "--threads", 0));
  if (const char* dir = FlagValue(argc, argv, "--wal-dir"); dir != nullptr) {
    options.wal_dir = dir;
  }
  // --algo batch serves micro-batch dispatch: requests queue inside their
  // virtual-time window and each shard solves windows as assignment
  // problems. Incompatible with --wal-dir (shards refuse the combination).
  if (algo == "batch") {
    options.sim.batch_mode = true;
    options.sim.batch_window_seconds = DoubleFlag(
        argc, argv, "--batch-window", options.sim.batch_window_seconds);
    if (const char* name = FlagValue(argc, argv, "--batch-algo");
        name != nullptr) {
      auto parsed = ParseBatchAlgo(name);
      if (!parsed.ok()) return Fail(parsed.status());
      options.sim.batch.algo = *parsed;
    }
  }
  auto service = serve::MatchService::Create(
      *instance, [&algo] { return MakeMatcher(algo); }, options);
  if (!service.ok()) return Fail(service.status());

  if (HasFlag(argc, argv, "--replay")) {
    return RunReplay(service->get(), *instance, algo, options.sim,
                     options.seed, HasFlag(argc, argv, "--verify"), argc,
                     argv);
  }
  return ServeLoop(service->get(), argc, argv);
}

}  // namespace
}  // namespace comx

int main(int argc, char** argv) {
  const int rc = comx::Main(argc, argv);
  if (comx::ShutdownRequested()) return comx::DrainShutdown();
  return rc;
}
