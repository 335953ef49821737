// Microbenchmark of the kernel layer (src/kernels/) backing the committed
// BENCH_kernels.json baseline. For each batch size (1k / 10k / 100k points)
// it times the grid-scan kernels on the scalar backend and on the
// dispatched (cpuid-selected) backend, and EcdfIndex::Evaluate per call,
// and emits one flat JSON record per (op, path, size).
//
// Deterministic fields — "checksum" (fixed-order sum over seeded inputs),
// "n", "survivors" — are identical on every host and backend (the kernel
// layer's bit-identity contract), so tools/bench_check gates them exactly
// like the sweep baseline. Timing fields (wall_, runs_per_sec, speedup_)
// are informational.
//
//   bench_kernels [--smoke] [--out PATH]
//
// --smoke shrinks the timing repetitions (the checksums are unaffected) so
// the tier-1 gate stays fast.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "exp/bench_record.h"
#include "kernels/dispatch.h"
#include "kernels/ecdf_batch.h"
#include "kernels/geo_kernels.h"
#include "obs/span.h"
#include "util/memory_meter.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace comx;

const char* ArgString(int argc, char** argv, const std::string& flag,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// Defeats dead-code elimination of the timed kernel outputs.
volatile double g_sink = 0.0;

// Seconds per pass over the batch: runs `f` in groups sized so one
// measurement covers ~`target_elems` elements, repeated `reps` times, and
// keeps the fastest group (standard best-of-N to shed scheduler noise).
template <typename F>
double BestSecondsPerPass(F&& f, size_t n, size_t target_elems, int reps) {
  const int iters =
      static_cast<int>(std::max<size_t>(1, target_elems / std::max<size_t>(n, 1)));
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch clock;
    for (int i = 0; i < iters; ++i) f();
    const double secs =
        static_cast<double>(clock.ElapsedNanos()) / 1e9 / iters;
    if (r == 0 || secs < best) best = secs;
  }
  return best;
}

// Deterministic per-size inputs, all drawn from one fixed-seed stream.
struct Inputs {
  // Planar points + per-point service radius² around a probe center.
  std::vector<double> xs, ys, radius2;
  double cx = 0.3, cy = -0.2, range2 = 36.0;
  // ECDF candidate ids + offered payment over a shared worker table.
  std::vector<int64_t> ids;
  double payment = 27.5;
};

Inputs MakeInputs(size_t n, size_t worker_count) {
  Inputs in;
  Rng rng(2020 + static_cast<uint64_t>(n));
  in.xs.reserve(n);
  in.ys.reserve(n);
  in.radius2.reserve(n);
  in.ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Two draws per point go unused. They stay because dropping them would
    // shift every later draw, and with it every committed checksum.
    rng.Uniform(30.0, 31.5);
    rng.Uniform(104.0, 105.5);
    in.xs.push_back(rng.Uniform(-15.0, 15.0));
    in.ys.push_back(rng.Uniform(-15.0, 15.0));
    const double radius = rng.Uniform(1.0, 8.0);
    in.radius2.push_back(radius * radius);
    in.ids.push_back(static_cast<int64_t>(i % worker_count));
  }
  return in;
}

struct Row {
  exp::BenchRecord record;
  double secs_per_pass = 0.0;
};

// One timed row: checksum from a single untimed pass (deterministic gate
// value), then the timing loop.
template <typename F>
Row TimeRow(const std::string& name, size_t n, double checksum, F&& pass,
            size_t target_elems, int reps) {
  Row row;
  pass();  // warm-up (and page in the output buffers)
  row.secs_per_pass = BestSecondsPerPass(pass, n, target_elems, reps);
  row.record.name = name;
  row.record.numbers["n"] = static_cast<double>(n);
  row.record.numbers["checksum"] = checksum;
  row.record.numbers["wall_seconds_per_pass"] = row.secs_per_pass;
  row.record.numbers["runs_per_sec"] =
      row.secs_per_pass > 0.0
          ? static_cast<double>(n) / row.secs_per_pass
          : 0.0;
  return row;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace comx;

  const bool smoke = HasFlag(argc, argv, "--smoke");
  const std::string out = ArgString(argc, argv, "--out", "BENCH_kernels.json");
  const size_t target_elems = smoke ? 20'000 : 4'000'000;
  const int reps = smoke ? 1 : 3;
  constexpr size_t kWorkers = 512;

  // Shared worker value-history table, unsorted as drawn.
  Rng hist_rng(7);
  kernels::EcdfIndex ecdf;
  for (size_t w = 0; w < kWorkers; ++w) {
    const int64_t len = hist_rng.UniformInt(0, 64);
    std::vector<double> values;
    values.reserve(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      values.push_back(hist_rng.Uniform(5.0, 60.0));
    }
    ecdf.AddWorker(values);
  }

  Stopwatch wall;
  std::vector<exp::BenchRecord> records;
  const std::vector<size_t> sizes = {1000, 10000, 100000};
  // Captured before any ForceBackendForTesting call so the "dispatch" rows
  // always use the backend cpuid would pick, not whatever a previous row
  // pinned.
  const kernels::Backend auto_backend = kernels::ActiveBackend();
  const std::vector<std::pair<const char*, kernels::Backend>> backends = {
      {"scalar", kernels::Backend::kScalar}, {"dispatch", auto_backend}};
  std::printf("bench_kernels: dispatched backend = %s%s\n",
              kernels::BackendName(auto_backend), smoke ? " (smoke)" : "");

  for (size_t n : sizes) {
    const Inputs in = MakeInputs(n, kWorkers);
    std::vector<double> buf(n);
    std::vector<int32_t> idx(n);
    std::vector<double> d2(n);

    // -- squared distance + fused filter per backend --
    for (const auto& [path, backend] : backends) {
      kernels::ForceBackendForTesting(backend);

      const auto sqdist = [&] {
        kernels::BatchSquaredDistance(in.xs.data(), in.ys.data(), n, in.cx,
                                      in.cy, buf.data());
        g_sink += buf[0] + buf[n - 1];
      };
      sqdist();
      records.push_back(TimeRow("kernels.sqdist_batch." + std::string(path) +
                                    ".n" + std::to_string(n),
                                n, Sum(buf), sqdist, target_elems, reps)
                            .record);

      size_t survivors = 0;
      const auto filter = [&] {
        survivors = kernels::FilterInRange(in.xs.data(), in.ys.data(),
                                           in.radius2.data(), n, in.cx, in.cy,
                                           in.range2, idx.data(), d2.data());
        g_sink += survivors > 0 ? d2[0] : 0.0;
      };
      filter();
      double checksum = static_cast<double>(survivors);
      for (size_t i = 0; i < survivors; ++i) {
        checksum += static_cast<double>(idx[i]) + d2[i];
      }
      Row row = TimeRow("kernels.filter_range." + std::string(path) + ".n" +
                            std::to_string(n),
                        n, checksum, filter, target_elems, reps);
      row.record.numbers["survivors"] = static_cast<double>(survivors);
      records.push_back(std::move(row.record));
    }
    kernels::ResetDispatchForTesting();

    // -- ECDF: Definition 3.1 per candidate, one Evaluate call each --
    const auto ecdf_percall = [&] {
      for (size_t i = 0; i < n; ++i) {
        buf[i] = ecdf.Evaluate(in.ids[i], in.payment);
      }
      g_sink += buf[0] + buf[n - 1];
    };
    ecdf_percall();
    records.push_back(TimeRow("kernels.ecdf_percall.n" + std::to_string(n),
                              n, Sum(buf), ecdf_percall, target_elems, reps)
                          .record);

    std::printf("n=%-7zu done\n", n);
  }

  // -- observability: ScopedSpan record cost (budget: < 50 ns/record on the
  // enabled path; the disabled path is two relaxed loads and a branch). The
  // deterministic gate field is the histogram count delta of one untimed
  // pass (== n); wall_ns_per_record is informational like all timing. --
  {
    const size_t n = 100'000;
    const bool was_enabled = obs::CollectionEnabled();
    obs::SetCollectionEnabled(true);
    static const obs::SpanSite site("bench_span");
    const auto span_pass = [&] {
      for (size_t i = 0; i < n; ++i) {
        obs::ScopedSpan span(site);
      }
    };
    const int64_t before = site.histogram()->Count();
    span_pass();
    const double recorded =
        static_cast<double>(site.histogram()->Count() - before);
    Row on = TimeRow("obs.span_record.enabled.n" + std::to_string(n), n,
                     recorded, span_pass, target_elems, reps);
    on.record.numbers["wall_ns_per_record"] =
        on.secs_per_pass / static_cast<double>(n) * 1e9;
    std::printf("  %-40s %8.1f ns/record (budget 50)\n",
                on.record.name.c_str(),
                on.record.numbers["wall_ns_per_record"]);
    records.push_back(std::move(on.record));

    obs::SetSpansDisabled(true);
    const int64_t off_before = site.histogram()->Count();
    span_pass();
    const double off_recorded =
        static_cast<double>(site.histogram()->Count() - off_before);
    Row off = TimeRow("obs.span_record.disabled.n" + std::to_string(n), n,
                      off_recorded, span_pass, target_elems, reps);
    off.record.numbers["wall_ns_per_record"] =
        off.secs_per_pass / static_cast<double>(n) * 1e9;
    records.push_back(std::move(off.record));
    obs::SetSpansDisabled(false);
    obs::SetCollectionEnabled(was_enabled);
  }

  exp::BenchRecord summary;
  summary.name = "summary";
  summary.numbers["rows"] = static_cast<double>(records.size());
  summary.numbers["wall_seconds"] = wall.ElapsedNanos() / 1e9;
  summary.numbers["rss_mb"] = static_cast<double>(CurrentRssBytes()) / 1e6;
  records.push_back(std::move(summary));

  if (Status st = exp::WriteBenchRecords(out, records); !st.ok()) {
    std::fprintf(stderr, "write %s: %s\n", out.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu records in %.2fs\n", out.c_str(), records.size(),
              wall.ElapsedNanos() / 1e9);
  return 0;
}
