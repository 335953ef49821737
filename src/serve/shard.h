// One geo-shard of the always-on matching service: a SimEngine plus its
// matchers, an MPSC submission queue, an optional per-shard durable run
// (recovery::DurableRun, WAL only: no checkpoint write ever joins the
// decision path), a decision-latency histogram, and a seqlock stats cell.
//
// Threading contract: Submit() may be called from any thread; all engine
// work happens on at most ONE drainer task at a time, scheduled onto the
// shared util::ThreadPool whenever the queue goes non-empty. The engine is
// therefore single-threaded (determinism preserved) while shards run
// concurrently. A shard with a WAL also owns that writer's flusher thread
// (recovery::WalWriter): the drainer appends and seals batches, the
// flusher writes + fsyncs them, so a step never waits on the disk unless
// the previous batch is still in flight when the next one seals. Readers
// of Stats() never touch the engine — they read the published seqlock
// cell.

#ifndef COMX_SERVE_SHARD_H_
#define COMX_SERVE_SHARD_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/online_matcher.h"
#include "model/instance.h"
#include "obs/latency_histogram.h"
#include "recovery/durable_sim.h"
#include "serve/stats_cell.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace comx {
namespace serve {

/// Outcome of one submitted event, delivered via the submission callback on
/// the shard's drainer thread.
struct ShardDecision {
  int64_t global_index = -1;
  int32_t shard = -1;
  /// The step that consumed the submitted static event (re-arrival steps
  /// drained on the way are folded into the stats, not reported).
  StepRecord record;
  /// Shard-observed decision latency (queue pop to step done).
  int64_t latency_nanos = 0;
};

class Shard {
 public:
  struct Options {
    int32_t shard_id = 0;
    uint64_t seed = 1;
    /// Per-shard simulation config. The service forces trace off and
    /// measure_response_time off (the serve layer owns latency measurement).
    SimConfig sim;
    /// Non-empty = journal every step to `<wal_dir>/wal.log` through a
    /// WAL-only recovery::DurableRun. The directory must exist.
    std::string wal_dir;
    recovery::WalWriterOptions wal;
  };

  using Callback = std::function<void(const Status&, const ShardDecision&)>;

  Shard() = default;
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  ~Shard();

  /// Binds the shard to its sub-instance and matchers (borrowed; must
  /// outlive the shard — the service owns both) and the shared pool.
  /// An empty sub-instance yields an inert shard: Drain() returns an empty
  /// result and Submit() is never legal (there are no events to route).
  Status Init(const Instance& instance,
              const std::vector<OnlineMatcher*>& matchers, const Options& options,
              ThreadPool* pool);

  /// Enqueues local event `local_index`, which must be the next index this
  /// shard has not yet accepted (the router submits in order). A
  /// duplicate, stale or skipped index is refused with InvalidArgument and
  /// leaves the shard healthy. `cb` may be empty. Fails once draining has
  /// begun or after a processing error.
  Status Submit(int64_t local_index, int64_t global_index, Callback cb);

  /// Graceful drain: stops accepting, waits for the queue to empty, then
  /// runs the engine to completion on the calling thread (events never
  /// submitted are consumed locally — "close of day"), and finishes the
  /// durable run (kRunEnd, then the engine) or, without a WAL, the engine.
  /// Returns the engine's SimResult. Call at most once.
  Result<SimResult> Drain();

  /// Abnormal-shutdown path: stops accepting, waits for the in-flight
  /// drainer to finish its queue, then Flush()es the journal tail and
  /// returns once the WAL is durable up to the last processed step. No
  /// run-end record is written — recovery sees exactly what a kill at this
  /// point would leave.
  Status FlushJournal();

  /// Consistent point-in-time counters (seqlock read; any thread).
  ShardSnapshot Stats() const { return cell_->Read(); }

  /// Shard-local latency histogram (client-visible decision service time).
  const obs::LatencyHistogram& latency_histogram() const { return latency_; }

  int64_t event_count() const { return static_cast<int64_t>(events_); }
  int32_t id() const { return options_.shard_id; }

 private:
  struct Pending {
    int64_t local_index;
    int64_t global_index;
    Callback cb;
  };

  void DrainLoop();
  Status ProcessOne(const Pending& p);
  // Steps the engine until the static cursor passes `local_index`.
  // `last` receives the cursor-advancing record.
  Status StepPast(int64_t local_index, StepRecord* last);
  // One engine step, journaled (with a WAL) and accumulated.
  Status StepOnce(StepRecord* rec);
  // Close of day: consumes what the clients never submitted, so the Eq. 1
  // totals cover the whole instance (and match the batch simulator), then
  // finishes the durable run (kRunEnd, then the engine) or the engine.
  Result<SimResult> CloseOfDay();
  void Accumulate(const StepRecord& rec);
  void PublishLocked();
  Status WaitQuiesced(std::unique_lock<std::mutex>* lock);

  Options options_;
  const Instance* instance_ = nullptr;
  ThreadPool* pool_ = nullptr;
  SimEngine engine_;
  std::unique_ptr<recovery::DurableRun> durable_;  // null = no WAL
  std::unique_ptr<StatsCell> cell_;
  obs::LatencyHistogram latency_;
  obs::LatencyHistogram* registry_latency_ = nullptr;  // global registry, may be null
  size_t events_ = 0;
  bool inert_ = false;    // empty sub-instance
  bool finished_ = false; // Drain() completed

  // Queue + accumulator state. `mu_` guards the queue flags; the snapshot
  // accumulator `acc_` is only touched by the single drainer (or by Drain()
  // after quiescence), so it needs no lock of its own.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool drainer_active_ = false;
  bool draining_ = false;
  int64_t next_local_ = 0;  // the local index Submit() accepts next
  Status failed_;

  ShardSnapshot acc_;
  int64_t acc_submitted_ = 0;  // guarded by mu_ (bumped by Submit)
};

}  // namespace serve
}  // namespace comx

#endif  // COMX_SERVE_SHARD_H_
