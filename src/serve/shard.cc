#include "serve/shard.h"

#include <utility>

#include "obs/metrics_registry.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace comx {
namespace serve {

Shard::~Shard() {
  // Belt-and-braces: a correctly used shard is drained or flushed before
  // destruction, but a unit test bailing early must not race the drainer.
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  cv_.wait(lock, [this] { return !drainer_active_; });
}

Status Shard::Init(const Instance& instance,
                   const std::vector<OnlineMatcher*>& matchers,
                   const Options& options, ThreadPool* pool) {
  options_ = options;
  // The serve layer owns latency measurement and decision reporting; the
  // engine-internal variants would only add clock reads and trace I/O to
  // the hot path (and SaveState forbids the histogram anyway).
  options_.sim.trace = nullptr;
  options_.sim.measure_response_time = false;
  instance_ = &instance;
  pool_ = pool;
  events_ = instance.events().size();
  cell_ = std::make_unique<StatsCell>(instance.PlatformCount());
  acc_.platforms.assign(static_cast<size_t>(instance.PlatformCount()),
                        PlatformSlice{});
  if (events_ == 0) {
    inert_ = true;
    cell_->Publish(acc_);
    return Status::OK();
  }
  COMX_RETURN_IF_ERROR(
      engine_.Init(instance, matchers, options_.sim, options_.seed));
  if (!options_.wal_dir.empty()) {
    recovery::DurableOptions durable;
    durable.dir = options_.wal_dir;
    durable.checkpoint_every_steps = 0;
    durable.wal = options_.wal;
    auto run = std::make_unique<recovery::DurableRun>(instance, options_.sim,
                                                      options_.seed, durable);
    COMX_RETURN_IF_ERROR(run->Start(engine_));
    durable_ = std::move(run);
  }
  if (obs::CollectionEnabled()) {
    registry_latency_ = obs::MetricsRegistry::Global().GetLatencyHistogram(
        obs::MetricName("comx_serve_decision_latency_ns", "shard",
                        static_cast<int64_t>(options_.shard_id)),
        "Shard decision latency from queue pop to step completion");
  }
  cell_->Publish(acc_);
  return Status::OK();
}

Status Shard::Submit(int64_t local_index, int64_t global_index, Callback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inert_) {
    return Status::FailedPrecondition(
        StrFormat("shard %d is empty and accepts no events", options_.shard_id));
  }
  if (draining_ || finished_) {
    return Status::FailedPrecondition(
        StrFormat("shard %d is draining", options_.shard_id));
  }
  if (!failed_.ok()) return failed_;
  if (local_index != next_local_) {
    return Status::InvalidArgument(StrFormat(
        "shard %d: out-of-order submission of event %lld: next local event "
        "is %lld, got %lld",
        options_.shard_id, static_cast<long long>(global_index),
        static_cast<long long>(next_local_),
        static_cast<long long>(local_index)));
  }
  ++next_local_;
  queue_.push_back(Pending{local_index, global_index, std::move(cb)});
  ++acc_submitted_;
  if (!drainer_active_) {
    drainer_active_ = true;
    pool_->Submit([this] { DrainLoop(); });
  }
  return Status::OK();
}

void Shard::DrainLoop() {
  for (;;) {
    std::deque<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        PublishLocked();
        drainer_active_ = false;
        cv_.notify_all();
        return;
      }
      batch.swap(queue_);
    }
    Status err;
    {
      std::lock_guard<std::mutex> lock(mu_);
      err = failed_;
    }
    for (Pending& p : batch) {
      if (err.ok()) {
        const Status st = ProcessOne(p);
        if (!st.ok()) {
          err = st;
          std::lock_guard<std::mutex> lock(mu_);
          failed_ = st;
        }
      } else if (p.cb) {
        ShardDecision d;
        d.global_index = p.global_index;
        d.shard = options_.shard_id;
        p.cb(err, d);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    PublishLocked();
  }
}

Status Shard::ProcessOne(const Pending& p) {
  Stopwatch sw;
  StepRecord last;
  if (Status st = StepPast(p.local_index, &last); !st.ok()) {
    if (p.cb) {
      ShardDecision d;
      d.global_index = p.global_index;
      d.shard = options_.shard_id;
      p.cb(st, d);
    }
    return st;
  }
  const int64_t nanos = sw.ElapsedNanos();
  latency_.ObserveNanos(nanos);
  if (registry_latency_ != nullptr) registry_latency_->ObserveNanos(nanos);
  if (p.cb) {
    ShardDecision d;
    d.global_index = p.global_index;
    d.shard = options_.shard_id;
    d.record = std::move(last);
    d.latency_nanos = nanos;
    p.cb(Status::OK(), d);
  }
  return Status::OK();
}

Status Shard::StepPast(int64_t local_index, StepRecord* last) {
  // Dynamic re-arrivals due before the submitted static event sort first
  // and do not advance the cursor; the loop drains them, then consumes the
  // static event itself (cursor moves to local_index + 1).
  while (static_cast<int64_t>(engine_.static_cursor()) <= local_index) {
    COMX_RETURN_IF_ERROR(StepOnce(last));
  }
  return Status::OK();
}

Status Shard::StepOnce(StepRecord* rec) {
  COMX_RETURN_IF_ERROR(engine_.Step(rec));
  if (durable_ != nullptr) {
    COMX_RETURN_IF_ERROR(durable_->Journal(engine_, *rec));
  }
  Accumulate(*rec);
  return Status::OK();
}

Result<SimResult> Shard::CloseOfDay() {
  StepRecord rec;
  while (!engine_.Done()) COMX_RETURN_IF_ERROR(StepOnce(&rec));
  if (durable_ == nullptr) return engine_.Finish();
  return durable_->Finish(&engine_);
}

void Shard::Accumulate(const StepRecord& rec) {
  ++acc_.steps;
  if (rec.kind == StepRecord::Kind::kArrival) {
    ++acc_.arrivals;
    return;
  }
  if (rec.kind == StepRecord::Kind::kBatchEnqueue) {
    // No decision yet — the request is counted when its window flushes.
    return;
  }
  if (rec.kind == StepRecord::Kind::kBatchFlush) {
    for (const StepRecord::BatchPlatformDelta& d : rec.batch_deltas) {
      acc_.decisions += d.requests;
      acc_.revenue += d.revenue;
      acc_.inner += d.inner;
      acc_.outer += d.outer;
      acc_.rejects += d.rejected;
      if (d.platform >= 0 &&
          d.platform < static_cast<PlatformId>(acc_.platforms.size())) {
        PlatformSlice& slice = acc_.platforms[static_cast<size_t>(d.platform)];
        slice.requests += d.requests;
        slice.revenue += d.revenue;
        slice.inner += d.inner;
        slice.outer += d.outer;
        slice.rejects += d.rejected;
      }
    }
    return;
  }
  ++acc_.decisions;
  acc_.revenue += rec.revenue;
  PlatformSlice* slice = nullptr;
  if (rec.platform >= 0 &&
      rec.platform < static_cast<PlatformId>(acc_.platforms.size())) {
    slice = &acc_.platforms[static_cast<size_t>(rec.platform)];
    ++slice->requests;
    slice->revenue += rec.revenue;
  }
  switch (rec.outcome) {
    case static_cast<int8_t>(Decision::Kind::kInner):
      ++acc_.inner;
      if (slice != nullptr) ++slice->inner;
      break;
    case static_cast<int8_t>(Decision::Kind::kOuter):
      ++acc_.outer;
      if (slice != nullptr) ++slice->outer;
      break;
    default:
      ++acc_.rejects;
      if (slice != nullptr) ++slice->rejects;
      break;
  }
}

void Shard::PublishLocked() {
  acc_.submitted = acc_submitted_;
  acc_.queue_depth = static_cast<int64_t>(queue_.size());
  cell_->Publish(acc_);
}

Status Shard::WaitQuiesced(std::unique_lock<std::mutex>* lock) {
  cv_.wait(*lock, [this] { return !drainer_active_ && queue_.empty(); });
  return failed_;
}

Result<SimResult> Shard::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (finished_) {
    return Status::FailedPrecondition(
        StrFormat("shard %d already drained", options_.shard_id));
  }
  draining_ = true;
  COMX_RETURN_IF_ERROR(WaitQuiesced(&lock));
  if (inert_) {
    finished_ = true;
    return SimResult{};
  }
  Result<SimResult> result = CloseOfDay();
  if (!result.ok()) {
    failed_ = result.status();
    return result.status();
  }
  durable_.reset();
  finished_ = true;
  PublishLocked();
  return result;
}

Status Shard::FlushJournal() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  cv_.wait(lock, [this] { return !drainer_active_; });
  if (durable_ == nullptr) return Status::OK();
  return durable_->Flush();
}

}  // namespace serve
}  // namespace comx
