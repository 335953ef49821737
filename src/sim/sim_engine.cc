#include "sim/sim_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/window_greedy.h"
#include "geo/distance.h"
#include "obs/span.h"
#include "pricing/mer_pricer.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace comx {
namespace {

// Deterministic logical footprint of the static instance data.
int64_t InstanceLogicalBytes(const Instance& instance) {
  int64_t bytes = 0;
  bytes += static_cast<int64_t>(instance.workers().size() * sizeof(Worker));
  bytes += static_cast<int64_t>(instance.requests().size() * sizeof(Request));
  bytes += static_cast<int64_t>(instance.events().size() * sizeof(Event));
  for (const Worker& w : instance.workers()) {
    bytes += static_cast<int64_t>(w.history.size() * sizeof(double));
  }
  return bytes;
}

// Per-available-worker footprint: grid bucket slot + location + flags.
constexpr int64_t kPoolEntryBytes = static_cast<int64_t>(
    sizeof(int64_t) + sizeof(Point) + sizeof(Timestamp) + 1);

// Min-heap comparator for the dynamic re-arrival events.
struct EventGreater {
  bool operator()(const Event& a, const Event& b) const { return b < a; }
};

// Stamps the request-side and matcher-stats fields of a trace event.
obs::TraceEvent MakeTraceEvent(int64_t seq, const Request& r,
                               const Decision& decision) {
  obs::TraceEvent ev;
  ev.seq = seq;
  ev.time = r.time;
  ev.platform = r.platform;
  ev.request = r.id;
  ev.value = r.value;
  ev.inner_candidates = decision.stats.inner_candidates;
  ev.outer_candidates = decision.stats.outer_candidates;
  ev.priced_candidates = decision.stats.priced_candidates;
  ev.accepting = decision.stats.accepting;
  ev.bisect_iterations = decision.stats.bisect_iterations;
  ev.estimator_samples = decision.stats.estimator_samples;
  ev.estimated_payment = decision.stats.estimated_payment;
  return ev;
}

void WriteStats(const RunningStats& s, ByteWriter* out) {
  out->I64(s.count());
  out->F64(s.mean());
  out->F64(s.m2());
  out->F64(s.min());
  out->F64(s.max());
}

Status ReadStats(ByteReader* in, RunningStats* s) {
  int64_t count;
  double mean, m2, min, max;
  COMX_RETURN_IF_ERROR(in->I64(&count));
  COMX_RETURN_IF_ERROR(in->F64(&mean));
  COMX_RETURN_IF_ERROR(in->F64(&m2));
  COMX_RETURN_IF_ERROR(in->F64(&min));
  COMX_RETURN_IF_ERROR(in->F64(&max));
  *s = RunningStats::FromRaw(count, mean, m2, min, max);
  return Status::OK();
}

// v2: CircuitBreaker::Snapshot gained probe_in_flight (single half-open
// probe admission), serialized inside the fault-session block.
constexpr uint32_t kEngineStateVersion = 2;

}  // namespace

Status SimEngine::Init(const Instance& instance,
                       const std::vector<OnlineMatcher*>& matchers,
                       const SimConfig& config, uint64_t seed) {
  const int32_t platform_count = instance.PlatformCount();
  if (static_cast<int32_t>(matchers.size()) != platform_count) {
    return Status::InvalidArgument(StrFormat(
        "need %d matchers, got %zu", platform_count, matchers.size()));
  }
  for (OnlineMatcher* m : matchers) {
    if (m == nullptr) return Status::InvalidArgument("null matcher");
  }
  if (config.batch_mode) {
    if (config.fault_plan != nullptr) {
      return Status::InvalidArgument(
          "batch mode does not support fault injection: a window dispatch "
          "has no per-request two-phase commit to degrade");
    }
    if (!(config.batch_window_seconds >= 0.0) ||
        !std::isfinite(config.batch_window_seconds)) {
      return Status::InvalidArgument(
          StrFormat("batch_window_seconds must be finite and >= 0, got %g",
                    config.batch_window_seconds));
    }
    // StepBatchEnqueue books a request into window floor(t / window) and
    // closes it at (index + 1) * window. Both are exact only while
    // |t / window| < 2^53; beyond that (and past int64, where the cast is
    // undefined) the request lands in a window that closes before it
    // arrives.
    if (config.batch_window_seconds > 0.0) {
      for (const Request& r : instance.requests()) {
        if (!(std::abs(r.time / config.batch_window_seconds) < 0x1p53)) {
          return Status::InvalidArgument(StrFormat(
              "request %lld at t=%g is 2^53 or more %g s windows from t=0",
              static_cast<long long>(r.id), r.time,
              config.batch_window_seconds));
        }
      }
    }
  }

  instance_ = &instance;
  matchers_ = matchers;
  config_ = config;
  seed_ = seed;
  wall_.Reset();
  metric_ = config.metric != nullptr ? config.metric : &DefaultMetric();
  // A prebuilt shared model (seed grids) skips the per-run history
  // sort/flatten; both paths yield the identical immutable model.
  if (config.acceptance != nullptr) {
    acceptance_ = config.acceptance;
  } else {
    acceptance_ = &local_acceptance_.emplace(instance, config.acceptance_mode,
                                             config.reservation_seed);
  }
  pool_.emplace(instance, metric_);
  pool_meter_.Reset();

  // Fault injection: one session per run owns the injector RNG, the
  // per-(platform, partner) circuit breakers, and all fault accounting.
  // Matchers then see FaultyPlatformView decorators instead of the bare
  // pool views; their own RNG streams are untouched either way.
  fault_session_.reset();
  if (config.fault_plan != nullptr) {
    COMX_RETURN_IF_ERROR(config.fault_plan->Validate());
    fault_session_.emplace(*config.fault_plan, seed);
  }

  BuildViews();
  for (PlatformId p = 0; p < platform_count; ++p) {
    matchers_[static_cast<size_t>(p)]->Reset(instance, p,
                                             seed + static_cast<uint64_t>(p));
  }

  result_ = SimResult{};
  result_.metrics.per_platform.assign(static_cast<size_t>(platform_count),
                                      PlatformMetrics{});

  // Observability: counters/gauges are resolved once per run (registration
  // takes a mutex); tracing is independent of the metrics switch. Neither
  // consumes RNG draws, so results are bit-identical either way.
  collect_ = obs::CollectionEnabled();
  counters_.clear();
  pool_gauge_ = nullptr;
  if (collect_) {
    auto& registry = obs::MetricsRegistry::Global();
    counters_.reserve(static_cast<size_t>(platform_count));
    for (int32_t p = 0; p < platform_count; ++p) {
      counters_.push_back(PlatformCounters{
          registry.GetCounter(
              obs::MetricName("comx_sim_requests_total", "platform", p),
              "Requests fed to the platform's matcher"),
          registry.GetCounter(
              obs::MetricName("comx_sim_inner_assignments_total", "platform",
                              p),
              "Requests served by inner workers"),
          registry.GetCounter(
              obs::MetricName("comx_sim_outer_assignments_total", "platform",
                              p),
              "Requests served by borrowed outer workers"),
          registry.GetCounter(
              obs::MetricName("comx_sim_rejections_total", "platform", p),
              "Requests the matcher rejected")});
    }
    pool_gauge_ = registry.GetGauge(
        "comx_sim_pool_available",
        "Workers currently available in the shared pool");
  }
  decision_latency_.Reset();
  available_workers_ = 0;
  decision_seq_ = 0;
  step_index_ = 0;

  static_events_.assign(instance.events().begin(), instance.events().end());
  std::sort(static_events_.begin(), static_events_.end());
  cursor_ = 0;
  dynamic_events_.clear();
  static_event_count_ = static_cast<int64_t>(instance.events().size());
  dynamic_sequence_ = static_event_count_;
  // Drop-off point of each worker's last completed service; re-arrival
  // events place the worker there instead of at its static start location.
  drop_off_.assign(instance.workers().size(), Point{});

  pending_windows_.clear();
  pending_count_ = 0;
  batch_window_seq_ = 0;
  batch_matcher_.reset();
  batch_rngs_.clear();
  column_of_worker_.clear();
  if (config.batch_mode) {
    batch_matcher_.emplace(config.batch);
    column_of_worker_.assign(instance.workers().size(), -1);
    batch_rngs_.reserve(static_cast<size_t>(platform_count));
    for (PlatformId p = 0; p < platform_count; ++p) {
      batch_rngs_.emplace_back(seed + static_cast<uint64_t>(p));
    }
  }
  return Status::OK();
}

void SimEngine::BuildViews() {
  const int32_t platform_count = instance_->PlatformCount();
  views_.clear();
  faulty_views_.clear();
  views_.reserve(static_cast<size_t>(platform_count));
  faulty_views_.reserve(static_cast<size_t>(platform_count));
  for (PlatformId p = 0; p < platform_count; ++p) {
    views_.emplace_back(*instance_, *acceptance_, *pool_, p);
    if (fault_session_.has_value()) {
      faulty_views_.emplace_back(views_.back(), p, *fault_session_,
                                 platform_count);
    }
  }
}

Status SimEngine::Step(StepRecord* record) {
  if (config_.batch_mode && BatchFlushDue()) {
    if (record != nullptr) {
      *record = StepRecord{};
      record->step = step_index_;
    }
    ++step_index_;
    return StepBatchFlush(record);
  }
  const bool take_static =
      cursor_ < static_events_.size() &&
      (dynamic_events_.empty() ||
       static_events_[cursor_] < dynamic_events_.front());
  Event e;
  if (take_static) {
    e = static_events_[cursor_++];
  } else if (!dynamic_events_.empty()) {
    std::pop_heap(dynamic_events_.begin(), dynamic_events_.end(),
                  EventGreater{});
    e = dynamic_events_.back();
    dynamic_events_.pop_back();
  } else {
    return Status::FailedPrecondition("Step() past the end of the stream");
  }
  if (record != nullptr) {
    *record = StepRecord{};
    record->step = step_index_;
  }
  ++step_index_;
  if (e.kind == EventKind::kWorkerArrival) {
    return StepArrival(e, record);
  }
  if (config_.batch_mode) {
    return StepBatchEnqueue(e, record);
  }
  return StepRequest(e, record);
}

bool SimEngine::BatchFlushDue() const {
  if (pending_windows_.empty()) return false;
  // Window 0s: flush the held request before consuming any further event —
  // the decision point is then exactly the request's own arrival, which is
  // what makes window=0 equal the online WindowGreedy run bit for bit.
  if (config_.batch_window_seconds <= 0.0) return true;
  const Event* next = nullptr;
  if (cursor_ < static_events_.size()) next = &static_events_[cursor_];
  if (!dynamic_events_.empty() &&
      (next == nullptr || dynamic_events_.front() < *next)) {
    next = &dynamic_events_.front();
  }
  if (next == nullptr) return true;
  // Events exactly at the close are consumed first (a worker arriving at
  // the close is not eligible anyway: every held request arrived earlier).
  return next->time > pending_windows_.front().close;
}

Status SimEngine::StepBatchEnqueue(const Event& e, StepRecord* record) {
  const Request& r = instance_->request(e.entity_id);
  const double window_s = config_.batch_window_seconds;
  int64_t index;
  Timestamp close;
  if (window_s > 0.0) {
    index = static_cast<int64_t>(std::floor(r.time / window_s));
    close = (static_cast<double>(index) + 1.0) * window_s;
  } else {
    index = batch_window_seq_++;
    close = r.time;
  }
  // Requests arrive in time order, so window indices are non-decreasing;
  // at most the current and the next window are ever open at once (an
  // event exactly at the close enqueues before the front flushes).
  if (pending_windows_.empty() || pending_windows_.back().index < index) {
    PendingWindow w;
    w.index = index;
    w.close = close;
    w.per_platform.assign(result_.metrics.per_platform.size(), {});
    pending_windows_.push_back(std::move(w));
  }
  pending_windows_.back()
      .per_platform[static_cast<size_t>(r.platform)]
      .push_back(r.id);
  ++pending_count_;
  if (record != nullptr) {
    record->kind = StepRecord::Kind::kBatchEnqueue;
    record->request = r.id;
    record->platform = r.platform;
    record->time = r.time;
    record->value = r.value;
  }
  return Status::OK();
}

Status SimEngine::StepBatchFlush(StepRecord* record) {
  PendingWindow window = std::move(pending_windows_.front());
  pending_windows_.pop_front();
  if (record != nullptr) {
    record->kind = StepRecord::Kind::kBatchFlush;
    record->time = window.close;
  }
  const int32_t platforms = static_cast<int32_t>(window.per_platform.size());
  for (PlatformId p = 0; p < platforms; ++p) {
    const std::vector<RequestId>& ids =
        window.per_platform[static_cast<size_t>(p)];
    if (ids.empty()) continue;
    pending_count_ -= static_cast<int64_t>(ids.size());
    StepRecord::BatchPlatformDelta delta;
    delta.platform = p;
    delta.requests = static_cast<int64_t>(ids.size());
    COMX_RETURN_IF_ERROR(
        FlushPlatformWindow(p, window.close, ids, &delta));
    if (record != nullptr) record->batch_deltas.push_back(delta);
  }
  return Status::OK();
}

Status SimEngine::FlushPlatformWindow(PlatformId platform, Timestamp close,
                                      const std::vector<RequestId>& ids,
                                      StepRecord::BatchPlatformDelta* delta) {
  const PlatformView& view = views_[static_cast<size_t>(platform)];
  Rng* rng = &batch_rngs_[static_cast<size_t>(platform)];
  if (collect_) {
    counters_[static_cast<size_t>(platform)].requests->Inc(
        static_cast<int64_t>(ids.size()));
  }

  // Single-request windows take the WindowGreedy argmax directly: same
  // candidate enumeration, same tie-breaking, same RNG stream — the
  // window=0 differential suite holds bit for bit because of this path.
  if (ids.size() == 1) {
    const Request& r = instance_->request(ids.front());
    const Decision decision = DecideWindowGreedy(r, view, rng);
    return ApplyBatchDecision(r, close, decision, delta);
  }

  // Window assignment problem: left = the window's requests in arrival
  // order, right = the idle workers that can serve any of them
  // (dense-reindexed in first-seen order). Inner edges are worth the full
  // value, outer edges the MER expected revenue; money-losing borrows are
  // dropped up front, exactly as WindowGreedy prices single requests.
  // Request i's candidates are window_candidates_[window_rows_[i],
  // window_rows_[i + 1]), in the order their edges enter the graph.
  window_candidates_.clear();
  window_rows_.clear();
  window_stats_.assign(ids.size(), DecisionStats{});
  worker_of_column_.clear();
  const auto column_of = [&](WorkerId w) {
    int32_t& column = column_of_worker_[static_cast<size_t>(w)];
    if (column < 0) {
      column = static_cast<int32_t>(worker_of_column_.size());
      worker_of_column_.push_back(w);
    }
    return column;
  };
  for (size_t i = 0; i < ids.size(); ++i) {
    const Request& r = instance_->request(ids[i]);
    window_rows_.push_back(window_candidates_.size());
    {
      COMX_SPAN("candidate_lookup");
      pool_->FeasibleWorkerSides(r, platform, &inner_scratch_,
                                 &outer_scratch_);
    }
    DecisionStats& stats = window_stats_[i];
    stats.inner_candidates = static_cast<int32_t>(inner_scratch_.size());
    stats.outer_candidates = static_cast<int32_t>(outer_scratch_.size());
    for (const WorkerId w : inner_scratch_) {
      window_candidates_.push_back({w, column_of(w), false, r.value, 0.0});
    }
    int32_t priced = 0;
    for (const WorkerId w : outer_scratch_) {
      const MerQuote quote =
          ComputeWorkerMerQuote(view.acceptance(), w, r.value);
      ++priced;
      if (!(r.value - quote.payment > 0.0)) continue;
      window_candidates_.push_back(
          {w, column_of(w), true, quote.expected_revenue, quote.payment});
    }
    stats.priced_candidates = priced;
  }
  window_rows_.push_back(window_candidates_.size());
  // Every column is numbered; hand the next flush an all -1 table.
  for (const WorkerId w : worker_of_column_) {
    column_of_worker_[static_cast<size_t>(w)] = -1;
  }

  BipartiteGraph graph(static_cast<int32_t>(ids.size()),
                       static_cast<int32_t>(worker_of_column_.size()));
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t k = window_rows_[i]; k < window_rows_[i + 1]; ++k) {
      const WindowCandidate& c = window_candidates_[k];
      COMX_RETURN_IF_ERROR(
          graph.AddEdge(static_cast<int32_t>(i), c.column, c.weight));
    }
  }
  BipartiteMatching matched;
  {
    COMX_SPAN("batch_solve");
    COMX_ASSIGN_OR_RETURN(matched,
                          batch_matcher_->SolveWindow(graph,
                                                      worker_of_column_));
  }

  // The inner and outer lists are disjoint and duplicate-free, so each
  // (request, worker) pair is at most one candidate: the matched one is
  // the candidate in the request's row with the matched column.
  for (size_t i = 0; i < ids.size(); ++i) {
    const Request& r = instance_->request(ids[i]);
    const int32_t column = matched.match_of_left[i];
    const WindowCandidate* c = nullptr;
    if (column >= 0) {
      for (size_t k = window_rows_[i]; k < window_rows_[i + 1]; ++k) {
        if (window_candidates_[k].column == column) {
          c = &window_candidates_[k];
          break;
        }
      }
      if (c == nullptr) {
        return Status::Internal(StrFormat(
            "batch solver matched request %lld to column %d, not one of "
            "its edges",
            static_cast<long long>(r.id), column));
      }
    }
    Decision decision = c == nullptr  ? Decision::Reject()
                        : c->is_outer ? Decision::Outer(c->worker, c->payment)
                                      : Decision::Inner(c->worker);
    decision.stats = window_stats_[i];
    if (decision.kind == Decision::Kind::kOuter) {
      decision.stats.estimated_payment = c->payment;
    }
    COMX_RETURN_IF_ERROR(ApplyBatchDecision(r, close, decision, delta));
  }
  return Status::OK();
}

Status SimEngine::ApplyBatchDecision(const Request& r, Timestamp close,
                                     const Decision& decision_in,
                                     StepRecord::BatchPlatformDelta* delta) {
  Decision decision = decision_in;
  PlatformMetrics& pm =
      result_.metrics.per_platform[static_cast<size_t>(r.platform)];
  const PlatformView& view = views_[static_cast<size_t>(r.platform)];
  Rng* rng = &batch_rngs_[static_cast<size_t>(r.platform)];

  // Outer plans survive only if the borrowed worker accepts; the draw
  // comes from the platform's batch RNG, request by request in arrival
  // order (kReservation consumes no draw, kBernoulli exactly one — the
  // same per-decision discipline as the online matchers).
  if (decision.kind == Decision::Kind::kOuter &&
      decision.stats.accepting == -1) {
    if (view.acceptance().Accepts(decision.worker, decision.outer_payment,
                                  rng)) {
      decision.stats.accepting = 1;
    } else {
      decision.stats.accepting = 0;
      Decision rejected = Decision::Reject();
      rejected.attempted_outer = true;
      rejected.stats = decision.stats;
      decision = std::move(rejected);
    }
  }

  if (decision.attempted_outer) ++pm.outer_offers;
  if (config_.measure_response_time) {
    pm.response_time_us.Add((close - r.time) * 1e6);
  }

  if (decision.kind == Decision::Kind::kReject) {
    ++pm.rejected;
    if (delta != nullptr) ++delta->rejected;
    if (collect_) {
      counters_[static_cast<size_t>(r.platform)].rejects->Inc();
    }
    if (config_.trace != nullptr) {
      obs::TraceEvent ev = MakeTraceEvent(decision_seq_++, r, decision);
      ev.outcome = "reject";
      config_.trace->Record(ev);
    }
    return Status::OK();
  }

  // The same runtime guards as the online path: the window solver is
  // internal, but a buggy backend must surface as an Internal error, not
  // as a silently infeasible booking.
  const WorkerId wid = decision.worker;
  if (wid < 0 || wid >= static_cast<WorkerId>(instance_->workers().size())) {
    return Status::Internal("batch solver returned invalid worker id");
  }
  if (!pool_->IsAvailable(wid)) {
    return Status::Internal("batch solver assigned an occupied worker");
  }
  const Worker& w = instance_->worker(wid);
  const bool is_outer = w.platform != r.platform;
  if ((decision.kind == Decision::Kind::kOuter) != is_outer) {
    return Status::Internal(
        StrFormat("batch solver mislabelled inner/outer for worker %lld",
                  static_cast<long long>(wid)));
  }
  const double pickup_km =
      metric_->Distance(pool_->CurrentLocation(wid), r.location);
  if (pickup_km > w.radius + 1e-9) {
    return Status::Internal(
        StrFormat("batch solver violated the range constraint (%.3f > %.3f)",
                  pickup_km, w.radius));
  }
  if (pool_->AvailableSince(wid) > r.time) {
    return Status::Internal("batch solver violated the time constraint");
  }

  Assignment a;
  a.request = r.id;
  a.worker = wid;
  a.is_outer = is_outer;
  if (is_outer) {
    const double payment = decision.outer_payment;
    if (!(payment > 0.0) || payment > r.value + 1e-9) {
      return Status::Internal(
          StrFormat("batch solver quoted outer payment %.4f outside "
                    "(0, v=%.4f]",
                    payment, r.value));
    }
    a.outer_payment = payment;
    a.revenue = r.value - payment;
    ++pm.completed_outer;
    pm.outer_payment_sum += payment;
    pm.payment_rate_sum += payment / r.value;
  } else {
    a.outer_payment = 0.0;
    a.revenue = r.value;
    ++pm.completed_inner;
  }
  ++pm.completed;
  pm.revenue += a.revenue;
  pm.total_pickup_km += pickup_km;
  result_.matching.Add(a);
  if (delta != nullptr) {
    ++(is_outer ? delta->outer : delta->inner);
    delta->revenue += a.revenue;
  }

  if (collect_) {
    const PlatformCounters& pc = counters_[static_cast<size_t>(r.platform)];
    (is_outer ? pc.outer : pc.inner)->Inc();
  }
  if (config_.trace != nullptr) {
    obs::TraceEvent ev = MakeTraceEvent(decision_seq_++, r, decision);
    ev.outcome = is_outer ? "outer" : "inner";
    ev.worker = wid;
    ev.payment = a.outer_payment;
    ev.revenue = a.revenue;
    config_.trace->Record(ev);
  }

  {
    COMX_SPAN("pool_commit");
    COMX_RETURN_IF_ERROR(pool_->MarkOccupied(wid));
    pool_meter_.Release(kPoolEntryBytes);
    --available_workers_;
    if (pool_gauge_ != nullptr) {
      pool_gauge_->Set(static_cast<double>(available_workers_));
    }
    if (config_.workers_recycle) {
      const double duration =
          ServiceDurationSeconds(config_, pickup_km, r.value);
      Event rearrival;
      rearrival.time = close + duration;
      rearrival.kind = EventKind::kWorkerArrival;
      rearrival.entity_id = wid;
      rearrival.sequence = dynamic_sequence_++;
      drop_off_[static_cast<size_t>(wid)] = r.location;
      dynamic_events_.push_back(rearrival);
      std::push_heap(dynamic_events_.begin(), dynamic_events_.end(),
                     EventGreater{});
    }
  }
  return Status::OK();
}

Status SimEngine::StepArrival(const Event& e, StepRecord* record) {
  const Worker& w = instance_->worker(e.entity_id);
  // Initial arrivals start at the static location; re-arrivals at the
  // drop-off point of the service that just finished.
  const bool rearrival = e.sequence >= static_event_count_;
  const Point where =
      rearrival ? drop_off_[static_cast<size_t>(e.entity_id)] : w.location;
  COMX_RETURN_IF_ERROR(pool_->OnArrival(e.entity_id, where, e.time));
  pool_meter_.Allocate(kPoolEntryBytes);
  ++available_workers_;
  if (pool_gauge_ != nullptr) {
    pool_gauge_->Set(static_cast<double>(available_workers_));
  }
  if (record != nullptr) {
    record->kind = StepRecord::Kind::kArrival;
    record->worker = e.entity_id;
    record->x = where.x;
    record->y = where.y;
    record->time = e.time;
    record->rearrival = rearrival;
  }
  return Status::OK();
}

Status SimEngine::StepRequest(const Event& e, StepRecord* record) {
  const Request& r = instance_->request(e.entity_id);
  PlatformMetrics& pm =
      result_.metrics.per_platform[static_cast<size_t>(r.platform)];
  OnlineMatcher* matcher = matchers_[static_cast<size_t>(r.platform)];
  const PlatformView& view =
      fault_session_.has_value()
          ? static_cast<const PlatformView&>(
                faulty_views_[static_cast<size_t>(r.platform)])
          : views_[static_cast<size_t>(r.platform)];

  if (collect_) {
    counters_[static_cast<size_t>(r.platform)].requests->Inc();
  }
  if (config_.measure_response_time) request_clock_.Reset();
  Decision decision;
  {
    COMX_SPAN("decide");
    decision = matcher->OnRequest(r, view);
  }
  int64_t decide_nanos = -1;
  if (config_.measure_response_time) {
    decide_nanos = request_clock_.ElapsedNanos();
    pm.response_time_us.Add(static_cast<double>(decide_nanos) / 1e3);
    decision_latency_.ObserveNanos(decide_nanos);
  }

  if (record != nullptr) {
    record->kind = StepRecord::Kind::kDecision;
    record->request = r.id;
    record->platform = r.platform;
    record->time = r.time;
    record->value = r.value;
    record->stats = decision.stats;
  }

  // Two-phase outer commit under fault injection: reserve the chosen
  // worker with its partner before booking. A stale-view conflict (the
  // worker was assigned elsewhere between query and commit) falls back
  // to the matcher's next accepting candidate; exhausting all of them
  // degrades the request to a reject — never a violated invariable
  // constraint, never a failed run.
  if (fault_session_.has_value() && decision.kind == Decision::Kind::kOuter) {
    WorkerId reserved = kInvalidId;
    const PlatformId first_partner =
        instance_->worker(decision.worker).platform;
    const bool first_ok =
        fault_session_->TryReserve(r.platform, first_partner, r.time);
    if (record != nullptr) {
      record->reserves.push_back(
          StepReserveEvent{first_partner, decision.worker, first_ok});
    }
    if (first_ok) {
      reserved = decision.worker;
    } else {
      for (WorkerId c : decision.fallback_workers) {
        const PlatformId partner = instance_->worker(c).platform;
        const bool ok = fault_session_->TryReserve(r.platform, partner, r.time);
        if (record != nullptr) {
          record->reserves.push_back(StepReserveEvent{partner, c, ok});
        }
        if (ok) {
          reserved = c;
          break;
        }
      }
    }
    if (reserved == kInvalidId) {
      fault_session_->NoteDegraded();
      Decision rejected = Decision::Reject();
      rejected.attempted_outer = decision.attempted_outer;
      rejected.stats = decision.stats;
      decision = std::move(rejected);
    } else {
      decision.worker = reserved;
    }
  }

  if (decision.attempted_outer) ++pm.outer_offers;

  if (decision.kind == Decision::Kind::kReject) {
    ++pm.rejected;
    if (collect_) {
      counters_[static_cast<size_t>(r.platform)].rejects->Inc();
    }
    const fault::RequestFaultInfo finfo =
        fault_session_.has_value() ? fault_session_->TakeRequestInfo()
                                   : fault::RequestFaultInfo{};
    if (record != nullptr) {
      record->outcome = static_cast<int8_t>(Decision::Kind::kReject);
      record->worker = kInvalidId;
      record->fault = finfo;
    }
    if (config_.trace != nullptr) {
      obs::TraceEvent ev = MakeTraceEvent(decision_seq_++, r, decision);
      ev.outcome = "reject";
      ev.latency_ns = decide_nanos;
      ev.fault_retries = finfo.retries;
      ev.fault_failed_partners = finfo.failed_partners;
      ev.fault_reserve_conflicts = finfo.reserve_conflicts;
      ev.degraded = finfo.degraded;
      config_.trace->Record(ev);
    }
    return Status::OK();
  }

  // Validate and apply the decision.
  const WorkerId wid = decision.worker;
  if (wid < 0 || wid >= static_cast<WorkerId>(instance_->workers().size())) {
    return Status::Internal(
        StrFormat("%s returned invalid worker id", matcher->name().c_str()));
  }
  if (!pool_->IsAvailable(wid)) {
    return Status::Internal(StrFormat("%s assigned an occupied worker",
                                      matcher->name().c_str()));
  }
  const Worker& w = instance_->worker(wid);
  const bool is_outer = w.platform != r.platform;
  if ((decision.kind == Decision::Kind::kOuter) != is_outer) {
    return Status::Internal(
        StrFormat("%s mislabelled inner/outer for worker %lld",
                  matcher->name().c_str(), static_cast<long long>(wid)));
  }
  const double pickup_km =
      metric_->Distance(pool_->CurrentLocation(wid), r.location);
  if (pickup_km > w.radius + 1e-9) {
    return Status::Internal(
        StrFormat("%s violated the range constraint (%.3f > %.3f)",
                  matcher->name().c_str(), pickup_km, w.radius));
  }
  if (pool_->AvailableSince(wid) > r.time) {
    return Status::Internal(
        StrFormat("%s violated the time constraint", matcher->name().c_str()));
  }

  Assignment a;
  a.request = r.id;
  a.worker = wid;
  a.is_outer = is_outer;
  if (is_outer) {
    const double payment = decision.outer_payment;
    if (!(payment > 0.0) || payment > r.value + 1e-9) {
      return Status::Internal(
          StrFormat("%s quoted outer payment %.4f outside (0, v=%.4f]",
                    matcher->name().c_str(), payment, r.value));
    }
    a.outer_payment = payment;
    a.revenue = r.value - payment;
    ++pm.completed_outer;
    pm.outer_payment_sum += payment;
    pm.payment_rate_sum += payment / r.value;
  } else {
    a.outer_payment = 0.0;
    a.revenue = r.value;
    ++pm.completed_inner;
  }
  ++pm.completed;
  pm.revenue += a.revenue;
  pm.total_pickup_km += pickup_km;
  result_.matching.Add(a);

  if (collect_) {
    const PlatformCounters& pc = counters_[static_cast<size_t>(r.platform)];
    (is_outer ? pc.outer : pc.inner)->Inc();
  }
  const fault::RequestFaultInfo finfo =
      fault_session_.has_value() ? fault_session_->TakeRequestInfo()
                                 : fault::RequestFaultInfo{};
  if (record != nullptr) {
    record->outcome = static_cast<int8_t>(decision.kind);
    record->worker = wid;
    record->payment = a.outer_payment;
    record->revenue = a.revenue;
    record->pickup_km = pickup_km;
    record->fault = finfo;
  }
  if (config_.trace != nullptr) {
    obs::TraceEvent ev = MakeTraceEvent(decision_seq_++, r, decision);
    ev.outcome = is_outer ? "outer" : "inner";
    ev.worker = wid;
    ev.payment = a.outer_payment;
    ev.revenue = a.revenue;
    ev.latency_ns = decide_nanos;
    ev.fault_retries = finfo.retries;
    ev.fault_failed_partners = finfo.failed_partners;
    ev.fault_reserve_conflicts = finfo.reserve_conflicts;
    ev.degraded = finfo.degraded;
    config_.trace->Record(ev);
  }

  {
    COMX_SPAN("pool_commit");
    COMX_RETURN_IF_ERROR(pool_->MarkOccupied(wid));
    pool_meter_.Release(kPoolEntryBytes);
    --available_workers_;
    if (pool_gauge_ != nullptr) {
      pool_gauge_->Set(static_cast<double>(available_workers_));
    }

    if (config_.workers_recycle) {
      const double duration =
          ServiceDurationSeconds(config_, pickup_km, r.value);
      Event rearrival;
      rearrival.time = r.time + duration;
      rearrival.kind = EventKind::kWorkerArrival;
      rearrival.entity_id = wid;
      rearrival.sequence = dynamic_sequence_++;
      drop_off_[static_cast<size_t>(wid)] = r.location;
      dynamic_events_.push_back(rearrival);
      std::push_heap(dynamic_events_.begin(), dynamic_events_.end(),
                     EventGreater{});
    }
  }
  return Status::OK();
}

SimResult SimEngine::Finish() {
  if (fault_session_.has_value()) {
    result_.fault_stats = fault_session_->stats();
    fault_session_->PublishMetrics();
  }

  result_.metrics.logical_bytes =
      InstanceLogicalBytes(*instance_) + pool_meter_.peak_bytes();
  result_.metrics.rss_bytes = CurrentRssBytes();
  result_.metrics.wall_seconds = wall_.ElapsedNanos() / 1e9;
  if (config_.measure_response_time) {
    result_.metrics.decision_latency = decision_latency_.Snapshot();
  }

  if (config_.trace != nullptr) {
    obs::TraceSummary summary;
    summary.events_written = decision_seq_;
    summary.assignments =
        static_cast<int64_t>(result_.matching.assignments.size());
    summary.platform_revenue.reserve(result_.metrics.per_platform.size());
    // Accumulate the grand total in platform order, matching both
    // SimMetrics::TotalRevenue() and the replay in obs/trace.cc, so the
    // recorded and re-derived totals are bit-identical.
    double total = 0.0;
    for (const PlatformMetrics& p : result_.metrics.per_platform) {
      summary.platform_revenue.push_back(p.revenue);
      total += p.revenue;
    }
    summary.total_revenue = total;
    // Latency block: mirrors the per-event latency_ns values exactly (same
    // observations, same bucketing), which CheckTraceLatency() verifies.
    const obs::LatencySnapshot& lat = result_.metrics.decision_latency;
    if (lat.count > 0) {
      summary.latency_count = lat.count;
      summary.latency_sum_ns = lat.sum_nanos;
      summary.latency_max_ns = lat.max_nanos;
      summary.latency_buckets = lat.NonZeroBuckets();
    }
    config_.trace->Summary(summary);
  }
  return std::move(result_);
}

double SimEngine::TotalRevenueSoFar() const {
  double total = 0.0;
  for (const PlatformMetrics& p : result_.metrics.per_platform) {
    total += p.revenue;
  }
  return total;
}

Status SimEngine::SaveState(ByteWriter* out) const {
  if (config_.batch_mode) {
    return Status::FailedPrecondition(
        "SaveState is not supported in batch mode: open windows and the "
        "warm-started window solver are not serialized");
  }
  if (config_.measure_response_time) {
    return Status::FailedPrecondition(
        "SaveState requires measure_response_time off: the latency "
        "histogram is wall-clock noise, not durable state");
  }
  out->U32(kEngineStateVersion);
  out->I64(step_index_);
  out->U64(static_cast<uint64_t>(cursor_));
  out->I64(dynamic_sequence_);
  out->I64(decision_seq_);
  out->I64(available_workers_);
  out->I64(pool_meter_.live_bytes());
  out->I64(pool_meter_.peak_bytes());

  out->U64(static_cast<uint64_t>(dynamic_events_.size()));
  for (const Event& e : dynamic_events_) {
    out->F64(e.time);
    out->I64(e.entity_id);
    out->I64(e.sequence);
  }
  out->U64(static_cast<uint64_t>(drop_off_.size()));
  for (const Point& p : drop_off_) {
    out->F64(p.x);
    out->F64(p.y);
  }

  // Pool availability: id, current location, available-since for every
  // available worker. Occupied workers carry no live state the simulation
  // ever reads again (their next OnArrival overwrites everything), so
  // replaying these arrivals into a fresh pool rebuilds the grid index and
  // SoA mirror exactly.
  const kernels::WorkerSoA& soa = pool_->soa();
  uint64_t avail = 0;
  for (size_t w = 0; w < soa.size(); ++w) {
    if (soa.available()[w] != 0) ++avail;
  }
  out->U64(avail);
  for (size_t w = 0; w < soa.size(); ++w) {
    if (soa.available()[w] == 0) continue;
    out->I64(static_cast<int64_t>(w));
    out->F64(soa.x()[w]);
    out->F64(soa.y()[w]);
    out->F64(soa.available_since()[w]);
  }

  out->U64(static_cast<uint64_t>(result_.metrics.per_platform.size()));
  for (const PlatformMetrics& pm : result_.metrics.per_platform) {
    out->F64(pm.revenue);
    out->I64(pm.completed);
    out->I64(pm.completed_inner);
    out->I64(pm.completed_outer);
    out->I64(pm.rejected);
    out->I64(pm.outer_offers);
    out->F64(pm.outer_payment_sum);
    out->F64(pm.payment_rate_sum);
    out->F64(pm.total_pickup_km);
    WriteStats(pm.response_time_us, out);
  }

  out->U64(static_cast<uint64_t>(result_.matching.assignments.size()));
  for (const Assignment& a : result_.matching.assignments) {
    out->I64(a.request);
    out->I64(a.worker);
    out->Bool(a.is_outer);
    out->F64(a.outer_payment);
    out->F64(a.revenue);
  }
  out->F64(result_.matching.total_revenue);

  for (OnlineMatcher* m : matchers_) {
    ByteWriter blob;
    COMX_RETURN_IF_ERROR(m->SaveState(&blob));
    out->Str(blob.str());
  }

  out->Bool(fault_session_.has_value());
  if (fault_session_.has_value()) {
    fault_session_->SaveState(out);
  }
  return Status::OK();
}

Status SimEngine::RestoreState(ByteReader* in) {
  uint32_t version;
  COMX_RETURN_IF_ERROR(in->U32(&version));
  if (version != kEngineStateVersion) {
    return Status::DataLoss(
        StrFormat("engine state version %u, expected %u", version,
                  kEngineStateVersion));
  }
  COMX_RETURN_IF_ERROR(in->I64(&step_index_));
  uint64_t cursor;
  COMX_RETURN_IF_ERROR(in->U64(&cursor));
  if (cursor > static_events_.size()) {
    return Status::DataLoss("engine state: cursor past the static stream");
  }
  cursor_ = static_cast<size_t>(cursor);
  COMX_RETURN_IF_ERROR(in->I64(&dynamic_sequence_));
  COMX_RETURN_IF_ERROR(in->I64(&decision_seq_));
  COMX_RETURN_IF_ERROR(in->I64(&available_workers_));
  int64_t live_bytes, peak_bytes;
  COMX_RETURN_IF_ERROR(in->I64(&live_bytes));
  COMX_RETURN_IF_ERROR(in->I64(&peak_bytes));
  pool_meter_.Reset();
  pool_meter_.Allocate(peak_bytes);
  pool_meter_.Release(peak_bytes - live_bytes);

  uint64_t n;
  COMX_RETURN_IF_ERROR(in->U64(&n));
  dynamic_events_.clear();
  dynamic_events_.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Event e;
    e.kind = EventKind::kWorkerArrival;
    COMX_RETURN_IF_ERROR(in->F64(&e.time));
    COMX_RETURN_IF_ERROR(in->I64(&e.entity_id));
    COMX_RETURN_IF_ERROR(in->I64(&e.sequence));
    dynamic_events_.push_back(e);
  }

  COMX_RETURN_IF_ERROR(in->U64(&n));
  if (n != drop_off_.size()) {
    return Status::DataLoss("engine state: drop-off table size mismatch");
  }
  for (Point& p : drop_off_) {
    COMX_RETURN_IF_ERROR(in->F64(&p.x));
    COMX_RETURN_IF_ERROR(in->F64(&p.y));
  }

  // Rebuild the pool from scratch by replaying the availability set, then
  // re-point the platform views at the fresh pool.
  pool_.emplace(*instance_, metric_);
  COMX_RETURN_IF_ERROR(in->U64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t w;
    double x, y, since;
    COMX_RETURN_IF_ERROR(in->I64(&w));
    COMX_RETURN_IF_ERROR(in->F64(&x));
    COMX_RETURN_IF_ERROR(in->F64(&y));
    COMX_RETURN_IF_ERROR(in->F64(&since));
    COMX_RETURN_IF_ERROR(pool_->OnArrival(w, Point(x, y), since));
  }

  COMX_RETURN_IF_ERROR(in->U64(&n));
  if (n != result_.metrics.per_platform.size()) {
    return Status::DataLoss("engine state: platform count mismatch");
  }
  for (PlatformMetrics& pm : result_.metrics.per_platform) {
    COMX_RETURN_IF_ERROR(in->F64(&pm.revenue));
    COMX_RETURN_IF_ERROR(in->I64(&pm.completed));
    COMX_RETURN_IF_ERROR(in->I64(&pm.completed_inner));
    COMX_RETURN_IF_ERROR(in->I64(&pm.completed_outer));
    COMX_RETURN_IF_ERROR(in->I64(&pm.rejected));
    COMX_RETURN_IF_ERROR(in->I64(&pm.outer_offers));
    COMX_RETURN_IF_ERROR(in->F64(&pm.outer_payment_sum));
    COMX_RETURN_IF_ERROR(in->F64(&pm.payment_rate_sum));
    COMX_RETURN_IF_ERROR(in->F64(&pm.total_pickup_km));
    COMX_RETURN_IF_ERROR(ReadStats(in, &pm.response_time_us));
  }

  COMX_RETURN_IF_ERROR(in->U64(&n));
  result_.matching = Matching{};
  result_.matching.assignments.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Assignment a;
    COMX_RETURN_IF_ERROR(in->I64(&a.request));
    COMX_RETURN_IF_ERROR(in->I64(&a.worker));
    COMX_RETURN_IF_ERROR(in->Bool(&a.is_outer));
    COMX_RETURN_IF_ERROR(in->F64(&a.outer_payment));
    COMX_RETURN_IF_ERROR(in->F64(&a.revenue));
    result_.matching.assignments.push_back(a);
  }
  COMX_RETURN_IF_ERROR(in->F64(&result_.matching.total_revenue));

  for (OnlineMatcher* m : matchers_) {
    std::string blob;
    COMX_RETURN_IF_ERROR(in->Str(&blob));
    ByteReader blob_reader(blob);
    COMX_RETURN_IF_ERROR(m->RestoreState(&blob_reader));
    if (!blob_reader.AtEnd()) {
      return Status::DataLoss(
          StrFormat("%s state blob has %zu trailing bytes",
                    m->name().c_str(), blob_reader.Remaining()));
    }
  }

  bool has_fault;
  COMX_RETURN_IF_ERROR(in->Bool(&has_fault));
  if (has_fault != fault_session_.has_value()) {
    return Status::DataLoss("engine state: fault-session presence mismatch");
  }
  if (has_fault) {
    COMX_RETURN_IF_ERROR(fault_session_->RestoreState(in));
  }
  BuildViews();
  return Status::OK();
}

uint64_t SimEngine::StateDigest() const {
  ByteWriter w;
  w.I64(step_index_);
  w.I64(decision_seq_);
  w.I64(dynamic_sequence_);
  w.I64(available_workers_);
  w.F64(result_.matching.total_revenue);
  for (const PlatformMetrics& pm : result_.metrics.per_platform) {
    w.F64(pm.revenue);
    w.I64(pm.completed);
    w.I64(pm.rejected);
  }
  for (OnlineMatcher* m : matchers_) {
    ByteWriter blob;
    if (m->SaveState(&blob).ok()) w.Str(blob.str());
  }
  if (fault_session_.has_value()) {
    fault_session_->SaveState(&w);
  }
  return Crc32c(w.str());
}

}  // namespace comx
