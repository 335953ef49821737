#include "recovery/durable_sim.h"

#include <sys/stat.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/metrics_registry.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace comx {
namespace recovery {
namespace {

WalRecord RunEnd(const SimEngine& engine) {
  WalRecord rec;
  rec.type = WalRecordType::kRunEnd;
  rec.step = engine.step_index();
  rec.total_revenue = engine.TotalRevenueSoFar();
  rec.assignments = engine.AssignmentsSoFar();
  return rec;
}

/// A breaker's (state, transitions), the unit of its WAL records.
std::pair<uint8_t, int64_t> StateAndTransitions(
    const fault::CircuitBreaker& breaker) {
  const fault::CircuitBreaker::Snapshot snap = breaker.Save();
  return {static_cast<uint8_t>(snap.state), snap.transitions};
}

int64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : -1;
}

/// Steps `engine` from where `run` left it to completion, journaling every
/// step, then finishes both. `status` is the outcome of Start or Recover.
Result<DurableOutcome> RunToCompletion(DurableRun* run, Status status,
                                       SimEngine* engine) {
  DurableOutcome out;
  StepRecord step;
  while (status.ok() && !engine->Done()) {
    status = engine->Step(&step);
    if (status.ok()) status = run->Journal(*engine, step);
  }
  if (status.ok()) {
    Result<SimResult> result = run->Finish(engine);
    status = result.status();
    if (result.ok()) out.result = std::move(result).value();
  }
  out.stats = run->stats();
  if (!status.ok()) {
    if (!run->Crashed(status)) return status;
    out.crashed = true;
  }
  return out;
}

}  // namespace

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

uint64_t InstanceDigest(const Instance& instance) {
  uint32_t crc = 0;
  ByteWriter w;
  auto drain = [&]() {
    crc = Crc32cExtend(crc, w.str().data(), w.size());
    w.Clear();
  };
  w.U64(static_cast<uint64_t>(instance.workers().size()));
  w.U64(static_cast<uint64_t>(instance.requests().size()));
  w.U64(static_cast<uint64_t>(instance.events().size()));
  for (const Worker& worker : instance.workers()) {
    w.I64(worker.id);
    w.I32(worker.platform);
    w.F64(worker.time);
    w.F64(worker.location.x);
    w.F64(worker.location.y);
    w.F64(worker.radius);
    w.U64(static_cast<uint64_t>(worker.history.size()));
    for (double h : worker.history) w.F64(h);
    if (w.size() > (1u << 20)) drain();
  }
  for (const Request& request : instance.requests()) {
    w.I64(request.id);
    w.I32(request.platform);
    w.F64(request.time);
    w.F64(request.location.x);
    w.F64(request.location.y);
    w.F64(request.value);
    if (w.size() > (1u << 20)) drain();
  }
  for (const Event& e : instance.events()) {
    w.F64(e.time);
    w.U8(static_cast<uint8_t>(e.kind));
    w.I64(e.entity_id);
    w.I64(e.sequence);
    if (w.size() > (1u << 20)) drain();
  }
  drain();
  return crc;
}

uint64_t SimConfigDigest(const SimConfig& config) {
  ByteWriter w;
  w.Bool(config.workers_recycle);
  w.F64(config.speed_kmh);
  w.F64(config.base_service_seconds);
  w.F64(config.service_seconds_per_value);
  w.Bool(config.measure_response_time);
  w.U8(static_cast<uint8_t>(config.acceptance_mode));
  w.U64(config.reservation_seed);
  w.Bool(config.metric != nullptr);
  w.Bool(config.fault_plan != nullptr);
  return Crc32c(w.str().data(), w.size());
}

DurableRun::DurableRun(const Instance& instance, const SimConfig& config,
                       uint64_t seed, const DurableOptions& options)
    : instance_(&instance),
      config_(&config),
      options_(options),
      seed_(seed),
      instance_digest_(InstanceDigest(instance)),
      config_digest_(SimConfigDigest(config)) {}

Status DurableRun::Validate() const {
  if (options_.dir.empty()) {
    return Status::InvalidArgument("durable: options.dir is empty");
  }
  if (options_.keep_checkpoints < 1) {
    return Status::InvalidArgument("durable: keep_checkpoints must be >= 1");
  }
  if (config_->batch_mode) {
    return Status::InvalidArgument(
        "durable: batch mode cannot journal to a WAL (window enqueue and "
        "flush steps carry no per-request decision records)");
  }
  if (config_->measure_response_time) {
    return Status::FailedPrecondition(
        "durable: measure_response_time must be off (wall-clock latency is "
        "not durable state and would break bit-exact recovery)");
  }
  if (config_->trace != nullptr) {
    return Status::InvalidArgument(
        "durable: pass trace = nullptr; the decision trace is rebuilt from "
        "the WAL (RebuildTraceFromWal)");
  }
  return Status::OK();
}

bool DurableRun::Crashed(const Status& status) const {
  return !status.ok() && status.code() == StatusCode::kDataLoss &&
         options_.crash != nullptr && options_.crash->fired();
}

WalRecord DurableRun::RunBegin() const {
  WalRecord rec;
  rec.type = WalRecordType::kRunBegin;
  rec.seed = seed_;
  rec.platform_count = instance_->PlatformCount();
  rec.has_fault_plan = config_->fault_plan != nullptr;
  rec.instance_digest = instance_digest_;
  rec.config_digest = config_digest_;
  return rec;
}

Status DurableRun::CreateLog() {
  COMX_ASSIGN_OR_RETURN(
      wal_, WalWriter::Create(WalPath(options_.dir), options_.wal,
                              options_.crash));
  WalRecord begin = RunBegin();
  return wal_->Append(&begin);
}

void DurableRun::BuildStepRecords(const SimEngine& engine,
                                  const StepRecord& step) {
  records_.clear();
  const bool decision = step.kind == StepRecord::Kind::kDecision;
  if (decision && engine.fault_session() != nullptr) {
    for (const auto& [key, breaker] : engine.fault_session()->breakers()) {
      const std::pair<uint8_t, int64_t> now = StateAndTransitions(breaker);
      const auto [it, inserted] = breaker_seen_.try_emplace(key, now);
      if (!inserted && it->second == now) continue;
      it->second = now;
      WalRecord rec;
      rec.type = WalRecordType::kBreakerState;
      rec.step = step.step;
      rec.observer = key.first;
      rec.partner = key.second;
      rec.breaker_state = now.first;
      rec.transitions = now.second;
      records_.push_back(std::move(rec));
    }
    for (const StepReserveEvent& ev : step.reserves) {
      WalRecord rec;
      rec.type = ev.reserved ? WalRecordType::kOuterReserve
                             : WalRecordType::kOuterConflict;
      rec.step = step.step;
      rec.request = step.request;
      rec.observer = step.platform;
      rec.partner = ev.partner;
      rec.worker = ev.worker;
      records_.push_back(std::move(rec));
    }
    if (step.outcome == static_cast<int8_t>(Decision::Kind::kOuter)) {
      WalRecord rec;
      rec.type = WalRecordType::kOuterConfirm;
      rec.step = step.step;
      rec.request = step.request;
      rec.observer = step.platform;
      rec.partner = instance_->worker(step.worker).platform;
      rec.worker = step.worker;
      records_.push_back(std::move(rec));
    }
  }
  WalRecord rec;
  rec.type = decision ? WalRecordType::kDecision : WalRecordType::kArrival;
  rec.step = step.step;
  rec.step_record = step;
  rec.step_record.reserves.clear();
  if (decision) rec.state_digest = engine.StateDigest();
  records_.push_back(std::move(rec));
}

Status DurableRun::Start(const SimEngine& engine) {
  COMX_RETURN_IF_ERROR(Validate());
  if (options_.checkpoint_every_steps > 0) {
    // Surface matchers without state capture before any work happens.
    ByteWriter probe;
    COMX_RETURN_IF_ERROR(engine.SaveState(&probe));
  }
  return CreateLog();
}

Status DurableRun::Recover(SimEngine* engine) {
  COMX_RETURN_IF_ERROR(Validate());

  CheckpointPick pick;
  COMX_ASSIGN_OR_RETURN(pick, FindLatestValidCheckpoint(options_.dir));
  stats_.checkpoint_fallbacks = pick.fallbacks;

  WalScan scan;
  COMX_ASSIGN_OR_RETURN(scan, ScanWal(WalPath(options_.dir)));
  stats_.torn_tail = scan.torn_tail;
  stats_.discarded_bytes = scan.file_bytes - scan.boundary_bytes;
  stats_.inflight_reserves_resolved = scan.dangling_reserves;

  if (scan.torn_header && pick.best.has_value()) {
    return Status::DataLoss(
        "recovery: a checkpoint exists but the WAL header is gone — "
        "refusing to resynthesize a log with missing history");
  }

  if (scan.boundary_records > 0) {
    const WalRecord& first = scan.records.front();
    if (first.type != WalRecordType::kRunBegin || first.seed != seed_ ||
        first.instance_digest != instance_digest_ ||
        first.config_digest != config_digest_) {
      return Status::DataLoss(
          "recovery: WAL belongs to a different run (seed/instance/config "
          "mismatch)");
    }
  }
  uint64_t replay_from = 0;
  if (pick.best.has_value()) {
    const CheckpointMeta& meta = pick.best->meta;
    if (meta.seed != seed_ || meta.instance_digest != instance_digest_ ||
        meta.config_digest != config_digest_) {
      return Status::DataLoss(
          "recovery: checkpoint belongs to a different run");
    }
    ByteReader state(pick.best->state);
    COMX_RETURN_IF_ERROR(engine->RestoreState(&state));
    if (!state.AtEnd()) {
      return Status::DataLoss("recovery: checkpoint state has trailing bytes");
    }
    replay_from = meta.next_lsn;
    generation_ = meta.generation;
    stats_.recovered_generation = generation_;
  }
  if (replay_from > scan.boundary_records) {
    return Status::DataLoss(StrFormat(
        "recovery: checkpoint claims %llu durable records but the WAL "
        "holds %zu — the log was damaged behind the checkpoint",
        static_cast<unsigned long long>(replay_from), scan.boundary_records));
  }

  // Verification list: durable records past the checkpoint, informational
  // marks excluded (they shift LSNs but carry no simulation state).
  std::vector<size_t> verify;
  verify.reserve(scan.boundary_records - static_cast<size_t>(replay_from));
  for (size_t i = static_cast<size_t>(replay_from); i < scan.boundary_records;
       ++i) {
    const WalRecord& rec = scan.records[i];
    if (rec.type == WalRecordType::kCheckpointMark) {
      generation_ = std::max(generation_, rec.generation);
      continue;
    }
    if (rec.type == WalRecordType::kRecoveryMark) continue;
    verify.push_back(i);
  }

  // Re-execute and byte-verify against the durable records.
  if (engine->fault_session() != nullptr) {
    for (const auto& [key, breaker] : engine->fault_session()->breakers()) {
      breaker_seen_[key] = StateAndTransitions(breaker);
    }
  }
  {
    COMX_SPAN("wal_replay");
    size_t vi = 0;
    auto verify_one = [&](const WalRecord& regenerated) -> Status {
      const WalRecord& durable = scan.records[verify[vi]];
      if (EncodeWalPayload(regenerated, /*for_compare=*/true) !=
          EncodeWalPayload(durable, /*for_compare=*/true)) {
        return Status::DataLoss(StrFormat(
            "recovery-bit-exact violation at lsn %llu: regenerated %s "
            "record differs from the durable one",
            static_cast<unsigned long long>(durable.lsn),
            WalRecordTypeName(regenerated.type)));
      }
      ++vi;
      ++stats_.replayed_records;
      return Status::OK();
    };
    if (replay_from == 0 && !verify.empty()) {
      COMX_RETURN_IF_ERROR(verify_one(RunBegin()));
    }
    StepRecord step;
    while (vi < verify.size()) {
      if (scan.records[verify[vi]].type == WalRecordType::kRunEnd) {
        if (!engine->Done()) {
          return Status::DataLoss(
              "recovery: WAL has run_end but re-execution is not done");
        }
        COMX_RETURN_IF_ERROR(verify_one(RunEnd(*engine)));
        ended_ = true;
        break;
      }
      if (engine->Done()) {
        return Status::DataLoss(
            "recovery: re-execution finished before the durable WAL did");
      }
      COMX_RETURN_IF_ERROR(engine->Step(&step));
      BuildStepRecords(*engine, step);
      for (const WalRecord& rec : records_) {
        if (vi >= verify.size()) {
          return Status::DataLoss(
              "recovery-bit-exact violation: re-execution generated more "
              "records than the durable WAL holds for its final step");
        }
        COMX_RETURN_IF_ERROR(verify_one(rec));
      }
    }
  }

  // Truncate the torn / mid-step tail and resume appending.
  Status status;
  if (scan.torn_header || scan.boundary_records == 0) {
    // Nothing durable — the header is gone, or the crash tore the very
    // first frame so not even kRunBegin survived (a checkpoint cannot
    // coexist with either state: the next_lsn bound above rejects it).
    // Rebuild the log from scratch.
    status = CreateLog();
    if (wal_ == nullptr) return status;
  } else {
    COMX_ASSIGN_OR_RETURN(
        wal_, WalWriter::OpenForAppend(
                  WalPath(options_.dir), options_.wal, scan.boundary_bytes,
                  static_cast<uint64_t>(scan.boundary_records),
                  options_.crash));
  }
  if (status.ok()) {
    WalRecord mark;
    mark.type = WalRecordType::kRecoveryMark;
    mark.resumed_step = engine->step_index();
    mark.inflight_reserves = scan.dangling_reserves;
    status = wal_->Append(&mark);
  }

  if (obs::CollectionEnabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry
        .GetCounter("comx_recovery_replayed_records_total",
                    "Durable WAL records verified by recovery re-execution")
        ->Inc(stats_.replayed_records);
    registry
        .GetCounter("comx_recovery_inflight_reserves_resolved_total",
                    "Dangling two-phase reserves re-resolved after a crash")
        ->Inc(stats_.inflight_reserves_resolved);
    registry
        .GetCounter("comx_recovery_runs_total", "Recovery attempts completed")
        ->Inc();
  }
  return status;
}

Status DurableRun::Journal(const SimEngine& engine, const StepRecord& step) {
  BuildStepRecords(engine, step);
  for (WalRecord& rec : records_) {
    COMX_RETURN_IF_ERROR(wal_->Append(&rec));
  }
  if (options_.checkpoint_every_steps > 0 &&
      engine.step_index() % options_.checkpoint_every_steps == 0) {
    return Checkpoint(engine);
  }
  return Status::OK();
}

Status DurableRun::Checkpoint(const SimEngine& engine) {
  // WAL first: a checkpoint may only ever claim durable records.
  COMX_RETURN_IF_ERROR(wal_->Commit());
  ByteWriter state;
  COMX_RETURN_IF_ERROR(engine.SaveState(&state));
  CheckpointMeta meta;
  meta.generation = generation_ + 1;
  meta.next_lsn = wal_->next_lsn();
  meta.wal_bytes = wal_->durable_bytes();
  meta.step_index = engine.step_index();
  meta.seed = seed_;
  meta.instance_digest = instance_digest_;
  meta.config_digest = config_digest_;
  COMX_RETURN_IF_ERROR(
      WriteCheckpoint(options_.dir, meta, state.str(), options_.crash));
  generation_ = meta.generation;
  ++stats_.checkpoints;
  stats_.checkpoint_spans.push_back(CrashProfile::CheckpointSpan{
      meta.generation,
      FileBytes(CheckpointPath(options_.dir, meta.generation))});
  WalRecord mark;
  mark.type = WalRecordType::kCheckpointMark;
  mark.step = engine.step_index();
  mark.generation = meta.generation;
  COMX_RETURN_IF_ERROR(wal_->Append(&mark));
  return RemoveOldCheckpoints(options_.dir, options_.keep_checkpoints);
}

Status DurableRun::Flush() { return wal_->Flush(); }

Result<SimResult> DurableRun::Finish(SimEngine* engine) {
  if (!ended_) {
    WalRecord end = RunEnd(*engine);
    COMX_RETURN_IF_ERROR(wal_->Append(&end));
  }
  COMX_RETURN_IF_ERROR(wal_->Close());
  return engine->Finish();
}

DurableRunStats DurableRun::stats() const {
  DurableRunStats stats = stats_;
  if (wal_ != nullptr) {
    stats.wal_records = wal_->records_appended();
    stats.wal_commits = wal_->commits();
    stats.wal_bytes = wal_->durable_bytes();
    stats.wal_commit_offsets = wal_->commit_offsets();
  }
  return stats;
}

Result<DurableOutcome> RunDurableSimulation(
    const Instance& instance, const std::vector<OnlineMatcher*>& matchers,
    const SimConfig& config, uint64_t seed, const DurableOptions& options) {
  SimEngine engine;
  COMX_RETURN_IF_ERROR(engine.Init(instance, matchers, config, seed));
  DurableRun run(instance, config, seed, options);
  return RunToCompletion(&run, run.Start(engine), &engine);
}

Result<DurableOutcome> RecoverAndResume(
    const Instance& instance, const std::vector<OnlineMatcher*>& matchers,
    const SimConfig& config, uint64_t seed, const DurableOptions& options) {
  SimEngine engine;
  COMX_RETURN_IF_ERROR(engine.Init(instance, matchers, config, seed));
  DurableRun run(instance, config, seed, options);
  return RunToCompletion(&run, run.Recover(&engine), &engine);
}

Status RebuildTraceFromWal(const std::string& wal_path,
                           const std::string& trace_path) {
  WalScan scan;
  COMX_ASSIGN_OR_RETURN(scan, ScanWal(wal_path));
  if (scan.boundary_records == 0 ||
      scan.records.front().type != WalRecordType::kRunBegin) {
    return Status::InvalidArgument(
        "trace rebuild: WAL has no run_begin record");
  }
  const int32_t platform_count = scan.records.front().platform_count;
  if (platform_count <= 0) {
    return Status::DataLoss("trace rebuild: run_begin has no platforms");
  }

  std::unique_ptr<obs::JsonlTraceWriter> writer;
  obs::JsonlTraceWriter::Options trace_options;
  trace_options.max_events = 0;  // unbounded: the WAL already bounded it
  COMX_ASSIGN_OR_RETURN(writer,
                        obs::JsonlTraceWriter::Open(trace_path, trace_options));

  std::vector<double> platform_revenue(static_cast<size_t>(platform_count),
                                       0.0);
  int64_t seq = 0;
  int64_t assignments = 0;
  for (size_t i = 0; i < scan.boundary_records; ++i) {
    const WalRecord& rec = scan.records[i];
    if (rec.type != WalRecordType::kDecision) continue;
    const StepRecord& sr = rec.step_record;
    obs::TraceEvent ev;
    ev.seq = seq++;
    ev.time = sr.time;
    ev.platform = sr.platform;
    ev.request = sr.request;
    ev.value = sr.value;
    ev.inner_candidates = sr.stats.inner_candidates;
    ev.outer_candidates = sr.stats.outer_candidates;
    ev.priced_candidates = sr.stats.priced_candidates;
    ev.accepting = sr.stats.accepting;
    ev.bisect_iterations = sr.stats.bisect_iterations;
    ev.estimator_samples = sr.stats.estimator_samples;
    ev.estimated_payment = sr.stats.estimated_payment;
    ev.fault_retries = sr.fault.retries;
    ev.fault_failed_partners = sr.fault.failed_partners;
    ev.fault_reserve_conflicts = sr.fault.reserve_conflicts;
    ev.degraded = sr.fault.degraded;
    ev.latency_ns = -1;
    if (sr.outcome == static_cast<int8_t>(Decision::Kind::kReject)) {
      ev.outcome = "reject";
    } else {
      const bool outer =
          sr.outcome == static_cast<int8_t>(Decision::Kind::kOuter);
      ev.outcome = outer ? "outer" : "inner";
      ev.worker = sr.worker;
      ev.payment = sr.payment;
      ev.revenue = sr.revenue;
      if (sr.platform < 0 || sr.platform >= platform_count) {
        return Status::DataLoss(
            StrFormat("trace rebuild: decision for platform %d outside the "
                      "run's %d platforms",
                      sr.platform, platform_count));
      }
      // Same per-platform, decision-order accumulation as the engine, so
      // the rebuilt summary total is bit-identical.
      platform_revenue[static_cast<size_t>(sr.platform)] += sr.revenue;
      ++assignments;
    }
    writer->Record(ev);
  }
  obs::TraceSummary summary;
  summary.events_written = seq;
  summary.assignments = assignments;
  summary.platform_revenue = platform_revenue;
  double total = 0.0;
  for (double r : platform_revenue) total += r;
  summary.total_revenue = total;
  writer->Summary(summary);
  return writer->Close();
}

}  // namespace recovery
}  // namespace comx
