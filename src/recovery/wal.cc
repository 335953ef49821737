#include "recovery/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics_registry.h"
#include "obs/span.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace comx {
namespace recovery {
namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::IoError(
      StrFormat("wal: %s %s: %s", what.c_str(), path.c_str(),
                std::strerror(errno)));
}

void EncodeStepRecord(const StepRecord& r, ByteWriter* w) {
  w->I64(r.step);
  w->U8(static_cast<uint8_t>(r.kind));
  w->I64(r.worker);
  w->F64(r.x);
  w->F64(r.y);
  w->F64(r.time);
  w->Bool(r.rearrival);
  w->I64(r.request);
  w->I32(r.platform);
  w->U8(static_cast<uint8_t>(r.outcome));
  w->F64(r.value);
  w->F64(r.payment);
  w->F64(r.revenue);
  w->F64(r.pickup_km);
  w->I32(r.stats.inner_candidates);
  w->I32(r.stats.outer_candidates);
  w->I32(r.stats.priced_candidates);
  w->I32(r.stats.accepting);
  w->I64(r.stats.bisect_iterations);
  w->I32(r.stats.estimator_samples);
  w->F64(r.stats.estimated_payment);
  w->I32(r.fault.retries);
  w->I32(r.fault.failed_partners);
  w->I32(r.fault.reserve_conflicts);
  w->Bool(r.fault.degraded);
}

Status DecodeStepRecord(ByteReader* in, StepRecord* r) {
  COMX_RETURN_IF_ERROR(in->I64(&r->step));
  uint8_t kind;
  COMX_RETURN_IF_ERROR(in->U8(&kind));
  r->kind = static_cast<StepRecord::Kind>(kind);
  COMX_RETURN_IF_ERROR(in->I64(&r->worker));
  COMX_RETURN_IF_ERROR(in->F64(&r->x));
  COMX_RETURN_IF_ERROR(in->F64(&r->y));
  COMX_RETURN_IF_ERROR(in->F64(&r->time));
  COMX_RETURN_IF_ERROR(in->Bool(&r->rearrival));
  COMX_RETURN_IF_ERROR(in->I64(&r->request));
  COMX_RETURN_IF_ERROR(in->I32(&r->platform));
  uint8_t outcome;
  COMX_RETURN_IF_ERROR(in->U8(&outcome));
  r->outcome = static_cast<int8_t>(outcome);
  COMX_RETURN_IF_ERROR(in->F64(&r->value));
  COMX_RETURN_IF_ERROR(in->F64(&r->payment));
  COMX_RETURN_IF_ERROR(in->F64(&r->revenue));
  COMX_RETURN_IF_ERROR(in->F64(&r->pickup_km));
  COMX_RETURN_IF_ERROR(in->I32(&r->stats.inner_candidates));
  COMX_RETURN_IF_ERROR(in->I32(&r->stats.outer_candidates));
  COMX_RETURN_IF_ERROR(in->I32(&r->stats.priced_candidates));
  COMX_RETURN_IF_ERROR(in->I32(&r->stats.accepting));
  COMX_RETURN_IF_ERROR(in->I64(&r->stats.bisect_iterations));
  COMX_RETURN_IF_ERROR(in->I32(&r->stats.estimator_samples));
  COMX_RETURN_IF_ERROR(in->F64(&r->stats.estimated_payment));
  COMX_RETURN_IF_ERROR(in->I32(&r->fault.retries));
  COMX_RETURN_IF_ERROR(in->I32(&r->fault.failed_partners));
  COMX_RETURN_IF_ERROR(in->I32(&r->fault.reserve_conflicts));
  COMX_RETURN_IF_ERROR(in->Bool(&r->fault.degraded));
  return Status::OK();
}

void CountMetric(const char* name, const char* help, int64_t n) {
  if (!obs::CollectionEnabled() || n == 0) return;
  obs::MetricsRegistry::Global().GetCounter(name, help)->Inc(n);
}

}  // namespace

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kRunBegin: return "run_begin";
    case WalRecordType::kArrival: return "arrival";
    case WalRecordType::kOuterReserve: return "outer_reserve";
    case WalRecordType::kOuterConflict: return "outer_conflict";
    case WalRecordType::kOuterConfirm: return "outer_confirm";
    case WalRecordType::kBreakerState: return "breaker_state";
    case WalRecordType::kDecision: return "decision";
    case WalRecordType::kCheckpointMark: return "checkpoint_mark";
    case WalRecordType::kRecoveryMark: return "recovery_mark";
    case WalRecordType::kRunEnd: return "run_end";
  }
  return "unknown";
}

bool IsStepBoundary(WalRecordType type) {
  switch (type) {
    case WalRecordType::kRunBegin:
    case WalRecordType::kArrival:
    case WalRecordType::kDecision:
    case WalRecordType::kCheckpointMark:
    case WalRecordType::kRecoveryMark:
    case WalRecordType::kRunEnd:
      return true;
    case WalRecordType::kOuterReserve:
    case WalRecordType::kOuterConflict:
    case WalRecordType::kOuterConfirm:
    case WalRecordType::kBreakerState:
      return false;
  }
  return false;
}

std::string EncodeWalPayload(const WalRecord& rec, bool for_compare) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(rec.type));
  w.U64(for_compare ? 0 : rec.lsn);
  switch (rec.type) {
    case WalRecordType::kRunBegin:
      w.U64(rec.seed);
      w.I32(rec.platform_count);
      w.Bool(rec.has_fault_plan);
      w.U64(rec.instance_digest);
      w.U64(rec.config_digest);
      break;
    case WalRecordType::kArrival:
      EncodeStepRecord(rec.step_record, &w);
      break;
    case WalRecordType::kOuterReserve:
    case WalRecordType::kOuterConflict:
    case WalRecordType::kOuterConfirm:
      w.I64(rec.step);
      w.I64(rec.request);
      w.I32(rec.observer);
      w.I32(rec.partner);
      w.I64(rec.worker);
      break;
    case WalRecordType::kBreakerState:
      w.I64(rec.step);
      w.I32(rec.observer);
      w.I32(rec.partner);
      w.U8(rec.breaker_state);
      w.I64(rec.transitions);
      break;
    case WalRecordType::kDecision:
      EncodeStepRecord(rec.step_record, &w);
      w.U64(rec.state_digest);
      break;
    case WalRecordType::kCheckpointMark:
      w.I64(rec.step);
      w.I64(rec.generation);
      break;
    case WalRecordType::kRecoveryMark:
      w.I64(rec.resumed_step);
      w.I64(rec.inflight_reserves);
      break;
    case WalRecordType::kRunEnd:
      w.I64(rec.step);
      w.F64(rec.total_revenue);
      w.I64(rec.assignments);
      break;
  }
  return w.Take();
}

namespace {

Status DecodeWalPayloadImpl(std::string_view payload, WalRecord* rec) {
  *rec = WalRecord();
  ByteReader in(payload);
  uint8_t type;
  COMX_RETURN_IF_ERROR(in.U8(&type));
  if (type < static_cast<uint8_t>(WalRecordType::kRunBegin) ||
      type > static_cast<uint8_t>(WalRecordType::kRunEnd)) {
    return Status::DataLoss(
        StrFormat("wal: unknown record type %d", static_cast<int>(type)));
  }
  rec->type = static_cast<WalRecordType>(type);
  COMX_RETURN_IF_ERROR(in.U64(&rec->lsn));
  switch (rec->type) {
    case WalRecordType::kRunBegin:
      COMX_RETURN_IF_ERROR(in.U64(&rec->seed));
      COMX_RETURN_IF_ERROR(in.I32(&rec->platform_count));
      COMX_RETURN_IF_ERROR(in.Bool(&rec->has_fault_plan));
      COMX_RETURN_IF_ERROR(in.U64(&rec->instance_digest));
      COMX_RETURN_IF_ERROR(in.U64(&rec->config_digest));
      break;
    case WalRecordType::kArrival:
      COMX_RETURN_IF_ERROR(DecodeStepRecord(&in, &rec->step_record));
      rec->step = rec->step_record.step;
      break;
    case WalRecordType::kOuterReserve:
    case WalRecordType::kOuterConflict:
    case WalRecordType::kOuterConfirm:
      COMX_RETURN_IF_ERROR(in.I64(&rec->step));
      COMX_RETURN_IF_ERROR(in.I64(&rec->request));
      COMX_RETURN_IF_ERROR(in.I32(&rec->observer));
      COMX_RETURN_IF_ERROR(in.I32(&rec->partner));
      COMX_RETURN_IF_ERROR(in.I64(&rec->worker));
      break;
    case WalRecordType::kBreakerState:
      COMX_RETURN_IF_ERROR(in.I64(&rec->step));
      COMX_RETURN_IF_ERROR(in.I32(&rec->observer));
      COMX_RETURN_IF_ERROR(in.I32(&rec->partner));
      COMX_RETURN_IF_ERROR(in.U8(&rec->breaker_state));
      COMX_RETURN_IF_ERROR(in.I64(&rec->transitions));
      break;
    case WalRecordType::kDecision:
      COMX_RETURN_IF_ERROR(DecodeStepRecord(&in, &rec->step_record));
      COMX_RETURN_IF_ERROR(in.U64(&rec->state_digest));
      rec->step = rec->step_record.step;
      break;
    case WalRecordType::kCheckpointMark:
      COMX_RETURN_IF_ERROR(in.I64(&rec->step));
      COMX_RETURN_IF_ERROR(in.I64(&rec->generation));
      break;
    case WalRecordType::kRecoveryMark:
      COMX_RETURN_IF_ERROR(in.I64(&rec->resumed_step));
      COMX_RETURN_IF_ERROR(in.I64(&rec->inflight_reserves));
      break;
    case WalRecordType::kRunEnd:
      COMX_RETURN_IF_ERROR(in.I64(&rec->step));
      COMX_RETURN_IF_ERROR(in.F64(&rec->total_revenue));
      COMX_RETURN_IF_ERROR(in.I64(&rec->assignments));
      break;
  }
  if (!in.AtEnd()) {
    return Status::DataLoss(
        StrFormat("wal: %zu trailing bytes in %s payload", in.Remaining(),
                  WalRecordTypeName(rec->type)));
  }
  return Status::OK();
}

}  // namespace

Status DecodeWalPayload(std::string_view payload, WalRecord* rec) {
  Status status = DecodeWalPayloadImpl(payload, rec);
  if (!status.ok() && status.code() != StatusCode::kDataLoss) {
    // ByteReader reports truncation as OutOfRange; a short payload inside
    // a CRC-valid frame is corruption, and callers dispatch on DataLoss.
    return Status::DataLoss("wal: truncated record body: " +
                            status.message());
  }
  return status;
}

obs::LatencyHistogram* WalDurabilityLagHistogram() {
  static obs::LatencyHistogram* const histogram =
      obs::MetricsRegistry::Global().GetLatencyHistogram(
          "comx_recovery_wal_durability_lag_ns",
          "WAL durability lag: a batch's first append to the end of its "
          "fsync");
  return histogram;
}

WalWriter::WalWriter(int fd, const WalWriterOptions& options,
                     int64_t durable_bytes, uint64_t next_lsn,
                     CrashInjector* crash)
    : fd_(fd),
      options_(options),
      crash_(crash),
      sealed_bytes_(durable_bytes),
      next_lsn_(next_lsn),
      durable_bytes_(durable_bytes) {
  flusher_ = std::thread([this] { FlushLoop(); });
}

WalWriter::~WalWriter() {
  StopFlusher();
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(
    const std::string& path, const WalWriterOptions& options,
    CrashInjector* crash) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("cannot create", path);
  auto writer = std::unique_ptr<WalWriter>(
      new WalWriter(fd, options, 0, 0, crash));
  // The header rides the first commit's buffer so a crash with offset
  // inside [0, 16) leaves a torn header, exactly like a real kill.
  ByteWriter header;
  for (char c : kWalMagic) header.U8(static_cast<uint8_t>(c));
  header.U32(kWalVersion);
  header.U32(0);  // reserved
  writer->active_.bytes = header.Take();
  return writer;
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path, const WalWriterOptions& options,
    int64_t durable_bytes, uint64_t next_lsn, CrashInjector* crash) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open", path);
  if (::ftruncate(fd, static_cast<off_t>(durable_bytes)) != 0) {
    ::close(fd);
    return IoError("cannot truncate", path);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return IoError("cannot seek", path);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return IoError("cannot fsync", path);
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, options, durable_bytes, next_lsn, crash));
}

Status WalWriter::Append(WalRecord* rec) {
  if (fd_ < 0) return Status::FailedPrecondition("wal: writer is closed");
  if (dead_) return Status::DataLoss("injected crash: wal writer is dead");
  if (failed_.load()) return WaitDurable();
  rec->lsn = next_lsn_++;
  const std::string payload = EncodeWalPayload(*rec);
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32cMask(Crc32c(payload.data(), payload.size())));
  if (active_.bytes.empty()) active_.age.Reset();
  active_.bytes += frame.str();
  active_.bytes += payload;
  ++buffered_records_;
  ++records_appended_;
  CountMetric("comx_recovery_wal_records_total", "WAL records appended", 1);
  if (buffered_records_ >= options_.group_commit_records ||
      static_cast<int64_t>(active_.bytes.size()) >=
          options_.group_commit_bytes) {
    return Seal();
  }
  return Status::OK();
}

Status WalWriter::Seal() {
  const int64_t want = static_cast<int64_t>(active_.bytes.size());
  const int64_t allowed = crash_ ? crash_->AllowWalBytes(want) : want;
  const bool torn = allowed < want;
  if (torn) active_.bytes.resize(static_cast<size_t>(allowed));
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !in_flight_; });
    if (!error_.ok()) return error_;
    std::swap(active_, flushing_);
    in_flight_ = true;
  }
  cv_.notify_all();
  buffered_records_ = 0;
  if (torn) {
    dead_ = true;
    COMX_RETURN_IF_ERROR(WaitDurable());
    return Status::DataLoss(StrFormat(
        "injected crash: wal torn after %lld durable bytes",
        static_cast<long long>(durable_bytes())));
  }
  sealed_bytes_ += want;
  ++commits_;
  commit_offsets_.push_back(sealed_bytes_);
  CountMetric("comx_recovery_wal_commits_total",
              "WAL group commits (fsync batches)", 1);
  return Status::OK();
}

Status WalWriter::WaitDurable() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !in_flight_; });
  return error_;
}

Status WalWriter::Commit() {
  if (fd_ < 0) return Status::FailedPrecondition("wal: writer is closed");
  if (dead_) return Status::DataLoss("injected crash: wal writer is dead");
  if (!active_.bytes.empty()) COMX_RETURN_IF_ERROR(Seal());
  return WaitDurable();
}

Status WalWriter::Close() {
  if (fd_ < 0) return Status::OK();
  const Status commit = dead_ ? Status::OK() : Commit();
  StopFlusher();
  const int rc = ::close(fd_);
  fd_ = -1;
  COMX_RETURN_IF_ERROR(commit);
  if (rc != 0) return IoError("close failed", "wal");
  return Status::OK();
}

void WalWriter::StopFlusher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void WalWriter::FlushLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return in_flight_ || stop_; });
    if (!in_flight_) return;  // stopping, nothing sealed
    lock.unlock();
    const Status status = WriteBatch(flushing_.bytes);
    if (status.ok() && obs::CollectionEnabled()) {
      WalDurabilityLagHistogram()->ObserveNanos(flushing_.age.ElapsedNanos());
    }
    flushing_.bytes.clear();
    lock.lock();
    if (!status.ok()) {  // Seal() hands over nothing more after this
      error_ = status;
      failed_.store(true);
    }
    in_flight_ = false;
    cv_.notify_all();
  }
}

Status WalWriter::WriteBatch(const std::string& bytes) {
  COMX_SPAN("wal_commit");
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("write failed", "wal");
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd_) != 0) return IoError("fsync failed", "wal");
  durable_bytes_.fetch_add(static_cast<int64_t>(written));
  CountMetric("comx_recovery_wal_bytes_total", "WAL bytes made durable",
              static_cast<int64_t>(written));
  return Status::OK();
}

Result<WalScan> ScanWal(const std::string& path) {
  std::string bytes;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return IoError("cannot read", path);
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.append(chunk, n);
    }
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) return IoError("read failed", path);
  }

  WalScan scan;
  scan.file_bytes = static_cast<int64_t>(bytes.size());
  if (scan.file_bytes < kWalHeaderBytes) {
    scan.torn_header = true;
    scan.torn_tail = scan.file_bytes > 0;
    scan.tail_warning = StrFormat(
        "wal: torn header (%lld of %lld bytes)",
        static_cast<long long>(scan.file_bytes),
        static_cast<long long>(kWalHeaderBytes));
    return scan;
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::DataLoss("wal: bad magic in " + path);
  }
  {
    ByteReader header(std::string_view(bytes).substr(sizeof(kWalMagic)));
    uint32_t version;
    COMX_RETURN_IF_ERROR(header.U32(&version));
    if (version != kWalVersion) {
      return Status::DataLoss(
          StrFormat("wal: unsupported version %u", version));
    }
  }

  int64_t pos = kWalHeaderBytes;
  scan.valid_bytes = pos;
  scan.boundary_bytes = pos;
  uint64_t expect_lsn = 0;
  while (pos + kWalFrameOverhead <= scan.file_bytes) {
    ByteReader frame(std::string_view(bytes).substr(
        static_cast<size_t>(pos), static_cast<size_t>(kWalFrameOverhead)));
    uint32_t len, masked_crc;
    (void)frame.U32(&len);
    (void)frame.U32(&masked_crc);
    const int64_t end = pos + kWalFrameOverhead + static_cast<int64_t>(len);
    if (end > scan.file_bytes) {
      scan.tail_warning = StrFormat(
          "wal: torn frame at offset %lld (%u byte payload, %lld available)",
          static_cast<long long>(pos), len,
          static_cast<long long>(scan.file_bytes - pos - kWalFrameOverhead));
      break;
    }
    const std::string_view payload(bytes.data() + pos + kWalFrameOverhead,
                                   len);
    if (Crc32cMask(Crc32c(payload.data(), payload.size())) != masked_crc) {
      scan.tail_warning = StrFormat(
          "wal: crc mismatch at offset %lld", static_cast<long long>(pos));
      break;
    }
    WalRecord rec;
    const Status decoded = DecodeWalPayload(payload, &rec);
    if (!decoded.ok()) {
      scan.tail_warning = StrFormat(
          "wal: undecodable frame at offset %lld: %s",
          static_cast<long long>(pos), decoded.ToString().c_str());
      break;
    }
    if (rec.lsn != expect_lsn) {
      scan.tail_warning = StrFormat(
          "wal: lsn discontinuity at offset %lld (got %llu, want %llu)",
          static_cast<long long>(pos),
          static_cast<unsigned long long>(rec.lsn),
          static_cast<unsigned long long>(expect_lsn));
      break;
    }
    ++expect_lsn;
    scan.records.push_back(std::move(rec));
    scan.payloads.emplace_back(payload);
    pos = end;
    scan.valid_bytes = pos;
    if (IsStepBoundary(scan.records.back().type)) {
      scan.boundary_records = scan.records.size();
      scan.boundary_bytes = pos;
    }
  }
  if (scan.valid_bytes < scan.file_bytes) {
    scan.torn_tail = true;
    if (scan.tail_warning.empty()) {
      scan.tail_warning = StrFormat(
          "wal: %lld trailing bytes beyond the last complete frame",
          static_cast<long long>(scan.file_bytes - scan.valid_bytes));
    }
  }
  for (size_t i = scan.boundary_records; i < scan.records.size(); ++i) {
    if (scan.records[i].type == WalRecordType::kOuterReserve) {
      ++scan.dangling_reserves;
    }
  }
  return scan;
}

}  // namespace recovery
}  // namespace comx
