// WAL framing, CRC32C, torn-tail truncation, and step-boundary
// classification (src/recovery/wal.h). The torn-tail sweep truncates a
// known-good log at EVERY byte offset and asserts the scan recovers
// exactly the durable prefix — the property the crash matrix relies on.

#include "recovery/wal.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_registry.h"
#include "util/crc32c.h"

namespace comx {
namespace recovery {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/comx_wal_test.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string("/tmp") : std::string(dir);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("open " + path);
  std::string bytes;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

// A record of every type, with distinctive field values, in a legal
// step-boundary order (reserve/confirm interior to the decision's step).
std::vector<WalRecord> MakeAllTypeRecords() {
  std::vector<WalRecord> recs;
  WalRecord begin;
  begin.type = WalRecordType::kRunBegin;
  begin.seed = 0xDEADBEEFCAFEF00Dull;
  begin.platform_count = 3;
  begin.has_fault_plan = true;
  begin.instance_digest = 0x1111111122222222ull;
  begin.config_digest = 0x3333333344444444ull;
  recs.push_back(begin);

  WalRecord arrival;
  arrival.type = WalRecordType::kArrival;
  arrival.step = 0;
  arrival.step_record.step = 0;
  arrival.step_record.kind = StepRecord::Kind::kArrival;
  arrival.step_record.worker = 7;
  arrival.step_record.x = 1.25;
  arrival.step_record.y = -3.5;
  arrival.step_record.time = 42.0;
  arrival.step_record.rearrival = true;
  recs.push_back(arrival);

  WalRecord breaker;
  breaker.type = WalRecordType::kBreakerState;
  breaker.step = 1;
  breaker.observer = 2;
  breaker.breaker_state = 1;
  breaker.transitions = 5;
  recs.push_back(breaker);

  WalRecord conflict;
  conflict.type = WalRecordType::kOuterConflict;
  conflict.step = 1;
  conflict.request = 9;
  conflict.partner = 1;
  conflict.worker = 4;
  recs.push_back(conflict);

  WalRecord reserve;
  reserve.type = WalRecordType::kOuterReserve;
  reserve.step = 1;
  reserve.request = 9;
  reserve.partner = 2;
  reserve.worker = 6;
  recs.push_back(reserve);

  WalRecord confirm;
  confirm.type = WalRecordType::kOuterConfirm;
  confirm.step = 1;
  confirm.request = 9;
  confirm.partner = 2;
  confirm.worker = 6;
  recs.push_back(confirm);

  WalRecord decision;
  decision.type = WalRecordType::kDecision;
  decision.step = 1;
  decision.state_digest = 0xABCDEF0123456789ull;
  decision.step_record.step = 1;
  decision.step_record.kind = StepRecord::Kind::kDecision;
  decision.step_record.request = 9;
  decision.step_record.platform = 0;
  decision.step_record.worker = 6;
  decision.step_record.outcome = 2;
  decision.step_record.value = 10.0;
  decision.step_record.payment = 4.0;
  decision.step_record.revenue = 6.0;
  decision.step_record.pickup_km = 0.75;
  recs.push_back(decision);

  WalRecord mark;
  mark.type = WalRecordType::kCheckpointMark;
  mark.step = 1;
  mark.generation = 3;
  recs.push_back(mark);

  WalRecord rmark;
  rmark.type = WalRecordType::kRecoveryMark;
  rmark.step = 1;
  rmark.resumed_step = 2;
  rmark.inflight_reserves = 1;
  recs.push_back(rmark);

  WalRecord end;
  end.type = WalRecordType::kRunEnd;
  end.seed = begin.seed;
  end.total_revenue = 6.0;
  end.assignments = 1;
  recs.push_back(end);
  return recs;
}

// Writes `recs` with per-record commits; returns the file offset after
// each record (frame boundaries for the truncation sweep). Every append
// seals its own batch, so the last commit offset is that record's end.
std::vector<int64_t> WriteWal(const std::string& path,
                              std::vector<WalRecord> recs) {
  WalWriterOptions options;
  options.group_commit_records = 1;  // commit every append
  auto writer = WalWriter::Create(path, options, nullptr);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<int64_t> offsets;
  for (WalRecord& rec : recs) {
    EXPECT_TRUE((*writer)->Append(&rec).ok());
    offsets.push_back((*writer)->commit_offsets().back());
  }
  EXPECT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(offsets.back(), (*writer)->durable_bytes());
  return offsets;
}

// The framed bytes Append() writes for `rec` (its lsn already assigned).
std::string Frame(const WalRecord& rec) {
  const std::string payload = EncodeWalPayload(rec);
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32cMask(Crc32c(payload.data(), payload.size())));
  return frame.str() + payload;
}

std::string HeaderBytes() {
  ByteWriter header;
  for (char c : kWalMagic) header.U8(static_cast<uint8_t>(c));
  header.U32(kWalVersion);
  header.U32(0);
  return header.Take();
}

// `copies` rounds of MakeAllTypeRecords(): enough records for several
// group-commit batches.
std::vector<WalRecord> ManyRecords(int copies) {
  std::vector<WalRecord> recs;
  for (int c = 0; c < copies; ++c) {
    for (const WalRecord& rec : MakeAllTypeRecords()) recs.push_back(rec);
  }
  return recs;
}

TEST(Crc32cTest, KnownVectorsAndMasking) {
  // The canonical CRC32C check vector.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Extend composes: crc(a+b) == extend(crc(a), b).
  const std::string a = "1234";
  const std::string b = "56789";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b.data(), b.size()), Crc32c("123456789"));
  // Masking is invertible and never the identity on these values, so a
  // stored CRC is never a raw CRC of bytes containing CRCs.
  for (uint32_t v : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu}) {
    EXPECT_EQ(Crc32cUnmask(Crc32cMask(v)), v);
    EXPECT_NE(Crc32cMask(v), v);
  }
  // The key property for zero-filled disk regions: an all-zero frame
  // (len 0, masked crc 0) must not validate as an empty payload.
  EXPECT_NE(Crc32cMask(Crc32c("", 0)), 0u);
}

TEST(WalPayloadTest, RoundTripsEveryRecordType) {
  uint64_t lsn = 0;
  for (WalRecord& rec : MakeAllTypeRecords()) {
    rec.lsn = lsn++;
    const std::string payload = EncodeWalPayload(rec);
    WalRecord back;
    ASSERT_TRUE(DecodeWalPayload(payload, &back).ok())
        << WalRecordTypeName(rec.type);
    EXPECT_EQ(back.type, rec.type);
    EXPECT_EQ(back.lsn, rec.lsn);
    // Re-encoding the decoded record must be byte-identical — the exact
    // property recovery's replay verification depends on.
    EXPECT_EQ(EncodeWalPayload(back), payload)
        << WalRecordTypeName(rec.type);
  }
}

TEST(WalPayloadTest, ForCompareNeutralizesOnlyLsn) {
  WalRecord a = MakeAllTypeRecords()[6];  // the decision record
  WalRecord b = a;
  a.lsn = 17;
  b.lsn = 99;
  EXPECT_NE(EncodeWalPayload(a), EncodeWalPayload(b));
  EXPECT_EQ(EncodeWalPayload(a, /*for_compare=*/true),
            EncodeWalPayload(b, /*for_compare=*/true));
  // Any substantive field still differentiates.
  b.step_record.revenue = 6.5;
  EXPECT_NE(EncodeWalPayload(a, /*for_compare=*/true),
            EncodeWalPayload(b, /*for_compare=*/true));
}

TEST(WalPayloadTest, DecodeRejectsGarbage) {
  WalRecord rec;
  EXPECT_EQ(DecodeWalPayload("", &rec).code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeWalPayload("\xFF", &rec).code(), StatusCode::kDataLoss);
  // A valid record truncated mid-body.
  WalRecord good = MakeAllTypeRecords()[1];
  const std::string payload = EncodeWalPayload(good);
  EXPECT_EQ(DecodeWalPayload(
                std::string_view(payload).substr(0, payload.size() / 2), &rec)
                .code(),
            StatusCode::kDataLoss);
}

TEST(WalScanTest, FullFileScansCleanWithDenseLsns) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  const std::vector<WalRecord> recs = MakeAllTypeRecords();
  WriteWal(path, recs);

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_FALSE(scan->torn_header);
  ASSERT_EQ(scan->records.size(), recs.size());
  EXPECT_EQ(scan->valid_bytes, scan->file_bytes);
  // Last record is kRunEnd, a boundary: nothing to truncate.
  EXPECT_EQ(scan->boundary_records, recs.size());
  EXPECT_EQ(scan->boundary_bytes, scan->valid_bytes);
  EXPECT_EQ(scan->dangling_reserves, 0);
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].lsn, i);
    EXPECT_EQ(scan->records[i].type, recs[i].type);
  }
}

TEST(WalScanTest, TruncationSweepRecoversExactDurablePrefix) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  const std::vector<int64_t> offsets =
      WriteWal(path, MakeAllTypeRecords());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  const std::string cut_path = dir + "/cut.log";
  for (int64_t cut = 0; cut <= static_cast<int64_t>(bytes->size()); ++cut) {
    WriteFileBytes(cut_path, bytes->substr(0, static_cast<size_t>(cut)));
    auto scan = ScanWal(cut_path);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": "
                           << scan.status().ToString();
    if (cut < kWalHeaderBytes) {
      EXPECT_TRUE(scan->torn_header) << "cut=" << cut;
      EXPECT_TRUE(scan->records.empty()) << "cut=" << cut;
      continue;
    }
    // Exactly the records whose frames fit below the cut survive.
    size_t want = 0;
    while (want < offsets.size() && offsets[want] <= cut) ++want;
    EXPECT_EQ(scan->records.size(), want) << "cut=" << cut;
    EXPECT_EQ(scan->torn_tail, cut > scan->valid_bytes) << "cut=" << cut;
    for (size_t i = 0; i < scan->records.size(); ++i) {
      EXPECT_EQ(scan->records[i].lsn, i) << "cut=" << cut;
    }
  }
}

TEST(WalScanTest, MidStepTailTruncatesToBoundaryAndCountsReserves) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  const std::vector<WalRecord> recs = MakeAllTypeRecords();
  const std::vector<int64_t> offsets = WriteWal(path, recs);

  // Cut just after the successful kOuterReserve (index 4): the durable
  // prefix ends mid-step, so the consistent prefix is the arrival (index
  // 1) and the reserve is an in-flight two-phase commit.
  ASSERT_EQ(recs[4].type, WalRecordType::kOuterReserve);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  WriteFileBytes(path, bytes->substr(0, static_cast<size_t>(offsets[4])));

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);  // every surviving frame validates
  ASSERT_EQ(scan->records.size(), 5u);
  EXPECT_EQ(scan->boundary_records, 2u);  // kRunBegin + kArrival
  EXPECT_EQ(scan->boundary_bytes, offsets[1]);
  EXPECT_EQ(scan->dangling_reserves, 1);
}

TEST(WalScanTest, FlippedBitStopsScanAtCorruptFrame) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  const std::vector<int64_t> offsets =
      WriteWal(path, MakeAllTypeRecords());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  // Flip one payload bit inside the 4th record's frame.
  std::string corrupt = *bytes;
  corrupt[static_cast<size_t>(offsets[3]) - 1] ^= 0x40;
  WriteFileBytes(path, corrupt);

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->valid_bytes, offsets[2]);
  EXPECT_FALSE(scan->tail_warning.empty());
}

TEST(WalScanTest, ZeroFilledTailNeverValidates) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  const std::vector<int64_t> offsets =
      WriteWal(path, MakeAllTypeRecords());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  // Preallocated-but-unwritten disk space: a run of zeros after a valid
  // prefix. The masked CRC guarantees the zero frame cannot validate.
  std::string padded = bytes->substr(0, static_cast<size_t>(offsets[2]));
  padded.append(64, '\0');
  WriteFileBytes(path, padded);

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 3u);
}

TEST(WalScanTest, WrongMagicIsDataLossNotTornHeader) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::string junk(64, 'X');
  WriteFileBytes(path, junk);
  auto scan = ScanWal(path);
  EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss);
}

TEST(WalScanTest, MissingFileIsIoError) {
  EXPECT_EQ(ScanWal("/nonexistent/nowhere/wal.log").status().code(),
            StatusCode::kIoError);
}

TEST(WalWriterTest, OpenForAppendResumesLsnSequence) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::vector<WalRecord> recs = MakeAllTypeRecords();
  // First session: kRunBegin + kArrival only.
  WalWriterOptions options;
  options.group_commit_records = 1;
  {
    auto writer = WalWriter::Create(path, options, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(&recs[0]).ok());
    ASSERT_TRUE((*writer)->Append(&recs[1]).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto first = ScanWal(path);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->records.size(), 2u);

  // Recovery-style reopen: truncate to the durable prefix, resume LSNs.
  {
    auto writer = WalWriter::OpenForAppend(path, options, first->valid_bytes,
                                           /*next_lsn=*/2, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ((*writer)->next_lsn(), 2u);
    WalRecord mark;
    mark.type = WalRecordType::kRecoveryMark;
    mark.step = 1;
    mark.resumed_step = 2;
    ASSERT_TRUE((*writer)->Append(&mark).ok());
    EXPECT_EQ(mark.lsn, 2u);
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 3u);
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].lsn, i);
  }
  EXPECT_EQ(scan->records[2].type, WalRecordType::kRecoveryMark);
}

TEST(WalWriterTest, InjectedCrashTearsExactlyAtOffset) {
  // Group size 1 tears the first record mid-frame. Group size 3 tears the
  // third batch, while the second may still be in flight when it seals:
  // the torn prefix must land after it, and the Append() that sealed the
  // torn batch reports the crash.
  for (const int64_t group : {int64_t{1}, int64_t{3}}) {
    SCOPED_TRACE(::testing::Message() << "group=" << group);
    const std::string dir = MakeTempDir();
    const std::string path = dir + "/wal.log";
    WalWriterOptions options;
    options.group_commit_records = group;

    // Seal boundaries of the same stream without a crash.
    std::vector<int64_t> clean;
    {
      auto writer = WalWriter::Create(dir + "/clean.log", options, nullptr);
      ASSERT_TRUE(writer.ok());
      for (WalRecord rec : MakeAllTypeRecords()) {
        ASSERT_TRUE((*writer)->Append(&rec).ok());
      }
      ASSERT_TRUE((*writer)->Close().ok());
      clean = (*writer)->commit_offsets();
    }
    ASSERT_GE(clean.size(), 3u);

    CrashPoint point;
    point.kind = CrashPoint::Kind::kWalOffset;
    // Mid-record, mid-frame: in the first record's batch at group 1, in
    // the third batch at group 3.
    point.wal_offset =
        group == 1 ? kWalHeaderBytes + 21 : clean[1] + 21;
    ASSERT_LT(point.wal_offset, group == 1 ? clean[0] : clean[2]);
    CrashInjector injector(point);

    auto writer = WalWriter::Create(path, options, &injector);
    ASSERT_TRUE(writer.ok());
    std::vector<WalRecord> recs = MakeAllTypeRecords();
    Status status = Status::OK();
    size_t failed_at = recs.size();
    for (size_t i = 0; i < recs.size(); ++i) {
      status = (*writer)->Append(&recs[i]);
      if (!status.ok()) {
        failed_at = i;
        break;
      }
    }
    ASSERT_EQ(status.code(), StatusCode::kDataLoss);
    // The Append() that sealed the torn batch reports it.
    EXPECT_EQ(failed_at, group == 1 ? 0u : 8u);
    EXPECT_TRUE(injector.fired());
    // Once dead, every further write is refused.
    WalRecord extra = recs[1];
    EXPECT_EQ((*writer)->Append(&extra).code(), StatusCode::kDataLoss);

    // The file holds exactly the allowed prefix, and the scan tolerates it.
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(static_cast<int64_t>(bytes->size()), point.wal_offset);
    EXPECT_EQ((*writer)->durable_bytes(), point.wal_offset);
    auto scan = ScanWal(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->torn_tail);
  }
}

TEST(WalWriterTest, BufferedTailIsLostWithoutFlushAndKeptWithIt) {
  // Regression for the shutdown path: with group commit on, the destructor
  // deliberately drops the buffered tail. An abnormal exit (comx_serve on
  // SIGTERM) that skips Close() must Flush() first or up to a full batch of
  // journaled steps silently vanishes.
  const std::string dir = MakeTempDir();
  WalWriterOptions options;
  options.group_commit_records = 100;  // nothing auto-commits below
  const std::vector<WalRecord> all = MakeAllTypeRecords();

  // Without Flush(): destroy the writer with records still buffered.
  {
    auto writer = WalWriter::Create(dir + "/lost.log", options, nullptr);
    ASSERT_TRUE(writer.ok());
    for (WalRecord rec : all) {
      ASSERT_TRUE((*writer)->Append(&rec).ok());
    }
    // Nothing committed yet: even the header is still in the buffer.
    EXPECT_GT((*writer)->buffered_bytes(), kWalHeaderBytes);
    EXPECT_EQ((*writer)->durable_bytes(), 0);
    // Writer destroyed here — the simulated abnormal exit.
  }
  auto lost = ScanWal(dir + "/lost.log");
  ASSERT_TRUE(lost.ok());
  EXPECT_TRUE(lost->torn_header);
  EXPECT_EQ(lost->records.size(), 0u);  // the entire batch is gone

  // With Flush() on the same exit path: everything durable.
  {
    auto writer = WalWriter::Create(dir + "/kept.log", options, nullptr);
    ASSERT_TRUE(writer.ok());
    for (WalRecord rec : all) {
      ASSERT_TRUE((*writer)->Append(&rec).ok());
    }
    ASSERT_TRUE((*writer)->Flush().ok());
    EXPECT_EQ((*writer)->buffered_bytes(), 0);
    EXPECT_GT((*writer)->durable_bytes(), kWalHeaderBytes);
  }
  auto kept = ScanWal(dir + "/kept.log");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->records.size(), all.size());
  EXPECT_FALSE(kept->torn_tail);
}

TEST(WalWriterTest, CommitOffsetsRecordGroupBoundaries) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.group_commit_records = 3;
  auto writer = WalWriter::Create(path, options, nullptr);
  ASSERT_TRUE(writer.ok());
  const std::vector<WalRecord> all = MakeAllTypeRecords();
  ASSERT_GE(all.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    WalRecord rec = all[i];
    ASSERT_TRUE((*writer)->Append(&rec).ok());
  }
  // 7 appends at 3 per group: two full batches sealed, one buffered.
  EXPECT_EQ((*writer)->commits(), 2);
  ASSERT_EQ((*writer)->commit_offsets().size(), 2u);
  EXPECT_GT((*writer)->commit_offsets()[0], kWalHeaderBytes);
  EXPECT_GT((*writer)->commit_offsets()[1],
            (*writer)->commit_offsets()[0]);
  // The second boundary is the end of record 5's frame; its fsync may
  // still be in flight, so durable_bytes() lies between the two seals.
  int64_t end_of_sixth = kWalHeaderBytes;
  for (size_t i = 0; i < 6; ++i) {
    WalRecord rec = all[i];
    rec.lsn = i;
    end_of_sixth += static_cast<int64_t>(Frame(rec).size());
  }
  EXPECT_EQ((*writer)->commit_offsets()[1], end_of_sixth);
  EXPECT_GE((*writer)->durable_bytes(), (*writer)->commit_offsets()[0]);
  EXPECT_LE((*writer)->durable_bytes(), (*writer)->commit_offsets()[1]);
  EXPECT_GT((*writer)->buffered_bytes(), 0);
  ASSERT_TRUE((*writer)->Close().ok());
  // Close commits the remainder and records the final boundary.
  EXPECT_EQ((*writer)->commit_offsets().size(), 3u);
  EXPECT_EQ((*writer)->commit_offsets().back(), (*writer)->durable_bytes());
}

TEST(WalWriterTest, FileBytesAndCommitOffsetsFollowTheSealRule) {
  // The pipeline must not move a byte: the file is the header plus every
  // framed payload, and the seal points are a pure function of record
  // counts and sizes (the header rides the first batch).
  struct Config {
    int64_t records;
    int64_t bytes;
  };
  const std::vector<WalRecord> recs = ManyRecords(12);  // 120 records
  for (const Config& config : {Config{1, 32 * 1024}, Config{3, 32 * 1024},
                               Config{32, 32 * 1024}, Config{1000, 700}}) {
    SCOPED_TRACE(::testing::Message() << "records=" << config.records
                                      << " bytes=" << config.bytes);
    const std::string dir = MakeTempDir();
    const std::string path = dir + "/wal.log";
    WalWriterOptions options;
    options.group_commit_records = config.records;
    options.group_commit_bytes = config.bytes;
    auto writer = WalWriter::Create(path, options, nullptr);
    ASSERT_TRUE(writer.ok());

    std::string want = HeaderBytes();
    std::vector<int64_t> want_offsets;
    int64_t batch_records = 0;
    int64_t batch_bytes = static_cast<int64_t>(want.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      WalRecord rec = recs[i];
      ASSERT_TRUE((*writer)->Append(&rec).ok());
      ASSERT_EQ(rec.lsn, i);
      const std::string frame = Frame(rec);
      want += frame;
      ++batch_records;
      batch_bytes += static_cast<int64_t>(frame.size());
      if (batch_records >= config.records || batch_bytes >= config.bytes) {
        want_offsets.push_back(static_cast<int64_t>(want.size()));
        batch_records = 0;
        batch_bytes = 0;
      }
    }
    if (batch_bytes > 0) {
      want_offsets.push_back(static_cast<int64_t>(want.size()));
    }
    ASSERT_TRUE((*writer)->Close().ok());
    // The byte-threshold config seals mid-stream, never on the count.
    if (config.records == 1000) {
      EXPECT_GT(want_offsets.size(), 2u);
    }

    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_TRUE(*bytes == want) << bytes->size() << " vs " << want.size();
    EXPECT_EQ((*writer)->commit_offsets(), want_offsets);
    EXPECT_EQ((*writer)->commits(), static_cast<int64_t>(want_offsets.size()));
    EXPECT_EQ((*writer)->durable_bytes(), static_cast<int64_t>(want.size()));
  }
}

TEST(WalWriterTest, FlushReturnsWithEverythingDurable) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.group_commit_records = 3;
  auto writer = WalWriter::Create(path, options, nullptr);
  ASSERT_TRUE(writer.ok());
  for (WalRecord rec : ManyRecords(3)) {
    ASSERT_TRUE((*writer)->Append(&rec).ok());
  }
  ASSERT_TRUE((*writer)->Flush().ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ((*writer)->durable_bytes(), static_cast<int64_t>(bytes->size()));
  EXPECT_EQ((*writer)->commit_offsets().back(), (*writer)->durable_bytes());
  EXPECT_EQ((*writer)->buffered_bytes(), 0);
  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 30u);
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalWriterTest, DestructionLandsSealedBatchesAndDropsOnlyTheTail) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  WalWriterOptions options;
  options.group_commit_records = 3;
  std::vector<int64_t> sealed;
  {
    auto writer = WalWriter::Create(path, options, nullptr);
    ASSERT_TRUE(writer.ok());
    std::vector<WalRecord> recs = MakeAllTypeRecords();
    for (size_t i = 0; i < 7; ++i) {
      ASSERT_TRUE((*writer)->Append(&recs[i]).ok());
    }
    // The 6th append sealed batch 2, which may still be in flight; the
    // 7th record is the unsealed tail.
    sealed = (*writer)->commit_offsets();
    EXPECT_GT((*writer)->buffered_bytes(), 0);
  }
  ASSERT_EQ(sealed.size(), 2u);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(static_cast<int64_t>(bytes->size()), sealed[1]);
  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 6u);
}

TEST(WalWriterTest, FlusherErrorIsStickyAndReachesTheNextCall) {
  // /dev/full accepts the open and fails every write with ENOSPC, so the
  // flusher's first batch fails after Append() has already returned.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  WalWriterOptions options;
  options.group_commit_records = 1;
  auto writer = WalWriter::Create("/dev/full", options, nullptr);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<WalRecord> recs = MakeAllTypeRecords();
  ASSERT_TRUE((*writer)->Append(&recs[0]).ok());  // handed to the flusher
  EXPECT_EQ((*writer)->Append(&recs[1]).code(), StatusCode::kIoError);
  EXPECT_EQ((*writer)->Commit().code(), StatusCode::kIoError);
  EXPECT_EQ((*writer)->Append(&recs[2]).code(), StatusCode::kIoError);
  EXPECT_EQ((*writer)->Close().code(), StatusCode::kIoError);
  EXPECT_EQ((*writer)->durable_bytes(), 0);
}

TEST(WalWriterTest, OneDurabilityLagSamplePerCommit) {
  obs::SetCollectionEnabled(true);
  obs::LatencyHistogram* lag = WalDurabilityLagHistogram();
  const int64_t before = lag->Snapshot().count;
  const std::string dir = MakeTempDir();
  WalWriterOptions options;
  options.group_commit_records = 4;
  auto writer = WalWriter::Create(dir + "/wal.log", options, nullptr);
  ASSERT_TRUE(writer.ok());
  for (WalRecord rec : ManyRecords(2)) {
    ASSERT_TRUE((*writer)->Append(&rec).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  obs::SetCollectionEnabled(false);
  EXPECT_EQ((*writer)->commits(), 5);  // 20 records at 4 per batch
  EXPECT_EQ(lag->Snapshot().count - before, (*writer)->commits());
}

TEST(WalRecordTest, BoundaryClassification) {
  EXPECT_TRUE(IsStepBoundary(WalRecordType::kRunBegin));
  EXPECT_TRUE(IsStepBoundary(WalRecordType::kArrival));
  EXPECT_TRUE(IsStepBoundary(WalRecordType::kDecision));
  EXPECT_TRUE(IsStepBoundary(WalRecordType::kCheckpointMark));
  EXPECT_TRUE(IsStepBoundary(WalRecordType::kRecoveryMark));
  EXPECT_TRUE(IsStepBoundary(WalRecordType::kRunEnd));
  EXPECT_FALSE(IsStepBoundary(WalRecordType::kOuterReserve));
  EXPECT_FALSE(IsStepBoundary(WalRecordType::kOuterConflict));
  EXPECT_FALSE(IsStepBoundary(WalRecordType::kOuterConfirm));
  EXPECT_FALSE(IsStepBoundary(WalRecordType::kBreakerState));
}

}  // namespace
}  // namespace recovery
}  // namespace comx
