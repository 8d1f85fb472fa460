// Tests for streamworks/persist: the segmented FrameLog under both its
// record kinds, edge WAL and worker frames (framing, CRC, rotation,
// torn-tail tolerance, pruning, format refusal), snapshot encode/decode with
// corruption fallback, and full crash-recovery equivalence — a killed
// service restarted from its data dir must produce exactly the match
// multiset of an uninterrupted run.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "streamworks/common/binio.h"
#include "streamworks/common/interner.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/persist/crc32.h"
#include "streamworks/persist/durable_backend.h"
#include "streamworks/persist/edge_log.h"
#include "streamworks/persist/frame_log.h"
#include "streamworks/persist/fs_util.h"
#include "streamworks/persist/manager.h"
#include "streamworks/persist/snapshot.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/query_service.h"
#include "register_kinds.h"

namespace streamworks {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the test tmpdir, deleted with everything
/// in it when the object goes out of scope. Declare it before whatever
/// keeps files open in it.
class ScratchDir {
 public:
  explicit ScratchDir(std::string_view name) {
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("streamworks_persist_" + std::string(name) + "_" +
         std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    path_ = dir.string();
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StreamEdge MakeEdge(Interner* interner, uint64_t src, uint64_t dst,
                    std::string_view elabel, Timestamp ts,
                    std::string_view src_label = "V",
                    std::string_view dst_label = "V") {
  StreamEdge e;
  e.src = src;
  e.dst = dst;
  e.src_label = interner->Intern(src_label);
  e.dst_label = interner->Intern(dst_label);
  e.edge_label = interner->Intern(elabel);
  e.ts = ts;
  return e;
}

EdgeBatch SomeBatch(Interner* interner, int n, Timestamp base_ts) {
  EdgeBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(MakeEdge(interner, 10 + static_cast<uint64_t>(i),
                             20 + static_cast<uint64_t>(i), "ping",
                             base_ts + i));
  }
  return batch;
}

/// Flips one byte in a file (corruption injection).
void CorruptFileByte(const std::string& path, size_t offset) {
  std::fstream f(path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte;
  f.read(&byte, 1);
  byte ^= 0x5A;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

// --- CRC32 -----------------------------------------------------------------

TEST(Crc32Test, KnownAnswerAndChaining) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Chained == one-shot.
  const uint32_t head = Crc32("12345");
  EXPECT_EQ(Crc32(std::string_view("6789"), head), 0xCBF43926u);
}

// --- EdgeLog / FrameLog ----------------------------------------------------

TEST(EdgeLogTest, AppendReplayRoundTrip) {
  const ScratchDir scratch("wal_roundtrip");
  const std::string& dir = scratch.path();
  Interner interner;
  {
    auto log = EdgeLog::Open(dir, &interner).value();
    EXPECT_EQ(log->next_seq(), 0u);
    ASSERT_TRUE(log->Append(SomeBatch(&interner, 3, 0)).ok());
    ASSERT_TRUE(log->Append(SomeBatch(&interner, 2, 10)).ok());
    ASSERT_TRUE(log->Append({}).ok());  // no-op
    EXPECT_EQ(log->next_seq(), 5u);
    EXPECT_EQ(log->stats().records_appended, 2u);
    EXPECT_EQ(log->stats().edges_appended, 5u);
  }
  Interner replay_side;
  std::vector<std::pair<uint64_t, size_t>> seen;
  EdgeBatch all;
  auto stats = EdgeLog::Replay(
                   dir, 0, &replay_side,
                   [&](const EdgeBatch& batch, uint64_t first_seq) {
                     seen.emplace_back(first_seq, batch.size());
                     all.insert(all.end(), batch.begin(), batch.end());
                   })
                   .value();
  EXPECT_EQ(stats.edges_replayed, 5u);
  EXPECT_EQ(stats.next_seq, 5u);
  EXPECT_FALSE(stats.tail_truncated);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<uint64_t, size_t>{0, 3}));
  EXPECT_EQ(seen[1], (std::pair<uint64_t, size_t>{3, 2}));
  // Labels crossed as strings and re-interned.
  EXPECT_EQ(replay_side.Name(all[0].edge_label), "ping");
  EXPECT_EQ(all[3].ts, 10);
}

TEST(EdgeLogTest, ReplayFromMidRecordTrimsTheStraddler) {
  const ScratchDir scratch("wal_trim");
  const std::string& dir = scratch.path();
  Interner interner;
  {
    auto log = EdgeLog::Open(dir, &interner).value();
    ASSERT_TRUE(log->Append(SomeBatch(&interner, 4, 0)).ok());  // [0,4)
    ASSERT_TRUE(log->Append(SomeBatch(&interner, 2, 10)).ok());  // [4,6)
  }
  EdgeBatch all;
  auto stats =
      EdgeLog::Replay(dir, /*from_seq=*/2, &interner,
                      [&](const EdgeBatch& batch, uint64_t first_seq) {
                        EXPECT_GE(first_seq, 2u);
                        all.insert(all.end(), batch.begin(), batch.end());
                      })
          .value();
  EXPECT_EQ(stats.edges_replayed, 4u);  // edges 2,3 of record 1 + record 2
  EXPECT_EQ(all.front().ts, 2);         // the straddling record trimmed
}

// The segment-handling cases below run over both record kinds the one
// FrameLog carries: edge WAL records (EdgeLogTest.*) and the opaque
// records of a worker's frame log (FrameLogTest.*).

/// A replay's outcome in sequence numbers, common to both record kinds.
struct Replayed {
  uint64_t seqs = 0;  ///< Sequence numbers delivered.
  uint64_t min_first_seq = UINT64_MAX;
  uint64_t next_seq = 0;
  bool tail_truncated = false;
};

/// Edge WAL records: one FEEDB-encoded batch each, spanning its edges.
struct WalRecords {
  static constexpr const char* kSuite = "EdgeLogTest";
  static constexpr const char* kName = "wal";
  static constexpr const char* kFormat1Magic = "SWL1";
  using Log = EdgeLog;

  StatusOr<std::unique_ptr<EdgeLog>> Open(const std::string& dir,
                                          const FrameLogOptions& options) {
    return EdgeLog::Open(dir, &interner, options);
  }
  Status Append(EdgeLog* log, int n, Timestamp ts) {
    return log->Append(SomeBatch(&interner, n, ts));
  }
  StatusOr<Replayed> Replay(const std::string& dir, uint64_t from_seq,
                            const FrameLogOptions& options) {
    Replayed out;
    Interner replay_side;
    SW_ASSIGN_OR_RETURN(
        const EdgeLog::ReplayStats stats,
        EdgeLog::Replay(
            dir, from_seq, &replay_side,
            [&](const EdgeBatch& batch, uint64_t first_seq) {
              out.seqs += batch.size();
              out.min_first_seq = std::min(out.min_first_seq, first_seq);
            },
            options));
    EXPECT_EQ(stats.edges_replayed, out.seqs);
    out.next_seq = stats.next_seq;
    out.tail_truncated = stats.tail_truncated;
    return out;
  }

  Interner interner;
};

/// Worker frame-log records: opaque payloads. Each spans n sequence numbers
/// (a worker frame spans 1), so a case's counts read the same for both
/// kinds.
struct FrameRecords {
  static constexpr const char* kSuite = "FrameLogTest";
  static constexpr const char* kName = "frames";
  static constexpr const char* kFormat1Magic = "SWF1";
  using Log = FrameLog;

  StatusOr<std::unique_ptr<FrameLog>> Open(const std::string& dir,
                                           const FrameLogOptions& options) {
    return FrameLog::Open(dir, kName, options);
  }
  Status Append(FrameLog* log, int n, Timestamp ts) {
    const std::string payload(static_cast<size_t>(n) * 16,
                              static_cast<char>('a' + ts % 26));
    const LogRecord record{payload, static_cast<uint32_t>(n)};
    return log->Append({&record, 1});
  }
  StatusOr<Replayed> Replay(const std::string& dir, uint64_t from_seq,
                            const FrameLogOptions& options) {
    Replayed out;
    SW_ASSIGN_OR_RETURN(
        const FrameLog::ReplayStats stats,
        FrameLog::Replay(
            dir, kName, from_seq,
            [&](const LogRecord& record, uint64_t first_seq) {
              EXPECT_EQ(record.payload.size(), record.span * 16u);
              out.seqs += record.span;
              out.min_first_seq = std::min(out.min_first_seq, first_seq);
              return OkStatus();
            },
            options));
    out.next_seq = stats.next_seq;
    out.tail_truncated = stats.tail_truncated;
    return out;
  }
};

template <typename Kind>
class SegmentLogCase : public ::testing::Test {
 protected:
  std::unique_ptr<typename Kind::Log> Open(FrameLogOptions options = {}) {
    return kind_.Open(dir_, options).value();
  }
  Status Append(typename Kind::Log* log, int n, Timestamp ts) {
    return kind_.Append(log, n, ts);
  }
  StatusOr<Replayed> Replay(uint64_t from_seq, FrameLogOptions options = {}) {
    return kind_.Replay(dir_, from_seq, options);
  }
  /// Path of the segment whose first sequence number is `base`.
  std::string Segment(uint64_t base) const {
    return (fs::path(dir_) /
            SeqFileName(std::string(Kind::kName) + "-", base, ".log"))
        .string();
  }

  Kind kind_;
  const ScratchDir scratch_{
      std::string(Kind::kName) + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name()};
  const std::string& dir_ = scratch_.path();
};

template <typename Kind>
class RotationSplitsSegmentsAndPrunes : public SegmentLogCase<Kind> {
  void TestBody() override {
    FrameLogOptions options;
    options.segment_bytes = 128;  // force rotation nearly every record
    uint64_t appended = 0;
    {
      auto log = this->Open(options);
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(this->Append(log.get(), 3, i * 10).ok());
        appended += 3;
      }
      EXPECT_GT(log->num_segments(), 2u);
    }
    const Replayed stats = this->Replay(0).value();
    EXPECT_EQ(stats.seqs, appended);
    EXPECT_EQ(stats.next_seq, appended);

    // Prune below a mid-log snapshot point: the covered prefix disappears,
    // everything at or past the point still replays.
    {
      auto log = this->Open(options);
      EXPECT_EQ(log->next_seq(), appended);
      const int deleted = log->PruneSegmentsBelow(12).value();
      EXPECT_GT(deleted, 0);
    }
    const Replayed tail = this->Replay(12).value();
    EXPECT_EQ(tail.seqs, appended - 12);
    EXPECT_GE(tail.min_first_seq, 12u);
  }
};

template <typename Kind>
class TornTailIsToleratedAndTruncatedOnReopen : public SegmentLogCase<Kind> {
  void TestBody() override {
    {
      auto log = this->Open();
      ASSERT_TRUE(this->Append(log.get(), 3, 0).ok());
      ASSERT_TRUE(this->Append(log.get(), 3, 10).ok());
    }
    // Tear the last record: chop bytes off the file end (a crash
    // mid-write).
    const std::string segment = this->Segment(0);
    const size_t full = fs::file_size(segment);
    fs::resize_file(segment, full - 7);

    Replayed stats = this->Replay(0).value();
    EXPECT_EQ(stats.seqs, 3u);  // first record survives, torn one dropped
    EXPECT_TRUE(stats.tail_truncated);
    EXPECT_EQ(stats.next_seq, 3u);

    // Reopen truncates the tear and appends cleanly over it.
    {
      auto log = this->Open();
      EXPECT_EQ(log->next_seq(), 3u);
      ASSERT_TRUE(this->Append(log.get(), 2, 20).ok());
    }
    stats = this->Replay(0).value();
    EXPECT_EQ(stats.seqs, 5u);
    EXPECT_FALSE(stats.tail_truncated);
  }
};

template <typename Kind>
class CrcCorruptionStopsReplayAtTheTear : public SegmentLogCase<Kind> {
  void TestBody() override {
    {
      auto log = this->Open();
      ASSERT_TRUE(this->Append(log.get(), 2, 0).ok());
      ASSERT_TRUE(this->Append(log.get(), 2, 10).ok());
      ASSERT_TRUE(this->Append(log.get(), 2, 20).ok());
    }
    // Clobber a byte inside the *second* record's payload: replay keeps
    // record one, drops the corrupt record and — sequence continuity gone
    // — everything after it.
    const std::string segment = this->Segment(0);
    const size_t record_bytes = (fs::file_size(segment) - 20) / 3;
    CorruptFileByte(segment, 20 + record_bytes + record_bytes / 2);

    const Replayed stats = this->Replay(0).value();
    EXPECT_EQ(stats.seqs, 2u);
    EXPECT_TRUE(stats.tail_truncated);
  }
};

template <typename Kind>
class CorruptionInASealedSegmentIsDataLoss : public SegmentLogCase<Kind> {
  void TestBody() override {
    FrameLogOptions options;
    options.segment_bytes = 64;  // every record rotates
    {
      auto log = this->Open(options);
      ASSERT_TRUE(this->Append(log.get(), 2, 0).ok());
      ASSERT_TRUE(this->Append(log.get(), 2, 10).ok());
      ASSERT_GE(log->num_segments(), 2u);
    }
    const std::string first = this->Segment(0);
    CorruptFileByte(first, fs::file_size(first) - 3);

    const auto replay = this->Replay(0);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
  }
};

template <typename Kind>
class TornHeaderOfTheLastSegmentNeverWedgesReopen
    : public SegmentLogCase<Kind> {
  void TestBody() override {
    FrameLogOptions options;
    options.segment_bytes = 64;  // every record rotates
    {
      auto log = this->Open(options);
      ASSERT_TRUE(this->Append(log.get(), 2, 0).ok());
      ASSERT_TRUE(this->Append(log.get(), 2, 10).ok());
    }
    // Simulate a crash inside OpenNewSegment: the freshly rotated last
    // segment exists but its 20-byte header is short/garbled.
    auto segments = std::vector<fs::path>();
    for (const auto& entry : fs::directory_iterator(this->dir_)) {
      if (entry.path().extension() == ".log") {
        segments.push_back(entry.path());
      }
    }
    std::sort(segments.begin(), segments.end());
    ASSERT_GE(segments.size(), 2u);
    fs::resize_file(segments.back(), 7);

    // Replay tolerates it...
    Replayed stats = this->Replay(0, options).value();
    EXPECT_EQ(stats.seqs, 2u);
    EXPECT_TRUE(stats.tail_truncated);
    // ...and Open must too — the daemon restarting after that crash drops
    // the headerless debris and appends on: recovery is never wedged by
    // the crash it exists to absorb.
    auto log = this->Open(options);
    EXPECT_EQ(log->next_seq(), 2u);
    ASSERT_TRUE(this->Append(log.get(), 3, 20).ok());
    stats = this->Replay(0, options).value();
    EXPECT_EQ(stats.seqs, 5u);
  }
};

template <typename Kind>
class MissingMiddleSegmentIsDataLossNotSilence : public SegmentLogCase<Kind> {
  void TestBody() override {
    FrameLogOptions options;
    options.segment_bytes = 64;  // every record rotates
    {
      auto log = this->Open(options);
      ASSERT_TRUE(this->Append(log.get(), 2, 0).ok());
      ASSERT_TRUE(this->Append(log.get(), 2, 10).ok());
      ASSERT_TRUE(this->Append(log.get(), 2, 20).ok());
    }
    // Lose the middle sealed segment (operator mishap, partial restore).
    fs::remove(this->Segment(2));
    const auto replay = this->Replay(0, options);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(replay.status().message().find("WAL gap"), std::string::npos);
  }
};

template <typename Kind>
class SecondWriterOnTheSameDirIsRefused : public SegmentLogCase<Kind> {
  void TestBody() override {
    auto first = this->Open();
    ASSERT_TRUE(this->Append(first.get(), 1, 0).ok());
    // A second writer (an operator double-starting the daemon) would
    // interleave appends and destroy record framing for both.
    auto second = this->kind_.Open(this->dir_, {});
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
    // The lock dies with the holder; a restart takes over cleanly.
    first.reset();
    EXPECT_TRUE(this->kind_.Open(this->dir_, {}).ok());
  }
};

template <typename Kind>
class Format1SegmentsAreRefusedNotMisread : public SegmentLogCase<Kind> {
  void TestBody() override {
    // A segment as the release before the one-log format wrote it:
    // format 1 (SWL1 for the WAL, SWF1 for a worker log), whose records
    // carry no span field.
    std::string bytes(Kind::kFormat1Magic, 4);
    PutU32(&bytes, 1);
    PutU64(&bytes, 0);
    PutU32(&bytes, Crc32(bytes));
    std::string payload;
    PutU64(&payload, 0);
    payload += "record";
    PutU32(&bytes, static_cast<uint32_t>(payload.size()));
    PutU32(&bytes, Crc32(payload));
    bytes += payload;
    const std::string segment = this->Segment(0);
    std::ofstream(segment, std::ios::binary) << bytes;

    // Replay and Open both refuse it — and Open must not drop it as the
    // debris of a torn header.
    const auto replay = this->Replay(0);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
    const auto opened = this->kind_.Open(this->dir_, {});
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(ReadWhole(segment), bytes);
  }
};

template <template <typename> class Case>
bool RegisterSegmentCase(const char* name) {
  return RegisterForKinds<Case, WalRecords, FrameRecords>(name);
}

[[maybe_unused]] const bool kSegmentCasesRegistered =
    RegisterSegmentCase<RotationSplitsSegmentsAndPrunes>(
        "RotationSplitsSegmentsAndPrunes") &&
    RegisterSegmentCase<TornTailIsToleratedAndTruncatedOnReopen>(
        "TornTailIsToleratedAndTruncatedOnReopen") &&
    RegisterSegmentCase<CrcCorruptionStopsReplayAtTheTear>(
        "CrcCorruptionStopsReplayAtTheTear") &&
    RegisterSegmentCase<CorruptionInASealedSegmentIsDataLoss>(
        "CorruptionInASealedSegmentIsDataLoss") &&
    RegisterSegmentCase<TornHeaderOfTheLastSegmentNeverWedgesReopen>(
        "TornHeaderOfTheLastSegmentNeverWedgesReopen") &&
    RegisterSegmentCase<MissingMiddleSegmentIsDataLossNotSilence>(
        "MissingMiddleSegmentIsDataLossNotSilence") &&
    RegisterSegmentCase<SecondWriterOnTheSameDirIsRefused>(
        "SecondWriterOnTheSameDirIsRefused") &&
    RegisterSegmentCase<Format1SegmentsAreRefusedNotMisread>(
        "Format1SegmentsAreRefusedNotMisread");

TEST(EdgeLogTest, OversizedBatchesAreChunkedToStayReplayable) {
  const ScratchDir scratch("wal_chunk");
  const std::string& dir = scratch.path();
  Interner interner;
  FrameLogOptions options;
  options.max_record_bytes = 256;  // a handful of edges per record
  {
    auto log = EdgeLog::Open(dir, &interner, options).value();
    // One giant append: must be split into several records, never
    // written as a record replay would reject (valid CRC + oversized
    // frame = unrecoverable DataLoss, not a tolerable torn tail).
    ASSERT_TRUE(log->Append(SomeBatch(&interner, 40, 0)).ok());
    EXPECT_EQ(log->next_seq(), 40u);
    EXPECT_GT(log->stats().records_appended, 1u);
  }
  uint64_t replayed = 0;
  auto stats = EdgeLog::Replay(dir, 0, &interner,
                               [&](const EdgeBatch& batch, uint64_t) {
                                 replayed += batch.size();
                               },
                               options)
                   .value();
  EXPECT_EQ(replayed, 40u);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST(EdgeLogTest, OpenFastForwardsPastAPrunedOrLostWal) {
  const ScratchDir scratch("wal_ff");
  const std::string& dir = scratch.path();
  Interner interner;
  // A snapshot at seq 40 outlived its WAL (operator deleted it): the log
  // must resume at 40, not restart at 0 — snapshot filenames sort by
  // sequence, so a cursor reset would shadow every future snapshot.
  {
    auto log = EdgeLog::Open(dir, &interner, {}, /*min_seq=*/40).value();
    EXPECT_EQ(log->next_seq(), 40u);
    ASSERT_TRUE(log->Append(SomeBatch(&interner, 2, 0)).ok());
    EXPECT_EQ(log->next_seq(), 42u);
  }
  uint64_t first = 0;
  EdgeLog::Replay(dir, 40, &interner,
                  [&](const EdgeBatch&, uint64_t seq) { first = seq; })
      .value();
  EXPECT_EQ(first, 40u);
}

// --- Snapshot format -------------------------------------------------------

QueryGraph PathQuery(Interner* interner, std::string_view name = "path_q") {
  QueryGraphBuilder b(interner);
  const auto u = b.AddVertex("V");
  const auto h = b.AddVertex("V");
  const auto x = b.AddVertex("V");
  b.AddEdge(u, h, "login");
  b.AddEdge(h, x, "connect");
  return b.Build(name).value();
}

SnapshotContents SampleContents(Interner* interner) {
  SnapshotContents contents;
  contents.wal_seq = 77;
  contents.window.next_edge_id = 12;
  contents.window.watermark = 99;
  for (int i = 0; i < 5; ++i) {
    PersistedEdge pe;
    pe.edge = MakeEdge(interner, 1 + static_cast<uint64_t>(i), 2, "ping",
                       90 + i);
    pe.id = 6 + static_cast<EdgeId>(i);
    contents.window.edges.push_back(pe);
  }
  PersistedSession session;
  session.name = "tenant_a";
  PersistedSubscription sub;
  sub.tag = "hunt";
  sub.query = PathQuery(interner);
  sub.window = 50;
  sub.strategy = DecompositionStrategy::kLeftDeepEdgeOrder;
  sub.queue_capacity = 32;
  sub.policy = OverflowPolicy::kDropNewest;
  sub.paused = true;
  session.subscriptions.push_back(sub);
  contents.service.sessions.push_back(session);
  return contents;
}

TEST(SnapshotTest, EncodeDecodeRoundTripsAcrossInterners) {
  Interner encode_side;
  const SnapshotContents contents = SampleContents(&encode_side);
  const std::string blob =
      EncodeSnapshot(contents, encode_side).value();

  Interner decode_side;
  decode_side.Intern("skew");  // id spaces must not need to line up
  const SnapshotContents decoded =
      DecodeSnapshot(blob, &decode_side).value();
  EXPECT_EQ(decoded.wal_seq, 77u);
  EXPECT_EQ(decoded.window.next_edge_id, 12u);
  EXPECT_EQ(decoded.window.watermark, 99);
  ASSERT_EQ(decoded.window.edges.size(), 5u);
  EXPECT_EQ(decoded.window.edges[0].id, 6u);
  EXPECT_EQ(decode_side.Name(decoded.window.edges[0].edge.edge_label),
            "ping");
  ASSERT_EQ(decoded.service.sessions.size(), 1u);
  const PersistedSession& session = decoded.service.sessions[0];
  EXPECT_EQ(session.name, "tenant_a");
  ASSERT_EQ(session.subscriptions.size(), 1u);
  const PersistedSubscription& sub = session.subscriptions[0];
  EXPECT_EQ(sub.tag, "hunt");
  EXPECT_EQ(sub.query.name(), "path_q");
  EXPECT_EQ(sub.query.num_vertices(), 3);
  EXPECT_EQ(sub.query.num_edges(), 2);
  EXPECT_EQ(decode_side.Name(sub.query.edge(0).label), "login");
  EXPECT_EQ(sub.window, 50);
  EXPECT_EQ(sub.strategy, DecompositionStrategy::kLeftDeepEdgeOrder);
  EXPECT_EQ(sub.queue_capacity, 32u);
  EXPECT_EQ(sub.policy, OverflowPolicy::kDropNewest);
  EXPECT_TRUE(sub.paused);
}

TEST(SnapshotTest, EveryFlippedByteIsRejected) {
  Interner interner;
  const std::string blob =
      EncodeSnapshot(SampleContents(&interner), interner).value();
  // Any single-byte corruption must fail the CRC (or the magic check).
  for (size_t i = 0; i < blob.size(); i += 7) {
    std::string bad = blob;
    bad[i] ^= 0x40;
    Interner scratch;
    EXPECT_FALSE(DecodeSnapshot(bad, &scratch).ok()) << "offset " << i;
  }
  // Truncations at every length are rejected too, never crash.
  for (size_t len = 0; len < blob.size(); len += 11) {
    Interner scratch;
    EXPECT_FALSE(DecodeSnapshot(blob.substr(0, len), &scratch).ok())
        << "prefix " << len;
  }
}

TEST(SnapshotTest, LyingStringLengthWithForgedCrcIsRejected) {
  Interner interner;
  std::string blob =
      EncodeSnapshot(SampleContents(&interner), interner).value();
  // First string-table entry's u16 length sits right after the fixed
  // header + table count. Lie about it, then *re-forge the CRC* so only
  // the structural bounds checks stand between the lie and a crash.
  const size_t len_at = 4 + 4 + 8 + 8 + 8 + 4;
  blob[len_at] = '\xFF';
  blob[len_at + 1] = '\xFF';
  const uint32_t crc =
      Crc32(std::string_view(blob).substr(0, blob.size() - 4));
  for (int i = 0; i < 4; ++i) {
    blob[blob.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  Interner scratch;
  auto decoded = DecodeSnapshot(blob, &scratch);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotTest, HostileStringLengthsFailTheSnapshotNotTheProcess) {
  // Session names / tags are tenant-chosen; one past the u16 format
  // limit must fail encoding with a Status (a snapshot_failure), never
  // abort the daemon.
  Interner interner;
  SnapshotContents contents = SampleContents(&interner);
  contents.service.sessions[0].name = std::string(70000, 'x');
  auto encoded = EncodeSnapshot(contents, interner);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, LoaderFallsBackToPreviousValidSnapshot) {
  const ScratchDir scratch("snap_fallback");
  const std::string& dir = scratch.path();
  Interner interner;
  SnapshotContents old_contents = SampleContents(&interner);
  old_contents.wal_seq = 10;
  SnapshotContents new_contents = SampleContents(&interner);
  new_contents.wal_seq = 20;
  WriteSnapshotFile(dir, old_contents, interner).value();
  const std::string newest =
      WriteSnapshotFile(dir, new_contents, interner).value();

  // Corrupt the newest: the loader must fall back, not fail (and not
  // leak half-decoded labels into the interner).
  CorruptFileByte(newest, ReadWhole(newest).size() / 2);
  Interner load_side;
  auto loaded = LoadLatestSnapshot(dir, &load_side).value();
  EXPECT_EQ(loaded.contents.wal_seq, 10u);
  EXPECT_EQ(loaded.invalid_skipped, 1);

  // Both corrupt -> NotFound (fresh start), never a crash.
  const std::string oldest = loaded.path;
  CorruptFileByte(oldest, 40);
  Interner empty_side;
  auto none = LoadLatestSnapshot(dir, &empty_side);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, MissingDirectoryIsNotFound) {
  Interner interner;
  const ScratchDir scratch("snap_missing");
  auto loaded = LoadLatestSnapshot(scratch.path() + "/nope", &interner);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// --- Crash-recovery equivalence -------------------------------------------

/// One full durable deployment, assembled the way service_demo does it:
/// service -> DurableBackend -> single engine.
struct DurableStack {
  Interner interner;
  std::unique_ptr<StreamWorksEngine> engine;
  std::unique_ptr<SingleEngineBackend> inner;
  std::unique_ptr<DurableBackend> durable;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<DurabilityManager> manager;
  RecoveryReport recovered;

  static DurableStack Make(const std::string& dir, uint64_t snapshot_every) {
    DurableStack s;
    s.engine = std::make_unique<StreamWorksEngine>(&s.interner);
    s.inner = std::make_unique<SingleEngineBackend>(s.engine.get());
    s.durable = std::make_unique<DurableBackend>(s.inner.get());
    s.service = std::make_unique<QueryService>(s.durable.get());
    DurabilityOptions options;
    options.data_dir = dir;
    options.snapshot_every_edges = snapshot_every;
    s.manager = std::make_unique<DurabilityManager>(
        options, s.service.get(), s.durable.get(), &s.interner);
    s.recovered = s.manager->Start().value();
    return s;
  }
};

uint64_t Signature(const CompleteMatch& cm) {
  return cm.match.ExternalMappingSignature(*cm.graph);
}

/// Two standing queries over the random-stream label universe
/// ("VLi"/"ELi"): a single-edge trigger and a two-hop join. Fills
/// `subs_out` with tag -> subscription id (the ids a live frontend would
/// track itself; only a *recovered* incarnation resolves them via
/// AttachSession).
void SubmitStandingQueries(QueryService* service, Interner* interner,
                           int session_id,
                           std::map<std::string, int>* subs_out) {
  QueryGraphBuilder single(interner);
  {
    const auto a = single.AddVertex("VL0");
    const auto b = single.AddVertex("VL1");
    single.AddEdge(a, b, "EL0");
  }
  SubmitOptions opt1;
  opt1.window = 12;
  opt1.queue_capacity = 1u << 16;
  opt1.tag = "trigger";
  auto trigger =
      service->Submit(session_id, single.Build("trigger_q").value(), opt1);
  ASSERT_TRUE(trigger.ok());
  (*subs_out)["trigger"] = trigger.value();

  QueryGraphBuilder hop(interner);
  {
    const auto a = hop.AddVertex("VL0");
    const auto b = hop.AddVertex("VL1");
    const auto c = hop.AddVertex("VL0");
    hop.AddEdge(a, b, "EL1");
    hop.AddEdge(b, c, "EL2");
  }
  SubmitOptions opt2;
  opt2.window = 9;
  opt2.queue_capacity = 1u << 16;
  opt2.tag = "hop";
  auto hop_sub =
      service->Submit(session_id, hop.Build("hop_q").value(), opt2);
  ASSERT_TRUE(hop_sub.ok());
  (*subs_out)["hop"] = hop_sub.value();
}

std::vector<StreamEdge> EquivalenceStream(Interner* interner) {
  RandomStreamOptions opt;
  opt.seed = 4242;
  opt.num_vertices = 24;
  opt.num_edges = 600;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 3;
  return GenerateUniformStream(opt, interner);
}

/// Drains a subscription into a signature multiset (after Flush, so the
/// graph pointers are safe to dereference).
void DrainInto(QueryService* service, int session_id, int sub_id,
               std::multiset<uint64_t>* out) {
  ResultQueue* queue = service->queue(session_id, sub_id);
  ASSERT_NE(queue, nullptr);
  std::vector<CompleteMatch> matches;
  queue->Drain(&matches);
  for (const CompleteMatch& cm : matches) out->insert(Signature(cm));
}

// The equivalence scenario: feed all edges uninterrupted vs. crash after
// `cut` edges (snapshot cadence well before the cut, so a real WAL tail
// replays) and resume. The union of matches observed before the crash
// and after recovery must equal the uninterrupted run's multiset.
TEST(CrashRecoveryTest, SingleEngineMatchMultisetIsByteIdentical) {
  const ScratchDir scratch("equiv_crash");
  const std::string& dir = scratch.path();
  const ScratchDir ref_scratch("equiv_ref");

  // Reference: one uninterrupted durable run (durability on, so the two
  // runs take identical code paths; it just never crashes).
  std::map<std::string, std::multiset<uint64_t>> expected;
  {
    DurableStack ref = DurableStack::Make(ref_scratch.path(), 0);
    const auto edges = EquivalenceStream(&ref.interner);
    const int session = ref.service->OpenSession("tenant").value();
    std::map<std::string, int> subs;
    SubmitStandingQueries(ref.service.get(), &ref.interner, session,
                          &subs);
    for (const StreamEdge& e : edges) ref.service->Feed(e).ok();
    ref.service->Flush();
    for (const auto& [tag, sub_id] : subs) {
      DrainInto(ref.service.get(), session, sub_id, &expected[tag]);
    }
    ASSERT_FALSE(expected["trigger"].empty());
    ASSERT_FALSE(expected["hop"].empty());
  }

  // Crash run, phase 1: feed 60%, drain what was delivered, then die
  // without any shutdown snapshot (the stack just goes out of scope —
  // state survives only as WAL + the automatic mid-stream snapshots).
  std::map<std::string, std::multiset<uint64_t>> observed;
  size_t cut = 0;
  uint64_t wal_at_crash = 0;
  {
    DurableStack a = DurableStack::Make(dir, /*snapshot_every=*/150);
    const auto edges = EquivalenceStream(&a.interner);
    cut = edges.size() * 6 / 10;
    const int session = a.service->OpenSession("tenant").value();
    std::map<std::string, int> subs;
    SubmitStandingQueries(a.service.get(), &a.interner, session, &subs);
    for (size_t i = 0; i < cut; ++i) a.service->Feed(edges[i]).ok();
    a.service->Flush();
    for (const auto& [tag, sub_id] : subs) {
      DrainInto(a.service.get(), session, sub_id, &observed[tag]);
    }
    wal_at_crash = a.manager->counters().wal_seq;
  }
  ASSERT_EQ(wal_at_crash, cut);

  // Phase 2: recover from the data dir and resume the stream.
  {
    DurableStack b = DurableStack::Make(dir, /*snapshot_every=*/0);
    EXPECT_TRUE(b.recovered.snapshot_loaded);
    EXPECT_EQ(b.recovered.sessions, 1u);
    EXPECT_EQ(b.recovered.subscriptions, 2u);
    // The cut deliberately missed the snapshot cadence: a genuine WAL
    // tail had to replay.
    EXPECT_GT(b.recovered.replayed_edges, 0u);
    EXPECT_EQ(b.recovered.wal_seq, cut);

    const auto edges = EquivalenceStream(&b.interner);
    const AttachedSession attached =
        b.service->AttachSession("tenant").value();
    ASSERT_EQ(attached.subscriptions.size(), 2u);
    for (size_t i = cut; i < edges.size(); ++i) {
      b.service->Feed(edges[i]).ok();
    }
    b.service->Flush();
    for (const AttachedSubscription& sub : attached.subscriptions) {
      DrainInto(b.service.get(), attached.session_id, sub.subscription_id,
                &observed[sub.tag]);
    }
  }

  // Byte-identical multisets: nothing lost, nothing duplicated.
  EXPECT_EQ(observed["trigger"], expected["trigger"]);
  EXPECT_EQ(observed["hop"], expected["hop"]);
}

TEST(CrashRecoveryTest, PausedSubscriptionRecoversPaused) {
  const ScratchDir scratch("recover_paused");
  const std::string& dir = scratch.path();
  {
    DurableStack a = DurableStack::Make(dir, 0);
    const int session = a.service->OpenSession("t").value();
    QueryGraphBuilder b(&a.interner);
    const auto u = b.AddVertex("V");
    const auto v = b.AddVertex("V");
    b.AddEdge(u, v, "ping");
    SubmitOptions opt;
    opt.tag = "muted";
    opt.window = 100;
    const int sub =
        a.service->Submit(session, b.Build("q").value(), opt).value();
    ASSERT_TRUE(a.service->Pause(session, sub).ok());
    ASSERT_TRUE(a.manager->SnapshotNow().ok());
  }
  {
    DurableStack b = DurableStack::Make(dir, 0);
    const AttachedSession attached =
        b.service->AttachSession("t").value();
    ASSERT_EQ(attached.subscriptions.size(), 1u);
    EXPECT_EQ(attached.subscriptions[0].state, SubscriptionState::kPaused);
    // Still suppressing: a completing match is counted, not queued.
    b.service->Feed(MakeEdge(&b.interner, 1, 2, "ping", 5)).ok();
    b.service->Flush();
    const ServiceStatsSnapshot stats = b.service->Snapshot();
    EXPECT_EQ(stats.matches_enqueued, 0u);
    EXPECT_EQ(stats.matches_suppressed, 1u);
  }
}

TEST(CrashRecoveryTest, RestoredBlockSubscriptionComesBackPaused) {
  // A kBlock queue is only sound with a live consumer (the socket
  // frontend auto-streams such submissions for exactly that reason). A
  // restored one has no consumer until its owner re-attaches, so it
  // must come back paused — an active restored kBlock queue would let
  // any tenant's feed fill it and block delivery on the control thread
  // before the owner can even ATTACH.
  const ScratchDir scratch("recover_block");
  const std::string& dir = scratch.path();
  {
    DurableStack a = DurableStack::Make(dir, 0);
    const int session = a.service->OpenSession("t").value();
    QueryGraphBuilder b(&a.interner);
    const auto u = b.AddVertex("V");
    const auto v = b.AddVertex("V");
    b.AddEdge(u, v, "ping");
    SubmitOptions opt;
    opt.tag = "strict";
    opt.window = 100;
    opt.policy = OverflowPolicy::kBlock;
    opt.queue_capacity = 2;
    ASSERT_TRUE(a.service->Submit(session, b.Build("q").value(), opt).ok());
    ASSERT_TRUE(a.manager->SnapshotNow().ok());
  }
  DurableStack b = DurableStack::Make(dir, 0);
  // Feeding more matches than the tiny capacity must not wedge: the
  // restored subscription suppresses instead of blocking.
  for (int i = 0; i < 5; ++i) {
    b.service->Feed(MakeEdge(&b.interner, 1, 2, "ping", i)).ok();
  }
  b.service->Flush();
  const AttachedSession attached = b.service->AttachSession("t").value();
  ASSERT_EQ(attached.subscriptions.size(), 1u);
  EXPECT_EQ(attached.subscriptions[0].state, SubscriptionState::kPaused);
  // The owner resumes once its delivery path is in place.
  ASSERT_TRUE(
      b.service
          ->Resume(attached.session_id,
                   attached.subscriptions[0].subscription_id)
          .ok());
}

TEST(CrashRecoveryTest, SnapshotCadenceWritesAndPrunes) {
  const ScratchDir scratch("cadence");
  const std::string& dir = scratch.path();
  DurableStack stack = DurableStack::Make(dir, /*snapshot_every=*/10);
  for (int i = 0; i < 25; ++i) {
    stack.service->Feed(MakeEdge(&stack.interner, 1, 2, "ping", i)).ok();
  }
  const PersistCounters counters = stack.manager->counters();
  EXPECT_TRUE(counters.enabled);
  EXPECT_EQ(counters.snapshots_written, 2u);
  EXPECT_EQ(counters.last_snapshot_wal_seq, 20u);
  EXPECT_EQ(counters.wal_seq, 25u);
  // The probe surfaces through the service snapshot (STATS).
  const ServiceStatsSnapshot stats = stack.service->Snapshot();
  EXPECT_TRUE(stats.persist.enabled);
  EXPECT_EQ(stats.persist.snapshots_written, 2u);
  const std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("persist: wal_seq=25"), std::string::npos);

  int snap_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") ++snap_files;
  }
  EXPECT_EQ(snap_files, 2);
}

TEST(CrashRecoveryTest, SnapshotRetentionBoundsTheDataDir) {
  const ScratchDir scratch("retention");
  const std::string& dir = scratch.path();
  DurableStack stack = DurableStack::Make(dir, /*snapshot_every=*/2);
  for (int i = 0; i < 20; ++i) {
    stack.service->Feed(MakeEdge(&stack.interner, 1, 2, "ping", i)).ok();
  }
  EXPECT_EQ(stack.manager->counters().snapshots_written, 10u);
  // Only the fallback budget (default 4) stays on disk, newest last.
  std::vector<std::string> snaps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      snaps.push_back(entry.path().filename().string());
    }
  }
  std::sort(snaps.begin(), snaps.end());
  ASSERT_EQ(snaps.size(), 4u);
  EXPECT_EQ(snaps.back(), "snap-0000000000000014.snap");  // seq 20
  // And the loader still recovers from the newest survivor.
  EXPECT_EQ(PruneSnapshots(dir, 0).ok(), false);  // 0 keepers refused
  Interner load_side;
  EXPECT_EQ(LoadLatestSnapshot(dir, &load_side).value().contents.wal_seq,
            20u);
}

TEST(CrashRecoveryTest, RecoveryToleratesACorruptNewestSnapshot) {
  const ScratchDir scratch("recover_fallback");
  const std::string& dir = scratch.path();
  size_t fed = 0;
  {
    DurableStack a = DurableStack::Make(dir, 0);
    const int session = a.service->OpenSession("t").value();
    QueryGraphBuilder b(&a.interner);
    const auto u = b.AddVertex("V");
    const auto v = b.AddVertex("V");
    b.AddEdge(u, v, "ping");
    SubmitOptions opt;
    opt.tag = "live";
    opt.window = 1000;
    opt.queue_capacity = 1u << 12;
    ASSERT_TRUE(a.service->Submit(session, b.Build("q").value(), opt).ok());
    for (; fed < 10; ++fed) {
      a.service->Feed(MakeEdge(&a.interner, fed, fed + 1, "ping",
                               static_cast<Timestamp>(fed)))
          .ok();
    }
    ASSERT_TRUE(a.manager->SnapshotNow().ok());   // snap @ 10
    for (; fed < 15; ++fed) {
      a.service->Feed(MakeEdge(&a.interner, fed, fed + 1, "ping",
                               static_cast<Timestamp>(fed)))
          .ok();
    }
    ASSERT_TRUE(a.manager->SnapshotNow().ok());   // snap @ 15
    for (; fed < 18; ++fed) {
      a.service->Feed(MakeEdge(&a.interner, fed, fed + 1, "ping",
                               static_cast<Timestamp>(fed)))
          .ok();
    }
  }
  // Corrupt the newest snapshot; recovery must fall back to @10 and
  // replay the longer WAL tail (edges 10..18) — but the first snapshot
  // pruned nothing before @15 existed, so the tail is fully present.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string() ==
        "snap-000000000000000f.snap") {
      CorruptFileByte(entry.path().string(), 30);
    }
  }
  DurableStack b = DurableStack::Make(dir, 0);
  EXPECT_TRUE(b.recovered.snapshot_loaded);
  EXPECT_EQ(b.recovered.snapshot_wal_seq, 10u);
  EXPECT_EQ(b.recovered.replayed_edges, 8u);
  EXPECT_EQ(b.recovered.wal_seq, 18u);
  // All 18 edges are back in the window (unbounded retention survives).
  const AttachedSession attached = b.service->AttachSession("t").value();
  ASSERT_EQ(attached.subscriptions.size(), 1u);
}

TEST(CrashRecoveryTest, RecoverySweepsOrphanedSnapshotTempFiles) {
  const ScratchDir scratch("tmp_sweep");
  const std::string& dir = scratch.path();
  {
    DurableStack a = DurableStack::Make(dir, 0);
    a.service->Feed(MakeEdge(&a.interner, 1, 2, "ping", 1)).ok();
    ASSERT_TRUE(a.manager->SnapshotNow().ok());
  }
  // A crashed (or ENOSPC'd) writer leaves a half-written temp behind;
  // recovery must sweep it, and it must never count as a snapshot.
  std::ofstream(fs::path(dir) / "snap-00000000000000ff.snap.tmp")
      << "garbage";
  DurableStack b = DurableStack::Make(dir, 0);
  EXPECT_TRUE(b.recovered.snapshot_loaded);
  EXPECT_EQ(b.recovered.snapshot_wal_seq, 1u);
  EXPECT_FALSE(
      fs::exists(fs::path(dir) / "snap-00000000000000ff.snap.tmp"));
}

TEST(CrashRecoveryTest, SnapshotNowAfterFailedStartReturnsStatus) {
  const ScratchDir scratch("failed_start");
  const std::string& dir = scratch.path();
  Interner interner;
  // A corrupt *sealed* WAL segment makes recovery fail loudly...
  FrameLogOptions options;
  options.segment_bytes = 64;  // every record rotates
  {
    auto log = EdgeLog::Open(dir, &interner, options).value();
    ASSERT_TRUE(log->Append(SomeBatch(&interner, 2, 0)).ok());
    ASSERT_TRUE(log->Append(SomeBatch(&interner, 2, 10)).ok());
  }
  const auto first = (fs::path(dir) / "wal-0000000000000000.log").string();
  CorruptFileByte(first, fs::file_size(first) - 3);

  StreamWorksEngine engine(&interner);
  SingleEngineBackend inner(&engine);
  DurableBackend durable(&inner);
  QueryService service(&durable);
  DurabilityOptions dopts;
  dopts.data_dir = dir;
  DurabilityManager manager(dopts, &service, &durable, &interner);
  ASSERT_FALSE(manager.Start().ok());
  // ...and a later SnapshotNow (a stale hook, an embedder ignoring the
  // failure) gets a status, not a crash.
  auto snap = manager.SnapshotNow();
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CrashRecoveryTest, FreshDirectoryIsAFreshStart) {
  const ScratchDir scratch("fresh");
  DurableStack stack = DurableStack::Make(scratch.path(), 0);
  EXPECT_FALSE(stack.recovered.snapshot_loaded);
  EXPECT_EQ(stack.recovered.wal_seq, 0u);
  EXPECT_EQ(stack.recovered.replayed_edges, 0u);
  // And it serves normally.
  EXPECT_TRUE(stack.service->OpenSession("t").ok());
}

TEST(CrashRecoveryTest, ReplayedTailIsNotRelogged) {
  const ScratchDir scratch("no_double_log");
  const std::string& dir = scratch.path();
  {
    DurableStack a = DurableStack::Make(dir, 0);
    for (int i = 0; i < 7; ++i) {
      a.service->Feed(MakeEdge(&a.interner, 1, 2, "ping", i)).ok();
    }
  }
  {
    DurableStack b = DurableStack::Make(dir, 0);
    EXPECT_EQ(b.recovered.replayed_edges, 7u);
    EXPECT_EQ(b.recovered.wal_seq, 7u);  // replay appended nothing
    b.service->Feed(MakeEdge(&b.interner, 1, 2, "ping", 10)).ok();
    EXPECT_EQ(b.manager->counters().wal_seq, 8u);
  }
  // Third incarnation sees exactly 8 edges.
  DurableStack c = DurableStack::Make(dir, 0);
  EXPECT_EQ(c.recovered.replayed_edges, 8u);
}

}  // namespace
}  // namespace streamworks
