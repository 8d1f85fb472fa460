#ifndef STREAMWORKS_PERSIST_FRAME_LOG_H_
#define STREAMWORKS_PERSIST_FRAME_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "streamworks/common/statusor.h"
#include "streamworks/common/unique_fd.h"

namespace streamworks {

/// Knobs of a FrameLog (and of the EdgeLog codec on top of it).
struct FrameLogOptions {
  /// Rotate to a new segment once the current one reaches this size.
  size_t segment_bytes = 64u << 20;
  /// fsync after every N records; 0 = never (kernel page cache only:
  /// survives process death, not machine death), 1 = every append.
  /// Sync() forces one regardless. Cluster workers keep 0: a kill -9
  /// keeps every written page (the crash-recovery contract), and
  /// surviving a machine power loss is the durability tier above this.
  int fsync_every_records = 0;
  /// Append refuses, and replay treats as corruption, any record payload
  /// larger than this.
  size_t max_record_bytes = 16u << 20;
};

struct FrameLogStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t segments_created = 0;
};

/// One log record: an opaque payload covering `span` consecutive sequence
/// numbers (an edge WAL record spans its edges, a worker frame spans 1).
struct LogRecord {
  std::string_view payload;
  uint32_t span = 1;
};

/// The one segmented write-ahead log. A cluster worker logs every
/// state-bearing control frame through it before applying it (see
/// cluster/worker.h); the single-node edge WAL (persist/edge_log.h) logs
/// FEEDB-encoded edge batches through it.
///
/// On-disk layout: a directory of segments named
/// `<name>-<base_seq:016x>.log`, plus a flock'd `<name>.lock`.
///
///   segment header (20 bytes):
///     magic     4 bytes  "SWL2"
///     version   u32      2
///     base_seq  u64      sequence number of the segment's first record
///     crc       u32      CRC-32 of the 16 bytes above
///   record (repeated):
///     len       u32      byte length of the payload
///     crc       u32      CRC-32 of first_seq, span and payload
///     first_seq u64      sequence number of the record's first unit
///     span      u32      sequence numbers the record covers
///     payload   len bytes
///
/// Format 2 replaced the two format-1 layouts (the edge WAL's "SWL1" and
/// the worker log's "SWF1", with no span field); their segments are
/// refused with DataLoss, never dropped or misread.
///
/// Record-sequence continuity is checked from the headers alone. Torn
/// tails are expected (that is what a crash leaves): replay stops at the
/// first short or CRC-failing record of the *last* segment, and Open()
/// truncates it before appending over it. The same damage in a sealed
/// segment is data loss and fails loudly.
///
/// Not thread-safe: one thread owns a log.
class FrameLog {
 public:
  /// Opens `dir` for appending (creating it if missing) under the
  /// single-writer lock: validates the last segment record by record,
  /// truncates a torn tail, drops a torn last header, and positions
  /// next_seq() after the last durable record — or at `min_seq` if that
  /// is further (a snapshot may outlive its pruned log; the sequence must
  /// never run backwards past one). A fast-forward makes the next append
  /// start a fresh segment.
  static StatusOr<std::unique_ptr<FrameLog>> Open(const std::string& dir,
                                                  std::string_view name,
                                                  FrameLogOptions options = {},
                                                  uint64_t min_seq = 0);

  /// Appends `records` with one write(), assigning consecutive sequence
  /// ranges from next_seq(). All or nothing: on a failed write or a failed
  /// cadence fsync the bytes are truncated away, or the log is poisoned
  /// if even that fails. On return the bytes are durable against process
  /// death (against machine death only after Sync).
  Status Append(std::span<const LogRecord> records);
  Status Append(std::string_view payload) {
    const LogRecord record{payload, 1};
    return Append({&record, 1});
  }

  Status Sync();

  /// Deletes every segment that holds only sequence numbers below `seq`
  /// (a checkpoint at `seq` covers them). The segment containing `seq`
  /// and everything after it survive. Returns segments deleted.
  StatusOr<int> PruneSegmentsBelow(uint64_t seq);

  /// Sequence number the next record starts at.
  uint64_t next_seq() const { return next_seq_; }
  /// Segment files currently on disk.
  uint64_t num_segments() const { return num_segments_; }
  const FrameLogStats& stats() const { return stats_; }

  struct ReplayStats {
    uint64_t next_seq = 0;        ///< One past the last durable record.
    bool tail_truncated = false;  ///< A torn tail was skipped.
  };

  /// Receives each record in log order with its first sequence number. A
  /// non-OK return stops the replay and becomes its result.
  using ReplayFn =
      std::function<Status(const LogRecord& record, uint64_t first_seq)>;

  /// Replays every record reaching `from_seq` or beyond out of `dir` (a
  /// record straddling `from_seq` is delivered whole). A missing or empty
  /// directory replays nothing and reports next_seq == from_seq.
  static StatusOr<ReplayStats> Replay(const std::string& dir,
                                      std::string_view name,
                                      uint64_t from_seq, const ReplayFn& fn,
                                      FrameLogOptions options = {});

 private:
  FrameLog(std::string dir, std::string_view name, FrameLogOptions options)
      : dir_(std::move(dir)), name_(name), options_(options) {}

  /// Opens (creating) the segment whose base is next_seq_.
  Status OpenNewSegment();

  std::string dir_;
  std::string name_;
  FrameLogOptions options_;
  UniqueFd lock_fd_;  ///< flock'd <name>.lock: single writer.
  UniqueFd fd_;       ///< Current segment, opened for append.
  size_t segment_size_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t num_segments_ = 0;
  int records_since_sync_ = 0;
  /// Set when a failed append could not be rolled back, or an fsync
  /// failed: anything appended after torn bytes would be silently dropped
  /// by replay's tail truncation, so every further append is refused.
  bool broken_ = false;
  FrameLogStats stats_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_PERSIST_FRAME_LOG_H_
