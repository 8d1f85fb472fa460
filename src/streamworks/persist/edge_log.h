#ifndef STREAMWORKS_PERSIST_EDGE_LOG_H_
#define STREAMWORKS_PERSIST_EDGE_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/graph/stream_edge.h"
#include "streamworks/persist/frame_log.h"

namespace streamworks {

/// Counters of one edge log's lifetime in this process.
struct EdgeLogStats : FrameLogStats {
  uint64_t edges_appended = 0;
};

/// The write-ahead edge log: accepted Feed/FeedBatch input appended
/// *before* it is applied to the backend, so a crashed process can replay
/// everything past its last snapshot.
///
/// This is a codec over a FrameLog named "wal" (segments
/// `wal-<first_seq:016x>.log`; see frame_log.h for the segment format and
/// its crash discipline). Each record's payload is one FEEDB frame
/// (stream/wire_format.h) — the string-table-interned binary layout the
/// network wire uses, so the two codecs can never drift — and its span is
/// the frame's edge count. Sequence numbers therefore count *edges logged*
/// (not records, not engine edge ids — malformed edges are logged too,
/// log-before-apply, and re-reject deterministically on replay). A
/// snapshot stamps the sequence it was taken at; recovery replays
/// everything at or past that stamp.
///
/// Threading: all calls on one control thread (the same contract as the
/// QueryBackend it guards).
class EdgeLog {
 public:
  /// Opens `dir` for appending; see FrameLog::Open for the recovery
  /// steps and the `min_seq` fast-forward.
  static StatusOr<std::unique_ptr<EdgeLog>> Open(const std::string& dir,
                                                 const Interner* interner,
                                                 FrameLogOptions options = {},
                                                 uint64_t min_seq = 0);

  /// Appends `batch` (no-op when empty), assigning it sequence numbers
  /// [next_seq, next_seq + batch.size()). A batch whose frame would exceed
  /// max_record_bytes is split into several records, appended in one
  /// call, so it is logged whole or not at all.
  Status Append(const EdgeBatch& batch);

  /// Forces an fsync of the current segment.
  Status Sync() { return log_->Sync(); }

  /// Deletes every segment holding only edges below `seq` (a snapshot at
  /// `seq` covers them). Returns segments deleted.
  StatusOr<int> PruneSegmentsBelow(uint64_t seq) {
    return log_->PruneSegmentsBelow(seq);
  }

  /// Sequence number the next appended edge will get == total edges ever
  /// logged into this directory.
  uint64_t next_seq() const { return log_->next_seq(); }
  /// Segment files currently on disk.
  uint64_t num_segments() const { return log_->num_segments(); }
  EdgeLogStats stats() const {
    return {log_->stats(), log_->next_seq() - opened_seq_};
  }

  struct ReplayStats {
    uint64_t edges_replayed = 0;  ///< Edges delivered to the callback.
    uint64_t next_seq = 0;        ///< One past the last durable edge.
    bool tail_truncated = false;  ///< A torn tail was skipped.
  };

  /// Edges are delivered in logged order as (batch, first_seq) pairs;
  /// a record straddling `from_seq` is delivered trimmed.
  using ReplayFn =
      std::function<void(const EdgeBatch& batch, uint64_t first_seq)>;

  /// Replays every durable edge with sequence >= `from_seq` out of `dir`.
  /// Labels are interned into `interner` (the recovering process's own).
  /// A missing or empty directory replays nothing. A record that passes
  /// its CRC but does not decode to its span of edges is DataLoss.
  static StatusOr<ReplayStats> Replay(const std::string& dir,
                                      uint64_t from_seq, Interner* interner,
                                      const ReplayFn& fn,
                                      FrameLogOptions options = {});

 private:
  EdgeLog(std::unique_ptr<FrameLog> log, const Interner* interner,
          size_t max_record_bytes)
      : log_(std::move(log)),
        interner_(interner),
        max_record_bytes_(max_record_bytes),
        opened_seq_(log_->next_seq()) {}

  std::unique_ptr<FrameLog> log_;
  const Interner* interner_;
  size_t max_record_bytes_;
  uint64_t opened_seq_;  ///< next_seq at Open: the base of edges_appended.
};

}  // namespace streamworks

#endif  // STREAMWORKS_PERSIST_EDGE_LOG_H_
