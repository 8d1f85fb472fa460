#include "streamworks/persist/edge_log.h"

#include <string>
#include <utility>
#include <vector>

#include "streamworks/common/str_util.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {

namespace {

constexpr std::string_view kLogName = "wal";

/// Appends `batch` to `frames` as FEEDB frames of at most `max_bytes`
/// each, halving any part that does not fit.
Status EncodeSplit(const EdgeBatch& batch, const Interner& interner,
                   size_t max_bytes,
                   std::vector<std::pair<std::string, uint32_t>>* frames) {
  SW_ASSIGN_OR_RETURN(std::string frame, EncodeFeedFrame(batch, interner));
  if (frame.size() <= max_bytes) {
    frames->emplace_back(std::move(frame), static_cast<uint32_t>(batch.size()));
    return OkStatus();
  }
  if (batch.size() <= 1) {
    // Three u16-bounded labels cap a one-edge frame far below any sane
    // limit, so this is a misconfiguration, not an input problem.
    return Status::InvalidArgument(
        StrCat("one-edge WAL record of ", frame.size(),
               " bytes exceeds max_record_bytes (", max_bytes,
               "); raise the limit — replay would reject the record"));
  }
  const auto mid = batch.begin() + static_cast<ptrdiff_t>(batch.size() / 2);
  SW_RETURN_IF_ERROR(
      EncodeSplit(EdgeBatch(batch.begin(), mid), interner, max_bytes, frames));
  return EncodeSplit(EdgeBatch(mid, batch.end()), interner, max_bytes, frames);
}

}  // namespace

StatusOr<std::unique_ptr<EdgeLog>> EdgeLog::Open(const std::string& dir,
                                                 const Interner* interner,
                                                 FrameLogOptions options,
                                                 uint64_t min_seq) {
  SW_ASSIGN_OR_RETURN(std::unique_ptr<FrameLog> log,
                      FrameLog::Open(dir, kLogName, options, min_seq));
  return std::unique_ptr<EdgeLog>(
      new EdgeLog(std::move(log), interner, options.max_record_bytes));
}

Status EdgeLog::Append(const EdgeBatch& batch) {
  if (batch.empty()) return OkStatus();
  // This runs per Feed on the durable ingest path: a batch that fits is
  // one frame handed straight to the log, with no further copies.
  SW_ASSIGN_OR_RETURN(const std::string frame,
                      EncodeFeedFrame(batch, *interner_));
  if (frame.size() <= max_record_bytes_) {
    const LogRecord record{frame, static_cast<uint32_t>(batch.size())};
    return log_->Append({&record, 1});
  }
  // Replay decodes each record under max_record_bytes; a record written
  // past that bound would be ACKed today and poison the directory on the
  // next restart (valid CRC, so no torn-tail tolerance applies). A giant
  // in-process batch is split instead.
  std::vector<std::pair<std::string, uint32_t>> frames;
  SW_RETURN_IF_ERROR(
      EncodeSplit(batch, *interner_, max_record_bytes_, &frames));
  std::vector<LogRecord> records;
  records.reserve(frames.size());
  for (const auto& [bytes, span] : frames) records.push_back({bytes, span});
  return log_->Append(records);
}

StatusOr<EdgeLog::ReplayStats> EdgeLog::Replay(const std::string& dir,
                                               uint64_t from_seq,
                                               Interner* interner,
                                               const ReplayFn& fn,
                                               FrameLogOptions options) {
  ReplayStats stats;
  const auto decode = [&](const LogRecord& record,
                          uint64_t first_seq) -> Status {
    FrameDecodeResult decoded =
        DecodeFeedFrame(record.payload, options.max_record_bytes, interner);
    if (decoded.status != FrameDecodeStatus::kOk ||
        decoded.frame_bytes != record.payload.size() ||
        decoded.batch.size() != record.span) {
      // The CRC passed, so this is not a torn write — the record was
      // encoded wrong (or the format changed). Refuse to guess.
      return Status::DataLoss(StrCat("undecodable WAL record at seq ",
                                     first_seq, ": ", decoded.error));
    }
    if (first_seq < from_seq) {
      // The record straddles the snapshot stamp: deliver only the tail.
      decoded.batch.erase(
          decoded.batch.begin(),
          decoded.batch.begin() + static_cast<ptrdiff_t>(from_seq - first_seq));
      first_seq = from_seq;
    }
    stats.edges_replayed += decoded.batch.size();
    fn(decoded.batch, first_seq);
    return OkStatus();
  };
  SW_ASSIGN_OR_RETURN(const FrameLog::ReplayStats log_stats,
                      FrameLog::Replay(dir, kLogName, from_seq, decode,
                                       options));
  stats.next_seq = log_stats.next_seq;
  stats.tail_truncated = log_stats.tail_truncated;
  return stats;
}

}  // namespace streamworks
