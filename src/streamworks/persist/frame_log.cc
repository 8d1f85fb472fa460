#include "streamworks/persist/frame_log.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include "streamworks/common/binio.h"
#include "streamworks/common/str_util.h"
#include "streamworks/persist/crc32.h"
#include "streamworks/persist/fs_util.h"

namespace streamworks {

namespace {

constexpr char kSegmentMagic[4] = {'S', 'W', 'L', '2'};
constexpr uint32_t kSegmentVersion = 2;
constexpr size_t kSegmentHeaderBytes = 20;
// len u32 + crc u32 + first_seq u64 + span u32; the CRC covers everything
// from first_seq on.
constexpr size_t kRecordHeaderBytes = 20;
constexpr size_t kRecordCrcFrom = 8;

StatusOr<std::vector<std::pair<uint64_t, std::filesystem::path>>>
ListSegments(const std::string& dir, std::string_view name) {
  return ListSeqFiles(dir, std::string(name) + "-", ".log");
}

/// Reads a segment header: its base sequence, or nullopt when the header
/// is torn (short, or failing its CRC: the debris of a crash inside
/// OpenNewSegment). An intact header of another format is DataLoss — a
/// format-1 segment must be refused, never dropped as debris or misread.
StatusOr<std::optional<uint64_t>> ReadSegmentHeader(std::string_view bytes,
                                                    const std::string& what) {
  if (bytes.size() < kSegmentHeaderBytes ||
      Crc32(bytes.substr(0, 16)) != GetU32(bytes.data() + 16)) {
    return std::optional<uint64_t>();
  }
  if (std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0 ||
      GetU32(bytes.data() + 4) != kSegmentVersion) {
    return Status::DataLoss(StrCat(
        what, ": not a format-", kSegmentVersion,
        " log segment (format-1 SWL1/SWF1 segments are not readable; "
        "replay them with the release that wrote them)"));
  }
  return std::optional<uint64_t>(GetU64(bytes.data() + 8));
}

struct SegmentScan {
  uint64_t next_seq = 0;   ///< One past the last valid record.
  size_t valid_bytes = 0;  ///< Offset of the first invalid byte.
  bool tail_truncated = false;
};

/// Walks a segment's records, delivering those reaching `from_seq` to `fn`
/// (null fn = validate only). Stops at the first torn record; a CRC-valid
/// record that breaks sequence continuity or the size bound is DataLoss
/// (it is not crash damage).
StatusOr<SegmentScan> ScanSegment(std::string_view bytes, uint64_t base_seq,
                                  uint64_t from_seq, size_t max_record_bytes,
                                  const FrameLog::ReplayFn* fn,
                                  const std::string& what) {
  SegmentScan scan;
  scan.next_seq = base_seq;
  scan.valid_bytes = kSegmentHeaderBytes;
  size_t pos = kSegmentHeaderBytes;
  while (pos < bytes.size()) {
    const char* header = bytes.data() + pos;
    const size_t left = bytes.size() - pos;
    const uint32_t len = left < kRecordHeaderBytes ? 0 : GetU32(header);
    if (left < kRecordHeaderBytes || left - kRecordHeaderBytes < len ||
        Crc32(bytes.substr(pos + kRecordCrcFrom,
                           kRecordHeaderBytes - kRecordCrcFrom + len)) !=
            GetU32(header + 4)) {
      scan.tail_truncated = true;
      return scan;
    }
    const uint64_t first_seq = GetU64(header + 8);
    const uint32_t span = GetU32(header + 16);
    if (first_seq != scan.next_seq) {
      return Status::DataLoss(StrCat(what, ": record sequence jumped from ",
                                     scan.next_seq, " to ", first_seq));
    }
    if (len > max_record_bytes) {
      return Status::DataLoss(StrCat(what, ": record of ", len,
                                     " bytes exceeds max_record_bytes"));
    }
    if (fn != nullptr && first_seq + span > from_seq) {
      SW_RETURN_IF_ERROR((*fn)(
          LogRecord{bytes.substr(pos + kRecordHeaderBytes, len), span},
          first_seq));
    }
    scan.next_seq += span;
    pos += kRecordHeaderBytes + len;
    scan.valid_bytes = pos;
  }
  return scan;
}

}  // namespace

StatusOr<std::unique_ptr<FrameLog>> FrameLog::Open(const std::string& dir,
                                                   std::string_view name,
                                                   FrameLogOptions options,
                                                   uint64_t min_seq) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create log dir " + dir + ": " +
                           ec.message());
  }
  auto log = std::unique_ptr<FrameLog>(new FrameLog(dir, name, options));
  log->next_seq_ = min_seq;

  // Single-writer lock: two processes appending into the same segments
  // would interleave bytes and destroy record framing for both — ACKed,
  // even fsynced, records included. O_EXCL on segment creation guards
  // only the create path; this guards the directory for the log's
  // lifetime (closing the fd releases the flock).
  const std::filesystem::path lock_path =
      std::filesystem::path(dir) / (std::string(name) + ".lock");
  const int lock_fd =
      ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lock_fd < 0) {
    return Status::IoError(StrCat("cannot open log lock ",
                                  lock_path.string(), ": ",
                                  std::strerror(errno)));
  }
  log->lock_fd_.reset(lock_fd);
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    return Status::FailedPrecondition(
        "another process holds the log at " + dir +
        " (two writers would corrupt acknowledged records)");
  }

  SW_ASSIGN_OR_RETURN(auto segments, ListSegments(dir, name));
  log->num_segments_ = segments.size();

  // Older segments were sealed (fsynced) by rotation; only the last one
  // can carry crash damage. A torn tail is truncated away; a torn header
  // (a crash inside OpenNewSegment, before any record landed) drops the
  // whole file and falls back to the now-last segment, mirroring what
  // Replay tolerates. Recovery must never be wedged by the debris of the
  // very crash it exists to absorb.
  while (!segments.empty()) {
    const auto& [base, path] = segments.back();
    SW_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
    SW_ASSIGN_OR_RETURN(const std::optional<uint64_t> header,
                        ReadSegmentHeader(bytes, path.string()));
    if (header != base) {
      std::filesystem::remove(path, ec);
      if (ec) {
        return Status::IoError("cannot drop torn log segment " +
                               path.string() + ": " + ec.message());
      }
      segments.pop_back();
      --log->num_segments_;
      continue;
    }
    SW_ASSIGN_OR_RETURN(
        const SegmentScan scan,
        ScanSegment(bytes, base, /*from_seq=*/0, options.max_record_bytes,
                    nullptr, path.string()));
    if (scan.valid_bytes < bytes.size()) {
      std::filesystem::resize_file(path, scan.valid_bytes, ec);
      if (ec) {
        return Status::IoError("cannot truncate torn log tail of " +
                               path.string() + ": " + ec.message());
      }
    }
    if (scan.next_seq < log->next_seq_) {
      // The durable log ends before min_seq. Keep the fast-forwarded
      // cursor and leave fd_ closed so the next append starts a fresh
      // segment based there.
      return log;
    }
    log->next_seq_ = scan.next_seq;
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError(StrCat("cannot reopen log segment ",
                                    path.string(), ": ",
                                    std::strerror(errno)));
    }
    log->fd_.reset(fd);
    log->segment_size_ = scan.valid_bytes;
    break;
  }
  return log;
}

Status FrameLog::OpenNewSegment() {
  const std::filesystem::path path =
      std::filesystem::path(dir_) / SeqFileName(name_ + "-", next_seq_, ".log");
  // O_EXCL guards against two logs on one directory; a leftover from a
  // failed rotation attempt of this very log was unlinked below, so a
  // retry after a transient error (ENOSPC freed, say) takes this path
  // cleanly instead of wedging on EEXIST forever.
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError(StrCat("cannot create log segment ",
                                  path.string(), ": ",
                                  std::strerror(errno)));
  }
  fd_.reset(fd);
  std::string header;
  header.append(kSegmentMagic, sizeof(kSegmentMagic));
  PutU32(&header, kSegmentVersion);
  PutU64(&header, next_seq_);
  PutU32(&header, Crc32(header));
  if (Status written = WriteAll(fd_.get(), header); !written.ok()) {
    fd_.reset();
    ::unlink(path.c_str());
    return written;
  }
  // Make the directory entry durable too: a machine crash that forgets
  // the *file* would lose its fsynced records with no DataLoss signal
  // (the vanished segment would look like a clean log end).
  FsyncDir(dir_);
  segment_size_ = header.size();
  stats_.bytes_appended += header.size();
  ++stats_.segments_created;
  ++num_segments_;
  return OkStatus();
}

Status FrameLog::Append(std::span<const LogRecord> records) {
  if (records.empty()) return OkStatus();
  if (broken_) {
    return Status::IoError(
        "log poisoned: an earlier failed append could not be rolled back, "
        "so further appends would land after torn bytes and be silently "
        "dropped by replay");
  }
  size_t total = 0;
  for (const LogRecord& record : records) {
    if (record.payload.size() > options_.max_record_bytes) {
      return Status::InvalidArgument(
          StrCat("log record of ", record.payload.size(),
                 " bytes exceeds max_record_bytes (",
                 options_.max_record_bytes,
                 "); replay would reject the record"));
    }
    total += kRecordHeaderBytes + record.payload.size();
  }
  if (!fd_.valid() || segment_size_ >= options_.segment_bytes) {
    if (fd_.valid()) {
      // Seal the outgoing segment: its bytes must be durable before the
      // successor exists, or replay could see a gap.
      SW_RETURN_IF_ERROR(Sync());
    }
    SW_RETURN_IF_ERROR(OpenNewSegment());
  }
  // One buffer for the whole call, so one ftruncate undoes all of it.
  std::string buf;
  buf.reserve(total);
  uint64_t seq = next_seq_;
  for (const LogRecord& record : records) {
    const size_t at = buf.size();
    PutU32(&buf, static_cast<uint32_t>(record.payload.size()));
    PutU32(&buf, 0);  // crc placeholder
    PutU64(&buf, seq);
    PutU32(&buf, record.span);
    buf.append(record.payload);
    const uint32_t crc =
        Crc32(std::string_view(buf).substr(at + kRecordCrcFrom));
    for (size_t i = 0; i < 4; ++i) {
      buf[at + 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    seq += record.span;
  }
  // Rollback-or-poison: torn or unwanted bytes are truncated away so a
  // later successful append never lands after them (replay's tail
  // truncation would silently discard it, ACKed or not). If the rollback
  // fails too, poison: failing every future append loudly beats quietly
  // losing acknowledged records.
  const auto roll_back = [&](Status failure) {
    if (::ftruncate(fd_.get(), static_cast<off_t>(segment_size_)) != 0) {
      broken_ = true;
    }
    return failure;
  };
  if (Status written = WriteAll(fd_.get(), buf); !written.ok()) {
    return roll_back(written);
  }
  records_since_sync_ += static_cast<int>(records.size());
  if (options_.fsync_every_records > 0 &&
      records_since_sync_ >= options_.fsync_every_records) {
    // The caller fails its operation on error, so the records must not
    // survive either: a CRC-valid record for input reported as failed
    // would be applied at recovery.
    if (Status synced = Sync(); !synced.ok()) return roll_back(synced);
  }
  segment_size_ += buf.size();
  next_seq_ = seq;
  stats_.records_appended += records.size();
  stats_.bytes_appended += buf.size();
  return OkStatus();
}

Status FrameLog::Sync() {
  if (!fd_.valid()) return OkStatus();
  if (::fsync(fd_.get()) != 0) {
    // A failed fsync may have marked dirty pages clean (the Linux
    // fsync-gate problem): earlier cadence-ACKed records can now be lost
    // by a machine crash even though a retry would report success.
    // Nothing short of a restart (which re-reads the durable truth) makes
    // this log trustworthy again — poison it.
    broken_ = true;
    return Status::IoError(StrCat("log fsync failed: ",
                                  std::strerror(errno)));
  }
  records_since_sync_ = 0;
  ++stats_.fsyncs;
  return OkStatus();
}

StatusOr<int> FrameLog::PruneSegmentsBelow(uint64_t seq) {
  SW_ASSIGN_OR_RETURN(auto segments, ListSegments(dir_, name_));
  int deleted = 0;
  // Segment i holds [base_i, base_{i+1}); a checkpoint at `seq` covers it
  // iff its successor's base is <= seq. The last segment always survives
  // (it is open for append).
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first > seq) break;
    std::error_code ec;
    std::filesystem::remove(segments[i].second, ec);
    if (ec) {
      return Status::IoError("cannot prune log segment " +
                             segments[i].second.string() + ": " +
                             ec.message());
    }
    ++deleted;
    --num_segments_;
  }
  return deleted;
}

StatusOr<FrameLog::ReplayStats> FrameLog::Replay(const std::string& dir,
                                                 std::string_view name,
                                                 uint64_t from_seq,
                                                 const ReplayFn& fn,
                                                 FrameLogOptions options) {
  ReplayStats stats;
  stats.next_seq = from_seq;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return stats;
  SW_ASSIGN_OR_RETURN(auto segments, ListSegments(dir, name));

  // End of the previous *scanned* segment: consecutive scanned segments
  // must be seamless, or a lost sealed segment in the middle would
  // silently swallow its records. (Skipped segments sit wholly below
  // from_seq — a gap after one is below from_seq too, hence harmless.)
  std::optional<uint64_t> prev_end;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [base, path] = segments[i];
    const bool last = i + 1 == segments.size();
    // A whole segment below from_seq is already covered; skip the read
    // (its successor's base bounds its content).
    if (!last && segments[i + 1].first <= from_seq) continue;
    if (prev_end.has_value() && base != *prev_end) {
      return Status::DataLoss(
          StrCat(path.string(), ": WAL gap — previous segment ends at ",
                 *prev_end, " but this one starts at ", base));
    }
    // The first scanned segment must reach back to from_seq: pruning
    // always keeps the segment containing the checkpoint, so a first base
    // beyond from_seq means records in [from_seq, base) are simply gone.
    if (!prev_end.has_value() && base > from_seq) {
      return Status::DataLoss(
          StrCat(path.string(), ": WAL starts at ", base,
                 " but replay needs records from ", from_seq));
    }
    SW_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
    SW_ASSIGN_OR_RETURN(const std::optional<uint64_t> header,
                        ReadSegmentHeader(bytes, path.string()));
    if (header != base) {
      if (last) {
        // A crash can tear even the header of a freshly rotated segment;
        // everything before it already replayed.
        stats.tail_truncated = true;
        break;
      }
      return Status::DataLoss(path.string() +
                              (header.has_value()
                                   ? ": filename and header disagree"
                                   : ": torn header of a sealed segment"));
    }
    SW_ASSIGN_OR_RETURN(const SegmentScan scan,
                        ScanSegment(bytes, base, from_seq,
                                    options.max_record_bytes, &fn,
                                    path.string()));
    if (scan.tail_truncated) {
      if (!last) {
        return Status::DataLoss(path.string() +
                                ": torn record in a sealed segment");
      }
      stats.tail_truncated = true;
    }
    prev_end = scan.next_seq;
    stats.next_seq = std::max(stats.next_seq, scan.next_seq);
  }
  return stats;
}

}  // namespace streamworks
