#ifndef STREAMWORKS_COMMON_CODEC_H_
#define STREAMWORKS_COMMON_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "streamworks/common/binio.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/status.h"
#include "streamworks/common/types.h"

namespace streamworks {

/// The pieces every binary format shares: FEEDB frames
/// (stream/wire_format.h), cluster control frames (stream/cluster_wire.h)
/// and snapshot files (persist/snapshot.h) are each a layout over these,
/// so the three can never disagree on how a string, a label table or a
/// frame header is written and checked. The edge record they all carry
/// is in graph/edge_record.h. All integers are little-endian (binio.h).

// --- Frame header ------------------------------------------------------------

/// Every framed format opens with a 4-byte magic and the u32 byte length
/// of the body that follows.
inline constexpr size_t kFrameHeaderBytes = 8;

enum class FrameDecodeStatus {
  kNeedMore,   ///< The buffer holds a frame prefix; read more bytes.
  kOk,         ///< One whole frame decoded.
  kOversized,  ///< body_len exceeds the limit; skip `frame_bytes` total.
  kMalformed,  ///< Structurally invalid body (or bad magic: frame_bytes 0).
};

/// The part of a frame decoder's answer that the header decides; each
/// framed decoder's result extends it with the decoded payload.
struct FrameOutcome {
  FrameDecodeStatus status = FrameDecodeStatus::kNeedMore;
  /// Total frame size (header + body). For kOk: how many bytes to
  /// consume. For kOversized / kMalformed: how many bytes to skip to stay
  /// in sync — except frame_bytes == 0 (magic mismatch), where the stream
  /// position is unrecoverable.
  size_t frame_bytes = 0;
  std::string error;  ///< Human-readable cause for kOversized/kMalformed.
};

/// Reads the frame header at the head of `buf` into `*outcome` and
/// returns the body, which is whole only when the status is kOk: a short
/// buffer is kNeedMore, a wrong magic kMalformed with frame_bytes 0, and
/// a body over `max_body_bytes` kOversized. Never consumes. `kind` names
/// the format in errors.
std::string_view ReadFrameHeader(std::string_view buf, const char (&magic)[4],
                                 size_t max_body_bytes, std::string_view kind,
                                 FrameOutcome* outcome);

/// A frame under construction: `magic`, then a body length that
/// EndFrame fills in once the body is appended.
std::string BeginFrame(const char (&magic)[4]);

/// Writes the body length of a frame BeginFrame started. InvalidArgument
/// when the body is past the u32 length prefix.
Status EndFrame(std::string* frame);

// --- Strings -----------------------------------------------------------------

/// The longest string a {u16 len, bytes} entry can carry.
inline constexpr size_t kMaxStringBytes = 65535;

/// InvalidArgument when `s` is longer than kMaxStringBytes. Strings can be
/// tenant-chosen (labels, query and session names), and a truncated
/// length prefix would disagree with the bytes after it and desynchronize
/// every reader, so every encoder refuses such a string instead.
Status CheckStringLength(std::string_view s);

/// Appends `s` as {u16 len, bytes}, after CheckStringLength.
Status PutString(std::string* out, std::string_view s);

// --- Reader ------------------------------------------------------------------

/// Bounds-checked little-endian reader over one body. Every getter fails
/// closed: once a read runs past the end (or the decoder calls Fail) the
/// reader stops moving and returns zeros, so a decoder can read a whole
/// record and check ok() once. A corrupt or hostile body fails decoding;
/// it never reads out of bounds.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  /// The unread bytes, without consuming them.
  std::string_view rest() const { return std::string_view(p_, remaining()); }

  /// Fails the reader; the first failure's reason is kept.
  void Fail(std::string_view why);

  uint8_t U8(std::string_view what) { return Get<uint8_t>(what); }
  uint16_t U16(std::string_view what) { return Get<uint16_t>(what); }
  uint32_t U32(std::string_view what) { return Get<uint32_t>(what); }
  uint64_t U64(std::string_view what) { return Get<uint64_t>(what); }
  int32_t I32(std::string_view what) { return static_cast<int32_t>(U32(what)); }
  int64_t I64(std::string_view what) { return static_cast<int64_t>(U64(what)); }
  std::string_view Bytes(size_t n, std::string_view what) {
    if (!Need(n, what)) return {};
    const std::string_view v(p_, n);
    p_ += n;
    return v;
  }
  /// One {u16 len, bytes} string.
  std::string String(std::string_view what);
  /// True when `count` items of at least `min_bytes` each fit in the
  /// remaining bytes; otherwise fails as "<what> count exceeds body". A
  /// count read off the wire passes this before it sizes anything.
  bool Fits(uint64_t count, size_t min_bytes, std::string_view what);
  /// A run of `count` fixed-size records (Fits, then one bounds check for
  /// the whole run).
  std::string_view Records(uint64_t count, size_t record_bytes,
                           std::string_view what);

 private:
  template <typename T>
  T Get(std::string_view what) {
    if (!Need(sizeof(T), what)) return 0;
    const T v = GetLe<T>(p_);
    p_ += sizeof(T);
    return v;
  }
  // The getters run per field on every decode path, so the check is
  // inline and only the failure is a call.
  bool Need(size_t n, std::string_view what) {
    if (ok_ && remaining() >= n) return true;
    FailTruncated(what);
    return false;
  }
  void FailTruncated(std::string_view what);

  const char* p_;
  const char* end_;
  bool ok_ = true;
  std::string error_;
};

// --- Label string table ------------------------------------------------------

/// Resolves a LabelId to its string for encoding. An std::function rather
/// than an Interner because the coordinator's ingest pump encodes off the
/// control thread and reads a thread-safe name cache instead of the
/// shared (non-thread-safe) interner.
using LabelNameFn = std::function<std::string_view(LabelId)>;

/// Names through `interner`, which must outlive the returned function.
LabelNameFn InternerNames(const Interner& interner);

/// Encode side of a label string table: u32 n, then n {u16 len, bytes}
/// entries in first-seen order, so the same records always produce the
/// same bytes. Labels cross every format as strings because LabelIds are
/// private to each process's Interner; records carry u32 indexes into
/// the table, and each distinct label costs its bytes once per table.
class LabelTableWriter {
 public:
  /// The table index of `id`, adding it on first sight.
  uint32_t IndexOf(LabelId id) {
    const auto [it, inserted] =
        index_.try_emplace(id, static_cast<uint32_t>(ids_.size()));
    if (inserted) ids_.push_back(id);
    return it->second;
  }

  /// Appends the table. InvalidArgument when a name is longer than
  /// kMaxStringBytes.
  Status Write(std::string* out, const LabelNameFn& name) const;

  size_t size() const { return ids_.size(); }

 private:
  std::vector<LabelId> ids_;
  std::unordered_map<LabelId, uint32_t> index_;
};

/// Decode side: reads a table, interning each entry into `interner` once.
/// A count beyond remaining/2 is a lie (an entry costs at least its u16
/// length) and fails before it sizes anything.
std::vector<LabelId> ReadLabelTable(WireReader* r, Interner* interner);

/// `table[index]`, or kInvalidLabelId with `r` failed when the index is
/// outside the table.
inline LabelId TableLabel(WireReader* r, std::span<const LabelId> table,
                          uint32_t index) {
  if (index < table.size()) return table[index];
  r->Fail("label index out of string-table range");
  return kInvalidLabelId;
}

}  // namespace streamworks

#endif  // STREAMWORKS_COMMON_CODEC_H_
