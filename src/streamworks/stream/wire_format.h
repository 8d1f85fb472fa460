#ifndef STREAMWORKS_STREAM_WIRE_FORMAT_H_
#define STREAMWORKS_STREAM_WIRE_FORMAT_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "streamworks/common/codec.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/graph/stream_edge.h"

namespace streamworks {

/// Binary batch framing for the wire protocol ("FEEDB"): one
/// length-prefixed frame carries a whole EdgeBatch, so a remote feeder
/// pays per-frame (not per-edge) tokenization, dispatch, and response
/// costs — the batched fast path in-process callers already have through
/// QueryBackend::FeedBatch.
///
/// Frame layout (all integers little-endian):
///
///   magic      4 bytes   0xFB 'F' 'B' '1'
///   body_len   u32       byte length of everything after this field
///   body:
///     label table        u32 n + n x { len u16, bytes[len] }
///     n_edges  u32
///     n_edges  x edge record (36 bytes: src u64, dst u64, three u32
///                label-table indexes, ts i64)
///
/// The label table and the frame header are common/codec.h's, the edge
/// record graph/edge_record.h's.
///
/// The leading 0xFB byte cannot begin a text protocol line (commands are
/// ASCII), which is what lets a server demultiplex binary frames and text
/// lines from the same byte stream. Labels cross the wire as strings —
/// interned once per frame on receipt — because LabelIds are private to
/// each process's Interner.
inline constexpr char kFeedFrameMagic[4] = {'\xFB', 'F', 'B', '1'};
inline constexpr size_t kDefaultMaxFrameBodyBytes = 8u * 1024 * 1024;

/// True when `buf` begins with the frame-magic lead byte — i.e. the bytes
/// at the head of the buffer can only be (the beginning of) a binary
/// frame, never a text line.
bool IsFrameStart(std::string_view buf);

/// Serializes `batch` into one FEEDB frame. Label ids are resolved to
/// strings through `interner` and deduplicated into the frame's string
/// table (each distinct label costs its bytes once per frame, not once
/// per edge). InvalidArgument when the batch cannot be represented (a
/// label longer than 64KB, or a body past the u32 length prefix) —
/// truncating silently would declare lengths that disagree with the
/// bytes and desync the decoder.
StatusOr<std::string> EncodeFeedFrame(const EdgeBatch& batch,
                                      const Interner& interner);

/// Parses the six FEED text fields `<src> <SrcLabel> <dst> <DstLabel>
/// <edgeLabel> <ts>` into `edge`, interning labels into `interner`. The
/// one FEED-line grammar shared by the interpreter's text path and the
/// client's --feed-file parser, so the two can never drift.
Status ParseFeedFields(std::span<const std::string_view> fields,
                       Interner* interner, StreamEdge* edge);

/// The outcome of decoding one FEEDB frame (status, frame_bytes and error
/// are FrameOutcome's) and, for kOk, its batch.
struct FrameDecodeResult : FrameOutcome {
  EdgeBatch batch;  ///< Valid for kOk.
};

/// Attempts to decode one frame from the head of `buf` (which must begin
/// with the magic lead byte). Never consumes: the caller advances its
/// buffer by `frame_bytes`. Each string-table label is interned into
/// `interner` exactly once per frame.
FrameDecodeResult DecodeFeedFrame(std::string_view buf,
                                  size_t max_body_bytes, Interner* interner);

}  // namespace streamworks

#endif  // STREAMWORKS_STREAM_WIRE_FORMAT_H_
