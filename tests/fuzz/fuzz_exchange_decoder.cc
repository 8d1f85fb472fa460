// Fuzz target for the cluster control-frame decoder — the parser every
// coordinator/worker link trusts with raw socket bytes, including the
// exchange payloads that carry partial matches between shards and the
// frame-log records a recovering worker replays. DecodeCtrlFrame must
// never read out of bounds, loop, or report a consumption count that
// would desync the link, no matter the bytes.
//
// Built by -DSTREAMWORKS_FUZZ=ON: under clang as a libFuzzer binary
// (-fsanitize=fuzzer), under gcc linked against the corpus replay driver
// (tests/fuzz/replay_driver.cc). Seeds live in tests/fuzz/corpus/exchange/.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "streamworks/common/interner.h"
#include "streamworks/stream/cluster_wire.h"

namespace {

// A failed invariant must crash loudly under the fuzzer, not just return.
void Check(bool ok) {
  if (!ok) __builtin_trap();
}

// Re-encodes an accepted frame and requires the copy to decode to the
// same type — the discipline the worker's log replay depends on (it logs
// every state frame re-encoded through EncodeCtrlFrame).
void CheckReencode(const streamworks::CtrlFrame& frame,
                   const streamworks::Interner& interner,
                   size_t max_body_bytes) {
  // Decoded strings came through u16 length prefixes, so every accepted
  // frame re-encodes.
  const auto encoded =
      streamworks::EncodeCtrlFrame(frame, streamworks::InternerNames(interner));
  Check(encoded.ok());
  streamworks::Interner fresh;
  const streamworks::CtrlDecodeResult again =
      streamworks::DecodeCtrlFrame(*encoded, max_body_bytes, &fresh);
  // An oversized re-encode is possible under the tiny limit; anything
  // else must decode to the same frame type, whole-buffer.
  if (again.status == streamworks::FrameDecodeStatus::kOversized) return;
  Check(again.status == streamworks::FrameDecodeStatus::kOk);
  Check(again.frame_bytes == encoded->size());
  Check(again.frame.type == frame.type);
}

void DecodeAndCheck(std::string_view buf, size_t max_body_bytes) {
  streamworks::Interner interner;
  const streamworks::CtrlDecodeResult result =
      streamworks::DecodeCtrlFrame(buf, max_body_bytes, &interner);
  switch (result.status) {
    case streamworks::FrameDecodeStatus::kOk:
      // The link consumes frame_bytes: it must cover at least the header
      // and never exceed what was actually in the buffer.
      Check(result.frame_bytes >= streamworks::kFrameHeaderBytes);
      Check(result.frame_bytes <= buf.size());
      CheckReencode(result.frame, interner, max_body_bytes);
      break;
    case streamworks::FrameDecodeStatus::kNeedMore:
      // Only ever a prefix-of-frame answer.
      Check(result.frame_bytes == 0 || result.frame_bytes > buf.size());
      break;
    case streamworks::FrameDecodeStatus::kOversized:
      // Skip count must cover the header it is skipping past.
      Check(result.frame_bytes >= streamworks::kFrameHeaderBytes);
      break;
    case streamworks::FrameDecodeStatus::kMalformed:
      // frame_bytes == 0 is the unrecoverable bad-magic answer; any other
      // value must be a self-consistent skip.
      Check(result.frame_bytes == 0 ||
            result.frame_bytes >= streamworks::kFrameHeaderBytes);
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view buf(reinterpret_cast<const char*>(data), size);
  // The control plane's production limit, then a tiny one so the
  // oversized path is exercised by ordinary inputs too.
  DecodeAndCheck(buf, streamworks::kDefaultMaxFrameBodyBytes);
  DecodeAndCheck(buf, 64);
  return 0;
}
