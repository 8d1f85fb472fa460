// Fuzz target for the FEEDB binary frame decoder — the one parser that
// eats length-prefixed bytes straight off the network before any
// authentication or sanity layer. DecodeFeedFrame must never read out of
// bounds, loop, or report a consumption count that would desync the
// connection's demultiplexer, no matter the bytes.
//
// Built by -DSTREAMWORKS_FUZZ=ON: under clang as a libFuzzer binary
// (-fsanitize=fuzzer), under gcc linked against the corpus replay driver
// (tests/fuzz/replay_driver.cc). Seeds live in tests/fuzz/corpus/feedb/.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "streamworks/common/interner.h"
#include "streamworks/stream/wire_format.h"

namespace {

// A failed invariant must crash loudly under the fuzzer, not just return.
void Check(bool ok) {
  if (!ok) __builtin_trap();
}

void DecodeAndCheck(std::string_view buf, size_t max_body_bytes) {
  streamworks::Interner interner;
  const streamworks::FrameDecodeResult result =
      streamworks::DecodeFeedFrame(buf, max_body_bytes, &interner);
  switch (result.status) {
    case streamworks::FrameDecodeStatus::kOk: {
      // The demux consumes frame_bytes: it must cover at least the header
      // and never exceed what was actually in the buffer.
      Check(result.frame_bytes >= streamworks::kFrameHeaderBytes);
      Check(result.frame_bytes <= buf.size());
      // Round trip: a frame the decoder accepted must re-encode and
      // re-decode to the same edge count (labels re-resolve by string).
      auto encoded = streamworks::EncodeFeedFrame(result.batch, interner);
      Check(encoded.ok());
      streamworks::Interner fresh;
      const streamworks::FrameDecodeResult again =
          streamworks::DecodeFeedFrame(*encoded, max_body_bytes, &fresh);
      Check(again.status == streamworks::FrameDecodeStatus::kOk);
      Check(again.batch.size() == result.batch.size());
      break;
    }
    case streamworks::FrameDecodeStatus::kNeedMore:
      // Only ever a prefix-of-frame answer; consuming nothing is implied.
      Check(buf.size() < streamworks::kFrameHeaderBytes ||
            result.frame_bytes == 0 ||
            result.frame_bytes > buf.size());
      break;
    case streamworks::FrameDecodeStatus::kOversized:
      // Resync skip must cover the header it is skipping past.
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
  // The server's production limit, then a tiny one so the oversized path
  // (skip_bytes resync) is exercised by ordinary inputs too.
  DecodeAndCheck(buf, streamworks::kDefaultMaxFrameBodyBytes);
  DecodeAndCheck(buf, 64);
  return 0;
}
