// Fuzz target for the MetricsReport codec — the one control frame whose
// payload is produced by a *remote* registry snapshot and parsed on the
// coordinator's scrape path. The frame carries a CRC trailer over the
// whole payload, which is great for wire integrity but terrible for
// coverage: random bytes almost never clear the CRC gate, so the
// field-level parsers (sample kinds, label tables, sparse histogram
// buckets) would go unfuzzed. This target therefore feeds the input two
// ways: once raw (exercising header/CRC handling), and once wrapped in a
// well-formed kMetricsReport frame with a freshly computed CRC so the
// bytes land directly in the report's field decoders.
//
// Built by -DSTREAMWORKS_FUZZ=ON: under clang as a libFuzzer binary
// (-fsanitize=fuzzer), under gcc linked against the corpus replay driver
// (tests/fuzz/replay_driver.cc). Seeds live in tests/fuzz/corpus/metrics/.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "streamworks/common/interner.h"
#include "streamworks/persist/crc32.h"
#include "streamworks/stream/cluster_wire.h"

namespace {

// A failed invariant must crash loudly under the fuzzer, not just return.
void Check(bool ok) {
  if (!ok) __builtin_trap();
}

// An accepted report must survive re-encode → re-decode with the header
// counters intact — the property the coordinator's federation cache and
// /cluster.json rows depend on.
void CheckReencode(const streamworks::CtrlFrame& frame, size_t max_body_bytes) {
  if (frame.type != streamworks::CtrlType::kMetricsReport) return;
  const std::string encoded =
      streamworks::EncodeMetricsReportFrame(frame.metrics_report).value();
  streamworks::Interner fresh;
  const streamworks::CtrlDecodeResult again =
      streamworks::DecodeCtrlFrame(encoded, max_body_bytes, &fresh);
  if (again.status == streamworks::FrameDecodeStatus::kOversized) return;
  Check(again.status == streamworks::FrameDecodeStatus::kOk);
  Check(again.frame_bytes == encoded.size());
  Check(again.frame.type == streamworks::CtrlType::kMetricsReport);
  const streamworks::CtrlMetricsReport& a = frame.metrics_report;
  const streamworks::CtrlMetricsReport& b = again.frame.metrics_report;
  Check(a.wal_seq == b.wal_seq);
  Check(a.replayed_frames == b.replayed_frames);
  Check(a.exchange_items_sent == b.exchange_items_sent);
  Check(a.completions_sent == b.completions_sent);
  Check(a.samples.size() == b.samples.size());
}

void DecodeAndCheck(std::string_view buf, size_t max_body_bytes) {
  streamworks::Interner interner;
  const streamworks::CtrlDecodeResult result =
      streamworks::DecodeCtrlFrame(buf, max_body_bytes, &interner);
  switch (result.status) {
    case streamworks::FrameDecodeStatus::kOk:
      Check(result.frame_bytes >= streamworks::kFrameHeaderBytes);
      Check(result.frame_bytes <= buf.size());
      CheckReencode(result.frame, max_body_bytes);
      break;
    case streamworks::FrameDecodeStatus::kNeedMore:
      Check(result.frame_bytes == 0 || result.frame_bytes > buf.size());
      break;
    case streamworks::FrameDecodeStatus::kOversized:
      Check(result.frame_bytes >= streamworks::kFrameHeaderBytes);
      break;
    case streamworks::FrameDecodeStatus::kMalformed:
      Check(result.frame_bytes == 0 ||
            result.frame_bytes >= streamworks::kFrameHeaderBytes);
      break;
  }
}

// Wraps `payload` as the post-type bytes of a kMetricsReport frame with a
// valid CRC trailer, so the input reaches the field decoders.
std::string WrapAsReportFrame(std::string_view payload) {
  std::string body;
  body.push_back(
      static_cast<char>(streamworks::CtrlType::kMetricsReport));
  body.append(payload);
  const uint32_t crc = streamworks::Crc32(payload);
  for (int shift = 0; shift < 32; shift += 8) {
    body.push_back(static_cast<char>((crc >> shift) & 0xFF));
  }
  std::string frame(streamworks::kCtrlFrameMagic,
                    sizeof(streamworks::kCtrlFrameMagic));
  const uint32_t body_len = static_cast<uint32_t>(body.size());
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((body_len >> shift) & 0xFF));
  }
  frame.append(body);
  return frame;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view buf(reinterpret_cast<const char*>(data), size);
  DecodeAndCheck(buf, streamworks::kDefaultMaxFrameBodyBytes);
  const std::string wrapped = WrapAsReportFrame(buf);
  DecodeAndCheck(wrapped, streamworks::kDefaultMaxFrameBodyBytes);
  DecodeAndCheck(wrapped, 64);
  return 0;
}
