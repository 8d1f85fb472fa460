// Fuzz target for the snapshot decoder — the parser a recovering process
// trusts with a file from disk. The file ends in a CRC-32 over every
// byte before it, which rejects any random change, so mutated bytes
// would almost never reach the field parsers (label table, window edge
// records, sessions and their query patterns). This target therefore
// feeds the input two ways: once raw (exercising the magic, length and
// CRC checks), and once with its last four bytes replaced by a freshly
// computed CRC of the rest, so a mutated body lands in the parsers.
//
// Built by -DSTREAMWORKS_FUZZ=ON: under clang as a libFuzzer binary
// (-fsanitize=fuzzer), under gcc linked against the corpus replay driver
// (tests/fuzz/replay_driver.cc). Seeds live in tests/fuzz/corpus/snapshot/.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "streamworks/common/interner.h"
#include "streamworks/persist/crc32.h"
#include "streamworks/persist/snapshot.h"

namespace {

// A failed invariant must crash loudly under the fuzzer, not just return.
void Check(bool ok) {
  if (!ok) __builtin_trap();
}

// An accepted snapshot must survive re-encode -> re-decode with its shape
// intact: recovery restores exactly what the decoder returned, and the
// next snapshot re-encodes it.
void DecodeAndCheck(std::string_view bytes) {
  streamworks::Interner interner;
  auto decoded = streamworks::DecodeSnapshot(bytes, &interner);
  if (!decoded.ok()) {
    Check(decoded.status().code() == streamworks::StatusCode::kDataLoss);
    return;
  }
  const streamworks::SnapshotContents& a = decoded.value();
  auto encoded = streamworks::EncodeSnapshot(a, interner);
  Check(encoded.ok());
  streamworks::Interner fresh;
  auto again = streamworks::DecodeSnapshot(encoded.value(), &fresh);
  Check(again.ok());
  const streamworks::SnapshotContents& b = again.value();
  Check(a.wal_seq == b.wal_seq);
  Check(a.window.next_edge_id == b.window.next_edge_id);
  Check(a.window.watermark == b.window.watermark);
  Check(a.window.edges.size() == b.window.edges.size());
  Check(a.service.sessions.size() == b.service.sessions.size());
  for (size_t i = 0; i < a.service.sessions.size(); ++i) {
    Check(a.service.sessions[i].name == b.service.sessions[i].name);
    Check(a.service.sessions[i].subscriptions.size() ==
          b.service.sessions[i].subscriptions.size());
  }
}

// `bytes` with its last four bytes replaced by the CRC of the rest.
std::string WithFreshCrc(std::string_view bytes) {
  std::string fixed(bytes);
  if (fixed.size() < 4) return fixed;
  const size_t body = fixed.size() - 4;
  const uint32_t crc =
      streamworks::Crc32(std::string_view(fixed).substr(0, body));
  for (int i = 0; i < 4; ++i) {
    fixed[body + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return fixed;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  DecodeAndCheck(bytes);
  DecodeAndCheck(WithFreshCrc(bytes));
  return 0;
}
