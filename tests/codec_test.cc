// Tests for streamworks/common/codec, the reader, string rule and label
// table that FEEDB frames, cluster control frames and snapshots share
// (each format's own suite covers the rest through its codec), and the
// byte stability of all three formats, pinned by the committed fuzz
// corpora.

#include "streamworks/common/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "streamworks/persist/snapshot.h"
#include "streamworks/stream/cluster_wire.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusFiles(std::string_view dir) {
  std::vector<fs::path> files;
  for (const auto& entry :
       fs::directory_iterator(fs::path(STREAMWORKS_CORPUS_DIR) / dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Every seed a decoder accepts was written by an earlier encoder; decoding
// it and encoding the result must give back the same bytes. A round trip
// through one build cannot see a change made to an encoder and its
// decoder together; these seeds can. The expected seed counts pin that no
// valid seed silently turned invalid (and so dropped out of the check).
TEST(CodecTest, EveryValidCorpusSeedReencodesToItsBytes) {
  int feedb_valid = 0;
  for (const fs::path& path : CorpusFiles("feedb")) {
    const std::string bytes = ReadFile(path);
    Interner interner;
    const FrameDecodeResult decoded =
        DecodeFeedFrame(bytes, kDefaultMaxFrameBodyBytes, &interner);
    if (decoded.status != FrameDecodeStatus::kOk) continue;
    ++feedb_valid;
    ASSERT_EQ(decoded.frame_bytes, bytes.size()) << path;
    EXPECT_EQ(EncodeFeedFrame(decoded.batch, interner).value(), bytes) << path;
  }
  EXPECT_EQ(feedb_valid, 3);

  std::set<CtrlType> types;
  for (const std::string_view dir : {"exchange", "metrics"}) {
    int valid = 0;
    for (const fs::path& path : CorpusFiles(dir)) {
      const std::string bytes = ReadFile(path);
      Interner interner;
      const CtrlDecodeResult decoded =
          DecodeCtrlFrame(bytes, kDefaultMaxFrameBodyBytes, &interner);
      if (decoded.status != FrameDecodeStatus::kOk) continue;
      ++valid;
      types.insert(decoded.frame.type);
      ASSERT_EQ(decoded.frame_bytes, bytes.size()) << path;
      const auto encoded =
          EncodeCtrlFrame(decoded.frame, InternerNames(interner));
      EXPECT_EQ(encoded.value(), bytes) << path;
    }
    EXPECT_EQ(valid, dir == "exchange" ? 16 : 6) << dir;
  }
  // Together the seeds cover every control frame type: 1 to 18 but the
  // retired 12, which the `completion` seed keeps as a refused frame.
  EXPECT_EQ(types.size(), 17u);

  int snapshot_valid = 0;
  for (const fs::path& path : CorpusFiles("snapshot")) {
    const std::string bytes = ReadFile(path);
    Interner interner;
    auto decoded = DecodeSnapshot(bytes, &interner);
    if (!decoded.ok()) continue;
    ++snapshot_valid;
    const SnapshotContents& contents = decoded.value();
    // The seed is what the test promises: two sessions, at least three
    // labels, a paused and an active subscription.
    ASSERT_EQ(contents.service.sessions.size(), 2u);
    EXPECT_GE(interner.size(), 3u);
    std::set<bool> paused;
    for (const PersistedSession& session : contents.service.sessions) {
      for (const PersistedSubscription& sub : session.subscriptions) {
        paused.insert(sub.paused);
      }
    }
    EXPECT_EQ(paused.size(), 2u);
    EXPECT_EQ(EncodeSnapshot(contents, interner).value(), bytes) << path;
  }
  EXPECT_EQ(snapshot_valid, 1);
}

TEST(CodecTest, ReaderFailsClosedAndKeepsTheFirstReason) {
  std::string bytes;
  PutU32(&bytes, 7);
  PutU16(&bytes, 3);
  WireReader r(bytes);
  EXPECT_EQ(r.U32("first"), 7u);
  EXPECT_EQ(r.U64("second"), 0u);  // only 2 bytes left
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "truncated second");
  // Once failed, nothing moves and every read is zero.
  EXPECT_EQ(r.U16("third"), 0u);
  EXPECT_EQ(r.remaining(), 2u);
  r.Fail("later reason");
  EXPECT_EQ(r.error(), "truncated second");
}

TEST(CodecTest, RecordRunIsBoundedBeforeItSizesAnything) {
  const std::string bytes(10, '\0');
  WireReader fits(bytes);
  EXPECT_EQ(fits.Records(2, 5, "pair").size(), 10u);
  EXPECT_TRUE(fits.ok());
  WireReader lies(bytes);
  // A count whose product would overflow still fails cleanly.
  EXPECT_TRUE(lies.Records(uint64_t{1} << 62, 8, "edge").empty());
  EXPECT_EQ(lies.error(), "edge count exceeds body");
  EXPECT_EQ(lies.remaining(), 10u);
}

TEST(CodecTest, EveryStringWriterRefusesWhatAU16CannotCarry) {
  std::string out;
  EXPECT_TRUE(PutString(&out, std::string(kMaxStringBytes, 'x')).ok());
  EXPECT_EQ(out.size(), 2 + kMaxStringBytes);
  out.clear();
  const Status refused = PutString(&out, std::string(kMaxStringBytes + 1, 'x'));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());  // no prefix that disagrees with the bytes

  // The label table and every string-bearing frame hold the same rule.
  Interner interner;
  LabelTableWriter table;
  table.IndexOf(interner.Intern(std::string(kMaxStringBytes + 1, 'l')));
  EXPECT_EQ(table.Write(&out, InternerNames(interner)).code(),
            StatusCode::kInvalidArgument);
  CtrlRegister reg;
  reg.name = std::string(kMaxStringBytes + 1, 'n');
  EXPECT_EQ(EncodeRegisterFrame(reg).status().code(),
            StatusCode::kInvalidArgument);
  CtrlInfoAck info;
  info.error = std::string(kMaxStringBytes + 1, 'e');
  EXPECT_EQ(EncodeInfoAckFrame(info).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CodecTest, LabelTableKeepsFirstSeenOrder) {
  // Labels first seen in reverse id order, then seen again: indexes follow
  // first sight, not the id, and the table decodes in that order.
  Interner interner;
  std::vector<LabelId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(interner.Intern("label" + std::to_string(i)));
  }
  LabelTableWriter table;
  for (int round = 0; round < 2; ++round) {
    for (int i = 39; i >= 0; --i) {
      EXPECT_EQ(table.IndexOf(ids[static_cast<size_t>(i)]),
                static_cast<uint32_t>(39 - i));
    }
  }
  std::string bytes;
  ASSERT_TRUE(table.Write(&bytes, InternerNames(interner)).ok());
  Interner decode_side;
  WireReader r(bytes);
  const std::vector<LabelId> decoded = ReadLabelTable(&r, &decode_side);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(decoded.size(), 40u);
  EXPECT_EQ(decode_side.Name(decoded.front()), "label39");
  EXPECT_EQ(decode_side.Name(decoded.back()), "label0");
  EXPECT_EQ(TableLabel(&r, decoded, 40), kInvalidLabelId);
  EXPECT_EQ(r.error(), "label index out of string-table range");
}

}  // namespace
}  // namespace streamworks
