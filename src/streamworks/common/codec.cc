#include "streamworks/common/codec.h"

#include <cstring>
#include <limits>

#include "streamworks/common/str_util.h"

namespace streamworks {

std::string_view ReadFrameHeader(std::string_view buf, const char (&magic)[4],
                                 size_t max_body_bytes, std::string_view kind,
                                 FrameOutcome* outcome) {
  *outcome = FrameOutcome();
  if (buf.size() < kFrameHeaderBytes) return {};  // kNeedMore
  if (std::memcmp(buf.data(), magic, sizeof(magic)) != 0) {
    // There is no length to skip by, so the stream position is lost for
    // good (frame_bytes stays 0).
    outcome->status = FrameDecodeStatus::kMalformed;
    outcome->error = StrCat("bad ", kind, " magic (stream desynchronized)");
    return {};
  }
  const size_t body_len = GetU32(buf.data() + sizeof(magic));
  const size_t frame_bytes = kFrameHeaderBytes + body_len;
  if (body_len > max_body_bytes) {
    outcome->status = FrameDecodeStatus::kOversized;
    outcome->frame_bytes = frame_bytes;
    outcome->error = StrCat(kind, " body of ", body_len, " bytes exceeds ",
                            max_body_bytes);
    return {};
  }
  if (buf.size() < frame_bytes) return {};  // kNeedMore
  outcome->status = FrameDecodeStatus::kOk;
  outcome->frame_bytes = frame_bytes;
  return buf.substr(kFrameHeaderBytes, body_len);
}

std::string BeginFrame(const char (&magic)[4]) {
  std::string frame(magic, sizeof(magic));
  PutU32(&frame, 0);
  return frame;
}

Status EndFrame(std::string* frame) {
  const size_t body_len = frame->size() - kFrameHeaderBytes;
  if (body_len > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(StrCat(
        "frame body of ", body_len, " bytes exceeds the u32 length prefix"));
  }
  std::string len;
  PutU32(&len, static_cast<uint32_t>(body_len));
  frame->replace(kFrameHeaderBytes - len.size(), len.size(), len);
  return OkStatus();
}

Status CheckStringLength(std::string_view s) {
  if (s.size() <= kMaxStringBytes) return OkStatus();
  return Status::InvalidArgument(StrCat("string of ", s.size(),
                                        " bytes exceeds the ", kMaxStringBytes,
                                        "-byte limit of a u16 length prefix"));
}

Status PutString(std::string* out, std::string_view s) {
  SW_RETURN_IF_ERROR(CheckStringLength(s));
  PutU16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
  return OkStatus();
}

void WireReader::Fail(std::string_view why) {
  if (ok_) {
    ok_ = false;
    error_ = std::string(why);
  }
}

void WireReader::FailTruncated(std::string_view what) {
  Fail(StrCat("truncated ", what));
}

std::string WireReader::String(std::string_view what) {
  const uint16_t len = U16(what);
  return std::string(Bytes(len, what));
}

bool WireReader::Fits(uint64_t count, size_t min_bytes, std::string_view what) {
  if (!ok_) return false;
  if (count <= remaining() / min_bytes) return true;
  Fail(StrCat(what, " count exceeds body"));
  return false;
}

std::string_view WireReader::Records(uint64_t count, size_t record_bytes,
                                     std::string_view what) {
  if (!Fits(count, record_bytes, what)) return {};
  return Bytes(static_cast<size_t>(count) * record_bytes, what);
}

LabelNameFn InternerNames(const Interner& interner) {
  return [&interner](LabelId id) -> std::string_view {
    return interner.Name(id);
  };
}

Status LabelTableWriter::Write(std::string* out,
                               const LabelNameFn& name) const {
  PutU32(out, static_cast<uint32_t>(ids_.size()));
  for (LabelId id : ids_) SW_RETURN_IF_ERROR(PutString(out, name(id)));
  return OkStatus();
}

std::vector<LabelId> ReadLabelTable(WireReader* r, Interner* interner) {
  std::vector<LabelId> labels;
  const uint32_t n = r->U32("string-table count");
  if (!r->Fits(n, 2, "string-table")) return labels;
  labels.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint16_t len = r->U16("string length");
    const std::string_view bytes = r->Bytes(len, "string bytes");
    if (!r->ok()) return labels;
    labels.push_back(interner->Intern(bytes));
  }
  return labels;
}

}  // namespace streamworks
