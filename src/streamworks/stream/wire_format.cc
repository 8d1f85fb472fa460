#include "streamworks/stream/wire_format.h"

#include <cstdint>
#include <vector>

#include "streamworks/common/str_util.h"
#include "streamworks/graph/edge_record.h"

namespace streamworks {

bool IsFrameStart(std::string_view buf) {
  return !buf.empty() && buf[0] == kFeedFrameMagic[0];
}

StatusOr<std::string> EncodeFeedFrame(const EdgeBatch& batch,
                                      const Interner& interner) {
  // Records first: they fill the label table the body opens with.
  LabelTableWriter table;
  std::string records;
  records.reserve(batch.size() * kEdgeRecordBytes);
  for (const StreamEdge& e : batch) PutEdgeRecord(&records, e, &table);

  std::string frame = BeginFrame(kFeedFrameMagic);
  // One allocation in the common case: labels are short.
  frame.reserve(kFrameHeaderBytes + 4 + table.size() * 16 + 4 +
                records.size());
  SW_RETURN_IF_ERROR(table.Write(&frame, InternerNames(interner)));
  PutU32(&frame, static_cast<uint32_t>(batch.size()));
  frame.append(records);
  SW_RETURN_IF_ERROR(EndFrame(&frame));
  return frame;
}

Status ParseFeedFields(std::span<const std::string_view> fields,
                       Interner* interner, StreamEdge* edge) {
  if (fields.size() != 6) {
    return Status::InvalidArgument(
        "usage: FEED <src> <SrcLabel> <dst> <DstLabel> <edgeLabel> <ts>");
  }
  if (!ParseUint64(fields[0], &edge->src)) {
    return Status::InvalidArgument("bad src vertex id: " +
                                   std::string(fields[0]));
  }
  edge->src_label = interner->Intern(fields[1]);
  if (!ParseUint64(fields[2], &edge->dst)) {
    return Status::InvalidArgument("bad dst vertex id: " +
                                   std::string(fields[2]));
  }
  edge->dst_label = interner->Intern(fields[3]);
  edge->edge_label = interner->Intern(fields[4]);
  if (!ParseInt64(fields[5], &edge->ts)) {
    return Status::InvalidArgument("bad timestamp: " +
                                   std::string(fields[5]));
  }
  return OkStatus();
}

FrameDecodeResult DecodeFeedFrame(std::string_view buf,
                                  size_t max_body_bytes,
                                  Interner* interner) {
  FrameDecodeResult result;
  WireReader r(ReadFrameHeader(buf, kFeedFrameMagic, max_body_bytes, "frame",
                               &result));
  if (result.status != FrameDecodeStatus::kOk) return result;

  const std::vector<LabelId> labels = ReadLabelTable(&r, interner);
  const uint32_t n_edges = r.U32("edge count");
  const std::string_view records = r.Records(n_edges, kEdgeRecordBytes, "edge");
  if (r.ok() && r.remaining() != 0) r.Fail("trailing bytes after edges");
  if (r.ok()) {
    result.batch.reserve(n_edges);
    for (uint32_t i = 0; i < n_edges; ++i) {
      StreamEdge e;
      if (!GetEdgeRecord(records.data() + i * kEdgeRecordBytes, labels, &e)) {
        r.Fail("label index out of string-table range");
        break;
      }
      result.batch.push_back(e);
    }
  }
  if (!r.ok()) {
    result.status = FrameDecodeStatus::kMalformed;
    result.error = StrCat("malformed frame: ", r.error());
  }
  return result;
}

}  // namespace streamworks
