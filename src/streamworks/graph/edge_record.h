#ifndef STREAMWORKS_GRAPH_EDGE_RECORD_H_
#define STREAMWORKS_GRAPH_EDGE_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "streamworks/common/binio.h"
#include "streamworks/common/codec.h"
#include "streamworks/graph/stream_edge.h"

namespace streamworks {

/// The one labeled-edge record every binary format carries:
///
///   src u64, dst u64, src_label u32, dst_label u32, edge_label u32, ts i64
///
/// with labels as indexes into the enclosing label table (common/codec.h).
/// FEEDB sends it bare, a control-frame Batch wraps it in a global id and
/// an anchor byte, and a snapshot puts the edge id in front of it.
inline constexpr size_t kEdgeRecordBytes = 36;

inline void PutEdgeRecord(std::string* out, const StreamEdge& e,
                          LabelTableWriter* table) {
  const uint32_t src_label = table->IndexOf(e.src_label);
  const uint32_t dst_label = table->IndexOf(e.dst_label);
  const uint32_t edge_label = table->IndexOf(e.edge_label);
  PutU64(out, e.src);
  PutU64(out, e.dst);
  PutU32(out, src_label);
  PutU32(out, dst_label);
  PutU32(out, edge_label);
  PutI64(out, e.ts);
}

/// Decodes the record at `p`; the caller has bounds-checked the whole run
/// (WireReader::Records). False when a label index is outside `table`.
inline bool GetEdgeRecord(const char* p, std::span<const LabelId> table,
                          StreamEdge* e) {
  const uint32_t src_label = GetU32(p + 16);
  const uint32_t dst_label = GetU32(p + 20);
  const uint32_t edge_label = GetU32(p + 24);
  if (src_label >= table.size() || dst_label >= table.size() ||
      edge_label >= table.size()) {
    return false;
  }
  e->src = GetU64(p);
  e->dst = GetU64(p + 8);
  e->src_label = table[src_label];
  e->dst_label = table[dst_label];
  e->edge_label = table[edge_label];
  e->ts = GetI64(p + 28);
  return true;
}

}  // namespace streamworks

#endif  // STREAMWORKS_GRAPH_EDGE_RECORD_H_
