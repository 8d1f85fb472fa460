#include "streamworks/graph/partition.h"

namespace streamworks {

bool GroupIngest::Admit(const StreamEdge& edge) {
  // AddEdge's checks in its order, including its side effect that an edge
  // rejected on its dst label has still recorded its src.
  bool admitted = edge.ts >= 0 && edge.ts >= watermark_;
  if (admitted) {
    const auto [src, src_new] =
        vertex_labels_.try_emplace(edge.src, edge.src_label);
    admitted = src_new || src->second == edge.src_label;
  }
  if (admitted) {
    const auto [dst, dst_new] =
        vertex_labels_.try_emplace(edge.dst, edge.dst_label);
    admitted = dst_new || dst->second == edge.dst_label;
  }
  if (!admitted) rejected_.fetch_add(1, std::memory_order_relaxed);
  return admitted;
}

LabelId GroupIngest::vertex_label(ExternalVertexId v) const {
  const auto it = vertex_labels_.find(v);
  return it == vertex_labels_.end() ? kInvalidLabelId : it->second;
}

}  // namespace streamworks
