#ifndef STREAMWORKS_GRAPH_PARTITION_H_
#define STREAMWORKS_GRAPH_PARTITION_H_

#include <atomic>
#include <unordered_map>

#include "streamworks/common/hash.h"
#include "streamworks/common/logging.h"
#include "streamworks/common/types.h"
#include "streamworks/graph/stream_edge.h"

namespace streamworks {

/// Vertex ownership for data-graph sharding: maps every external vertex
/// id to the shard that owns its adjacency. An edge is routed to the
/// shard(s) owning its endpoints, so the owner of `v` always holds the
/// complete incident edge set of `v` — the invariant the cross-shard match
/// exchange relies on when it forwards a partial match to the shard that can
/// continue expanding it.
///
/// A pure function of (vertex, num_shards, seed): the coordinator and every
/// worker evaluate ownership independently and must agree. The hash is
/// SplitMix64-mixed before the modulo — external ids are often dense
/// sequences (row ids, netflow host indices) and a bare modulo would
/// correlate ownership with id arithmetic, skewing shard load under
/// structured id spaces.
class HashModuloPartitioner {
 public:
  /// `seed` perturbs the hash so tests can exercise different placements of
  /// the same stream.
  explicit HashModuloPartitioner(uint64_t seed = 0) : seed_(seed) {}

  /// Owning shard for `v`, in [0, num_shards). `num_shards` >= 1.
  int OwnerShard(ExternalVertexId v, int num_shards) const {
    SW_DCHECK_GT(num_shards, 0);
    return static_cast<int>(Mix64(v ^ seed_) %
                            static_cast<uint64_t>(num_shards));
  }

 private:
  uint64_t seed_;
};

/// The ingest rules a vertex-partitioned group applies once, for the whole
/// group, before an edge reaches a shard: DistributedBackend runs them in
/// front of its worker daemons. It admits or rejects each edge, numbers
/// admitted edges with group-global ids, hands each one to its endpoint
/// owners, and tracks the watermark the next epoch boundary commits.
///
/// Admission applies DynamicGraph::AddEdge's checks to group state. A
/// shard stores only the edges incident to the vertices it owns, so an
/// endpoint-label clash the owner would reject could otherwise reach the
/// other endpoint's shard, which has never seen the clashing vertex.
/// Checking once here keeps every shard's vertex records consistent and
/// rejects exactly the edges a single engine rejects.
///
/// Not thread-safe, except rejected().
class GroupIngest {
 public:
  GroupIngest(HashModuloPartitioner partitioner, int num_shards)
      : partitioner_(partitioner), num_shards_(num_shards) {}

  /// Admits `edge` and hands it to its endpoint owners as
  /// `to_shard(shard, global_id, run_anchors)`: first the source owner,
  /// which alone runs the edge's anchors, so the edge anchors local search
  /// once group-wide; then the destination owner if it is another shard.
  /// Returns false for a rejected edge, which consumes no id.
  template <typename ToShard>
  bool Route(const StreamEdge& edge, ToShard&& to_shard) {
    if (!Admit(edge)) return false;
    const EdgeId id = next_edge_id_++;
    watermark_ = edge.ts;
    const int src_owner = partitioner_.OwnerShard(edge.src, num_shards_);
    const int dst_owner = partitioner_.OwnerShard(edge.dst, num_shards_);
    to_shard(src_owner, id, /*run_anchors=*/true);
    if (dst_owner != src_owner) to_shard(dst_owner, id, /*run_anchors=*/false);
    return true;
  }

  /// True once admitted edges have raised the watermark past the last
  /// commit. The epoch boundary then broadcasts watermark() to every shard
  /// and calls MarkWatermarkCommitted.
  bool watermark_uncommitted() const {
    return watermark_ > committed_watermark_;
  }
  void MarkWatermarkCommitted() { committed_watermark_ = watermark_; }

  Timestamp watermark() const { return watermark_; }
  /// Label admission recorded for `v`; kInvalidLabelId if never admitted.
  LabelId vertex_label(ExternalVertexId v) const;
  /// Edges rejected so far. Safe to read from any thread.
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  bool Admit(const StreamEdge& edge);

  HashModuloPartitioner partitioner_;
  int num_shards_;
  std::unordered_map<ExternalVertexId, LabelId> vertex_labels_;
  EdgeId next_edge_id_ = 0;
  Timestamp watermark_ = -1;
  Timestamp committed_watermark_ = -1;
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace streamworks

#endif  // STREAMWORKS_GRAPH_PARTITION_H_
