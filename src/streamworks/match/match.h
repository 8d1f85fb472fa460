#ifndef STREAMWORKS_MATCH_MATCH_H_
#define STREAMWORKS_MATCH_MATCH_H_

#include <cstddef>
#include <string>
#include <utility>

#include "streamworks/common/bitset64.h"
#include "streamworks/common/types.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"

namespace streamworks {

/// A (partial) match: an injective mapping from query vertices to data
/// vertices and from query edges to data edges (paper §2.1; Property 3's
/// match elements). A Match is sized for its whole query graph; the subset
/// of bound edges identifies which SJ-Tree node it belongs to.
///
/// Matches are small value types (queries have <= 64 vertices/edges, and in
/// practice < 10) and are copied freely during backtracking and joins, so
/// creating, copying and storing one is the SJ-Tree's inner loop. A query of
/// at most kInlineCapacity vertices and edges keeps its bindings inside the
/// Match and never allocates; a larger one keeps them in one heap block
/// sized for the query, owned by the Match.
class Match {
 public:
  /// Largest query (vertices and edges each) whose bindings live inline.
  /// Eight covers every workload query in this repository (the largest has
  /// 5 vertices and 6 edges) at ~200 bytes per Match. Every stored partial
  /// match pays for the slots, so widen this only after measuring peak RSS.
  static constexpr int kInlineCapacity = 8;

  /// An empty match of no query: nothing bound, nothing bindable.
  Match() : Match(0, 0) {}

  /// An empty match shaped for `query`: nothing bound.
  explicit Match(const QueryGraph& query)
      : Match(query.num_vertices(), query.num_edges()) {}

  Match(const Match& other);
  Match(Match&& other) noexcept;
  Match& operator=(const Match& other);
  Match& operator=(Match&& other) noexcept;
  ~Match() { FreeSpill(); }

  // --- Vertex bindings ----------------------------------------------------
  bool HasVertex(QueryVertexId qv) const {
    return vertex_slots()[qv] != kInvalidVertexId;
  }
  VertexId vertex(QueryVertexId qv) const { return vertex_slots()[qv]; }

  /// Binds query vertex `qv` to data vertex `dv`. Rebinding to a different
  /// data vertex is a programming error (checked).
  void BindVertex(QueryVertexId qv, VertexId dv);
  /// Removes the binding of `qv` (backtracking).
  void UnbindVertex(QueryVertexId qv);

  /// True if some query vertex is already mapped to data vertex `dv`.
  bool UsesDataVertex(VertexId dv) const;

  // --- Edge bindings -------------------------------------------------------
  bool HasEdge(QueryEdgeId qe) const {
    return edge_slots()[qe] != kInvalidEdgeId;
  }
  EdgeId edge(QueryEdgeId qe) const { return edge_slots()[qe]; }

  /// Binds query edge `qe` to data edge `de` with timestamp `ts`, updating
  /// the match's time span. Does not bind endpoints; callers bind vertices
  /// explicitly (they may already be bound).
  void BindEdge(QueryEdgeId qe, EdgeId de, Timestamp ts);
  /// Removes the binding of `qe`. The time span is recomputed from the
  /// timestamps of the remaining bound edges.
  void UnbindEdge(QueryEdgeId qe);

  bool UsesDataEdge(EdgeId de) const;

  // --- Shape and time span --------------------------------------------------
  /// True when the bindings live in a heap block the Match owns (a query
  /// past kInlineCapacity); only then does its destructor free anything.
  bool spilled() const { return spilled_; }
  Bitset64 bound_edges() const { return bound_edges_; }
  Bitset64 bound_vertices() const { return bound_vertices_; }
  int num_bound_edges() const { return bound_edges_.Count(); }

  /// Timestamp bound alongside edge `qe` (checked: `qe` must be bound).
  Timestamp edge_ts(QueryEdgeId qe) const;

  /// Earliest / latest timestamp over bound edges. Undefined (checked) when
  /// no edge is bound.
  Timestamp min_ts() const;
  Timestamp max_ts() const;
  /// max_ts - min_ts; 0 when a single edge is bound.
  Timestamp Span() const { return max_ts() - min_ts(); }

  /// True if binding an edge with timestamp `ts` keeps the span < `window`.
  bool FitsWindowWith(Timestamp ts, Timestamp window) const;

  // --- Identity ---------------------------------------------------------------
  /// Order-independent 64-bit signature of the complete mapping (vertex and
  /// edge assignments). Equal mappings always collide; unequal mappings
  /// collide with probability ~2^-64. Used for oracle set comparison.
  uint64_t MappingSignature() const;

  /// Signature of just the set of bound data edges (ignores which query
  /// edge maps where) — identifies the data subgraph for deduplication of
  /// automorphic images.
  uint64_t EdgeSetSignature() const;

  /// Like MappingSignature, but vertices hash by their *external* ids
  /// (resolved through `graph`) instead of graph-local dense ids. Internal
  /// vertex ids are an artifact of per-graph ingestion order, so this is
  /// the signature that stays comparable across deployment modes — e.g. a
  /// single engine vs. the shards of a vertex-partitioned group, which
  /// ingest different edge subsets and number vertices differently.
  uint64_t ExternalMappingSignature(const DynamicGraph& graph) const;

  /// Largest bound data edge id — the edge whose arrival completed this
  /// match (edge ids are arrival sequence numbers). Undefined (checked)
  /// when no edge is bound.
  EdgeId MaxDataEdgeId() const;

  /// Exact equality of the two mappings (not just signatures): same query
  /// shape, same vertex and edge bindings.
  friend bool operator==(const Match& a, const Match& b);

  /// Merges two matches of the same query with disjoint bound edge sets and
  /// consistent vertex bindings (the SJ-Tree join, Property 2). The caller
  /// must have validated compatibility (JoinCompatible below).
  static Match Union(const Match& a, const Match& b);

  /// Debug rendering: "{v0->17, v1->4 | e0->#123@5, ...} span=..".
  std::string ToString() const;

  /// Rendering in deployment-invariant ids: vertices by external id
  /// (resolved through `graph`, the delivering engine's), edges by their
  /// global ingest id. Same shape as ToString, but two deployments that
  /// found the same match render the same bytes — ToString's internal
  /// vertex ids are per-engine ingestion-order artifacts, so its output
  /// differs between a single engine and the shards of a partitioned
  /// group (or cluster) even for identical matches. Served EVENT/POLL
  /// lines use this form for exactly that reason.
  std::string ToExternalString(const DynamicGraph& graph) const;

 private:
  /// The bindings of a query that fits kInlineCapacity. Unbound slots hold
  /// kInvalidVertexId / kInvalidEdgeId; a slot's timestamp is meaningful
  /// only while its edge is bound.
  struct InlineSlots {
    EdgeId edges[kInlineCapacity];
    Timestamp ts[kInlineCapacity];
    VertexId vertices[kInlineCapacity];
  };

  Match(int num_vertices, int num_edges);

  // A spilled query's heap block holds the same three arrays as
  // InlineSlots, each sized for the query: [edges | ts | vertices].
  size_t ts_offset() const { return num_edges_ * sizeof(EdgeId); }
  size_t vertex_offset() const {
    return ts_offset() + num_edges_ * sizeof(Timestamp);
  }
  size_t spill_bytes() const {
    return vertex_offset() + num_vertices_ * sizeof(VertexId);
  }

  const EdgeId* edge_slots() const {
    return spilled_ ? reinterpret_cast<const EdgeId*>(heap_) : inline_.edges;
  }
  const Timestamp* ts_slots() const {
    return spilled_ ? reinterpret_cast<const Timestamp*>(heap_ + ts_offset())
                    : inline_.ts;
  }
  const VertexId* vertex_slots() const {
    return spilled_ ? reinterpret_cast<const VertexId*>(heap_ + vertex_offset())
                    : inline_.vertices;
  }
  EdgeId* edge_slots() {
    return const_cast<EdgeId*>(std::as_const(*this).edge_slots());
  }
  Timestamp* ts_slots() {
    return const_cast<Timestamp*>(std::as_const(*this).ts_slots());
  }
  VertexId* vertex_slots() {
    return const_cast<VertexId*>(std::as_const(*this).vertex_slots());
  }

  /// Makes this match a copy of `other`, releasing its own heap block.
  void CopyFrom(const Match& other);
  /// Like CopyFrom, but takes `other`'s heap block instead of copying it
  /// and leaves `other` an empty match of no query.
  void TakeFrom(Match* other);
  /// Copies everything but the slots.
  void CopyShape(const Match& other);
  void FreeSpill() {
    if (spilled_) delete[] heap_;  // inline slots own nothing
  }

  union {
    InlineSlots inline_;
    std::byte* heap_;  // when spilled_: [edges | ts | vertices]
  };
  Bitset64 bound_vertices_;
  Bitset64 bound_edges_;
  Timestamp min_ts_ = kMaxTimestamp;
  Timestamp max_ts_ = kMinTimestamp;
  uint8_t num_vertices_ = 0;
  uint8_t num_edges_ = 0;
  bool spilled_ = false;
};

/// Validates that `a` and `b` can be joined into one consistent mapping:
/// disjoint bound query-edge sets, agreeing data vertices on shared query
/// vertices, global vertex injectivity (distinct query vertices never share
/// a data vertex), edge injectivity (no data edge bound twice), and combined
/// time span < `window`.
bool JoinCompatible(const Match& a, const Match& b, Timestamp window);

}  // namespace streamworks

#endif  // STREAMWORKS_MATCH_MATCH_H_
