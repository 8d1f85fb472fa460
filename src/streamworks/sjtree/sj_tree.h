#ifndef STREAMWORKS_SJTREE_SJ_TREE_H_
#define STREAMWORKS_SJTREE_SJ_TREE_H_

#include <string>
#include <vector>

#include "streamworks/common/types.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/match/match.h"
#include "streamworks/sjtree/decomposition.h"
#include "streamworks/sjtree/exchange.h"
#include "streamworks/sjtree/match_store.h"

namespace streamworks {

/// How one arriving data edge can enter one SJ-Tree leaf: the anchor query
/// edge plus the precomputed expansion order for the rest of the leaf's
/// subgraph, and the label triple used for routing.
struct AnchorPlan {
  int leaf = -1;                     ///< Decomposition node id.
  QueryEdgeId anchor = 0;            ///< order[0].
  std::vector<QueryEdgeId> order;    ///< ConnectedEdgeOrder of the leaf.
  LabelId edge_label = kInvalidLabelId;
  LabelId src_label = kInvalidLabelId;
  LabelId dst_label = kInvalidLabelId;
};

/// Per-node runtime counters (metrics and the Fig. 7 partial-match series).
struct SjNodeStats {
  uint64_t matches_inserted = 0;
  uint64_t probes = 0;
  uint64_t join_attempts = 0;   ///< JoinCompatible evaluations.
  uint64_t joins_succeeded = 0;
};

/// The Subgraph Join Tree (paper §3.2): the incremental matcher for one
/// registered query. Owns a match collection per decomposition node and
/// implements the §4.2 execution loop:
///
///   1. a new data edge is locally searched against each leaf it can anchor
///      (ProcessEdge / RunAnchorPlan);
///   2. every match inserted at a node probes the sibling's collection via
///      the parent's cut-vertex join key;
///   3. validated combinations insert at the parent, repeating upward;
///   4. a match inserted at the root is a complete result and is emitted.
///
/// Exactly-once emission: each leaf match is created exactly once (its
/// anchor is its newest data edge — see local_search.h), and each internal
/// combination once (created when the later of the two child matches
/// inserts). The equivalence property suite checks this against two
/// independent oracles.
class SjTree {
 public:
  /// `query` must outlive the tree. `window` is the query's strict time
  /// window tW (kMaxTimestamp = unbounded).
  SjTree(const QueryGraph* query, Decomposition decomposition,
         Timestamp window);

  const QueryGraph& query() const { return *query_; }
  const Decomposition& decomposition() const { return decomposition_; }
  Timestamp window() const { return window_; }

  /// All (leaf, anchor-edge) plans, for engine-level label routing.
  const std::vector<AnchorPlan>& anchor_plans() const {
    return anchor_plans_;
  }

  /// Runs every anchor plan whose labels match the new edge; appends
  /// complete matches to *completed. The edge must already be in `graph`
  /// and be its newest (the engine ingests, then calls this).
  void ProcessEdge(const DynamicGraph& graph, EdgeId edge_id,
                   std::vector<Match>* completed);

  /// Runs a single anchor plan (engine routing path). The caller has
  /// already checked the plan's labels against the edge.
  void RunAnchorPlan(const DynamicGraph& graph, size_t plan_index,
                     EdgeId edge_id, std::vector<Match>* completed);

  // --- Sharded (vertex-partitioned) execution ------------------------------
  // One SJ-Tree instance lives on every shard; `graph` is the shard's
  // partition of the data graph (global edge ids). Work that leaves the
  // shard — an expansion whose scan vertex is foreign, or an insert whose
  // (parent, cut-assignment) home is elsewhere — goes through `router`
  // instead of running locally; work arriving from other shards enters
  // through ResumeExpansion / InsertForwarded. A completion stays on the
  // shard that finds it. The match sets produced across all shards equal
  // a single-graph run's exactly (the routing only relocates each
  // exactly-once event, it never duplicates or drops one).

  /// Sharded RunAnchorPlan. Run only on the shard that owns the arriving
  /// edge's source vertex, so each anchor fires exactly once group-wide.
  void RunAnchorPlanSharded(const DynamicGraph& graph, size_t plan_index,
                            EdgeId edge_id, ShardRouter* router,
                            std::vector<Match>* completed);

  /// Continues a forwarded leaf expansion at `step` of `plan_index`'s
  /// expansion order. This shard owns the step's scan vertex.
  void ResumeExpansion(const DynamicGraph& graph, size_t plan_index,
                       size_t step, Match* partial, ShardRouter* router,
                       std::vector<Match>* completed);

  /// Inserts a forwarded match at `node`; this shard is the home of the
  /// match's (parent, cut-assignment) key.
  void InsertForwarded(const DynamicGraph& graph, int node, const Match& m,
                       ShardRouter* router, std::vector<Match>* completed);

  /// Drops, in every node store, the time slices whose partial matches are
  /// all too old to ever reach the root under `watermark`. O(stores): no
  /// match is visited. The engine calls this whenever the watermark
  /// advances; probes skip the dead matches of the slice that straddles
  /// the cutoff.
  void ExpireOldMatches(Timestamp watermark);

  // --- Introspection ------------------------------------------------------
  /// Partial matches stored at `node`: the live ones plus the dead ones
  /// of the slice straddling the last expiry cutoff (MatchStore).
  size_t NumPartialMatches(int node) const { return stores_[node].size(); }
  /// Sum over all non-root nodes.
  size_t TotalPartialMatches() const { return stored_; }
  /// Largest total ever observed (after inserts).
  size_t PeakTotalPartialMatches() const { return peak_total_; }
  /// Earliest min_ts over every stored partial match (kMaxTimestamp when
  /// none is stored).
  Timestamp OldestPartialMatch() const;
  const SjNodeStats& node_stats(int node) const { return stats_[node]; }
  uint64_t num_completed() const { return completed_count_; }

  /// The Fig. 7 "percent matched" series inside the window ending at
  /// `watermark`: 1.0 while a completion lies inside it, else the largest
  /// fraction of the query's edges covered by a node holding a live
  /// partial match (min_ts within the window), else 0.
  double MaxMatchedFraction(Timestamp watermark) const;

  /// Multi-line dump of per-node occupancy for debugging.
  std::string DebugString() const;

 private:
  /// Join key of `m` under `parent`'s cut vertices (graph-local ids; used
  /// to index the local stores).
  uint64_t CutKey(int parent, const Match& m) const;

  /// Cut-key over *external* vertex ids: the shard-independent signature
  /// the router hashes into a home shard. Local ids would disagree between
  /// shards (each numbers vertices by its own ingest order) and siblings
  /// would scatter.
  uint64_t ExtCutKey(const DynamicGraph& graph, int parent,
                     const Match& m) const;

  /// Property-3 insert + §4.2 upward combination. Appends completions.
  /// With a router, work whose home is remote is forwarded instead;
  /// locally-homed work proceeds exactly as the classic path.
  void InsertAndPropagate(const DynamicGraph& graph, int node,
                          const Match& m, std::vector<Match>* completed,
                          ShardRouter* router);

  /// Hands an expansion branch stopped at `step` to the shard owning the
  /// step's scan vertex.
  void ForwardExpandBranch(const DynamicGraph& graph, size_t plan_index,
                           const Match& partial, size_t step,
                           ShardRouter* router) const;

  /// Dead-match cutoff for the current watermark.
  Timestamp Cutoff(Timestamp watermark) const;

  const QueryGraph* query_;
  Decomposition decomposition_;
  Timestamp window_;

  std::vector<AnchorPlan> anchor_plans_;
  MatchChunkPool pool_;  ///< Shared by stores_; outlives them.
  std::vector<MatchStore> stores_;   ///< Indexed by decomposition node id.
  std::vector<SjNodeStats> stats_;
  uint64_t completed_count_ = 0;
  /// Largest min_ts of any completion (kMinTimestamp before the first).
  Timestamp max_completion_min_ts_ = kMinTimestamp;
  size_t stored_ = 0;  ///< Sum of the stores' sizes.
  size_t peak_total_ = 0;
};

}  // namespace streamworks

#endif  // STREAMWORKS_SJTREE_SJ_TREE_H_
