#include "streamworks/sjtree/sj_tree.h"

#include <algorithm>
#include <sstream>

#include "streamworks/common/hash.h"
#include "streamworks/common/logging.h"
#include "streamworks/match/backtrack.h"
#include "streamworks/match/local_search.h"

namespace streamworks {

SjTree::SjTree(const QueryGraph* query, Decomposition decomposition,
               Timestamp window)
    : query_(query),
      decomposition_(std::move(decomposition)),
      window_(window),
      stats_(decomposition_.num_nodes()) {
  SW_CHECK_OK(decomposition_.Validate(*query_));
  SW_CHECK_GT(window_, 0);
  stores_.reserve(decomposition_.num_nodes());
  for (int n = 0; n < decomposition_.num_nodes(); ++n) {
    stores_.emplace_back(window_);
  }
  // Precompute one anchor plan per (leaf, query edge in leaf): the arriving
  // edge may enter the leaf through any of its edges.
  for (int leaf : decomposition_.leaves()) {
    const Bitset64 leaf_edges = decomposition_.node(leaf).edges;
    for (int qe : leaf_edges) {
      AnchorPlan plan;
      plan.leaf = leaf;
      plan.anchor = static_cast<QueryEdgeId>(qe);
      plan.order = ConnectedEdgeOrder(*query_, leaf_edges, plan.anchor);
      const QueryEdge& qedge = query_->edge(plan.anchor);
      plan.edge_label = qedge.label;
      plan.src_label = query_->vertex_label(qedge.src);
      plan.dst_label = query_->vertex_label(qedge.dst);
      anchor_plans_.push_back(std::move(plan));
    }
  }
}

Timestamp SjTree::Cutoff(Timestamp watermark) const {
  if (window_ == kMaxTimestamp || window_ > watermark) return 0;
  return watermark - window_ + 1;
}

uint64_t SjTree::CutKey(int parent, const Match& m) const {
  const Bitset64 cut = decomposition_.node(parent).cut_vertices;
  uint64_t h = 0x536a74726565ull;  // arbitrary seed
  for (int qv : cut) {
    SW_DCHECK(m.HasVertex(static_cast<QueryVertexId>(qv)))
        << "cut vertex unbound in stored match";
    h = HashCombine(h, (static_cast<uint64_t>(qv) << 40) ^
                           m.vertex(static_cast<QueryVertexId>(qv)));
  }
  return h;
}

uint64_t SjTree::ExtCutKey(const DynamicGraph& graph, int parent,
                           const Match& m) const {
  const Bitset64 cut = decomposition_.node(parent).cut_vertices;
  uint64_t h = 0x45787443757400ull;  // arbitrary seed, distinct from CutKey
  h = HashCombine(h, static_cast<uint64_t>(parent));
  for (int qv : cut) {
    SW_DCHECK(m.HasVertex(static_cast<QueryVertexId>(qv)))
        << "cut vertex unbound in stored match";
    h = HashCombine(
        h, (static_cast<uint64_t>(qv) << 40) ^
               Mix64(graph.external_id(
                   m.vertex(static_cast<QueryVertexId>(qv)))));
  }
  return h;
}

void SjTree::InsertAndPropagate(const DynamicGraph& graph, int node,
                                const Match& m,
                                std::vector<Match>* completed,
                                ShardRouter* router) {
  if (node == decomposition_.root()) {
    ++stats_[node].matches_inserted;
    ++completed_count_;
    max_completion_min_ts_ = std::max(max_completion_min_ts_, m.min_ts());
    completed->push_back(m);
    return;
  }
  const int parent = decomposition_.node(node).parent;
  if (router != nullptr) {
    const int home = router->HomeShard(ExtCutKey(graph, parent, m));
    if (home != router->self_shard()) {
      router->ForwardInsert(home, node, m);
      return;
    }
  }
  ++stats_[node].matches_inserted;
  const int sibling = decomposition_.Sibling(node);
  const uint64_t key = CutKey(parent, m);
  if (stores_[node].Insert(key, m, &pool_)) {
    peak_total_ = std::max(peak_total_, ++stored_);
  }

  // Probe the sibling's collection through the parent's cut (§4.2): the
  // hash key equates cut-vertex assignments; JoinCompatible re-validates
  // them exactly and adds injectivity + window checks. In sharded mode the
  // probe stays local by construction (both siblings of a cut assignment
  // home to the same shard), but the cutoff that hides dead matches must
  // come from the router's *safe* watermark, never the local graph's: the
  // local watermark can run ahead of a forwarded match still in flight,
  // and an eager cutoff would hide join partners a single engine still
  // sees. A lagging cutoff merely shows more matches — those fail the
  // window check anyway.
  //
  // Each join propagates as soon as it is found. The probe only reads the
  // sibling's store, and propagation inserts and probes only above it (the
  // parent, the ancestors and their siblings), so the probed store cannot
  // change under the probe.
  ++stats_[node].probes;
  const Timestamp cutoff = Cutoff(
      router != nullptr ? router->safe_watermark() : graph.watermark());
  stores_[sibling].ProbeKey(key, cutoff, [&](const Match& s) {
    ++stats_[node].join_attempts;
    if (JoinCompatible(m, s, window_)) {
      ++stats_[node].joins_succeeded;
      InsertAndPropagate(graph, parent, Match::Union(m, s), completed, router);
    }
  });
}

void SjTree::RunAnchorPlan(const DynamicGraph& graph, size_t plan_index,
                           EdgeId edge_id, std::vector<Match>* completed) {
  const AnchorPlan& plan = anchor_plans_[plan_index];
  FindAnchoredMatches(graph, *query_, plan.order, edge_id, window_,
                      [&](const Match& m) {
                        InsertAndPropagate(graph, plan.leaf, m, completed,
                                           nullptr);
                        return true;
                      });
}

void SjTree::ForwardExpandBranch(const DynamicGraph& graph,
                                 size_t plan_index, const Match& partial,
                                 size_t step, ShardRouter* router) const {
  // Recompute the step's scan vertex (same side rule as the gated
  // backtracker: enumerate from src when bound, else from dst) to find the
  // owning shard.
  const AnchorPlan& plan = anchor_plans_[plan_index];
  const QueryEdge& qedge = query_->edge(plan.order[step]);
  const VertexId scan = partial.HasVertex(qedge.src)
                            ? partial.vertex(qedge.src)
                            : partial.vertex(qedge.dst);
  const int dest = router->OwnerOfVertex(graph.external_id(scan));
  SW_DCHECK_NE(dest, router->self_shard())
      << "gate refused a locally owned scan vertex";
  router->ForwardExpansion(dest, static_cast<uint32_t>(plan_index),
                           static_cast<int>(step), partial);
}

void SjTree::RunAnchorPlanSharded(const DynamicGraph& graph,
                                  size_t plan_index, EdgeId edge_id,
                                  ShardRouter* router,
                                  std::vector<Match>* completed) {
  const AnchorPlan& plan = anchor_plans_[plan_index];
  FindAnchoredMatchesSharded(
      graph, *query_, plan.order, edge_id, window_,
      [&](VertexId v) {
        return router->OwnerOfVertex(graph.external_id(v)) ==
               router->self_shard();
      },
      [&](const Match& m) {
        InsertAndPropagate(graph, plan.leaf, m, completed, router);
        return true;
      },
      [&](const Match& partial, size_t step) {
        ForwardExpandBranch(graph, plan_index, partial, step, router);
      });
}

void SjTree::ResumeExpansion(const DynamicGraph& graph, size_t plan_index,
                             size_t step, Match* partial,
                             ShardRouter* router,
                             std::vector<Match>* completed) {
  const AnchorPlan& plan = anchor_plans_[plan_index];
  ResumeAnchoredMatchesSharded(
      graph, *query_, plan.order, step, window_, partial,
      [&](VertexId v) {
        return router->OwnerOfVertex(graph.external_id(v)) ==
               router->self_shard();
      },
      [&](const Match& m) {
        InsertAndPropagate(graph, plan.leaf, m, completed, router);
        return true;
      },
      [&](const Match& p, size_t s) {
        ForwardExpandBranch(graph, plan_index, p, s, router);
      });
}

void SjTree::InsertForwarded(const DynamicGraph& graph, int node,
                             const Match& m, ShardRouter* router,
                             std::vector<Match>* completed) {
  // We are the home of (parent(node), m's cut assignment); the routing
  // check inside InsertAndPropagate re-derives that and proceeds locally.
  InsertAndPropagate(graph, node, m, completed, router);
}

void SjTree::ProcessEdge(const DynamicGraph& graph, EdgeId edge_id,
                         std::vector<Match>* completed) {
  const EdgeRecord& record = graph.edge_record(edge_id);
  const LabelId src_label = graph.vertex_label(record.src);
  const LabelId dst_label = graph.vertex_label(record.dst);
  for (size_t i = 0; i < anchor_plans_.size(); ++i) {
    const AnchorPlan& plan = anchor_plans_[i];
    if (plan.edge_label != record.label || plan.src_label != src_label ||
        plan.dst_label != dst_label) {
      continue;
    }
    RunAnchorPlan(graph, i, edge_id, completed);
  }
}

void SjTree::ExpireOldMatches(Timestamp watermark) {
  const Timestamp cutoff = Cutoff(watermark);
  if (cutoff <= 0) return;
  for (MatchStore& store : stores_) stored_ -= store.Expire(cutoff, &pool_);
}

Timestamp SjTree::OldestPartialMatch() const {
  Timestamp oldest = kMaxTimestamp;
  for (const MatchStore& store : stores_) {
    oldest = std::min(oldest, store.OldestMinTs());
  }
  return oldest;
}

double SjTree::MaxMatchedFraction(Timestamp watermark) const {
  const Timestamp cutoff = Cutoff(watermark);
  if (max_completion_min_ts_ >= cutoff) return 1.0;
  double best = 0;
  for (int n = 0; n < decomposition_.num_nodes(); ++n) {
    if (!stores_[n].HasLive(cutoff)) continue;
    best = std::max(best, static_cast<double>(
                              decomposition_.node(n).edges.Count()) /
                              query_->num_edges());
  }
  return best;
}

std::string SjTree::DebugString() const {
  std::ostringstream os;
  os << "SjTree(query=" << query_->name() << ", window=" << window_ << ")\n";
  for (int n = 0; n < decomposition_.num_nodes(); ++n) {
    os << "  n" << n << (decomposition_.IsLeaf(n) ? " leaf" : " join")
       << " edges=" << decomposition_.node(n).edges.Count()
       << " stored=" << stores_[n].size()
       << " inserted=" << stats_[n].matches_inserted
       << " join_attempts=" << stats_[n].join_attempts
       << " joined=" << stats_[n].joins_succeeded << "\n";
  }
  os << "  completed=" << completed_count_ << "\n";
  return os.str();
}

}  // namespace streamworks
