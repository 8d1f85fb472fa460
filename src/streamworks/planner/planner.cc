#include "streamworks/planner/planner.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <tuple>

#include "streamworks/common/logging.h"
#include "streamworks/common/str_util.h"

namespace streamworks {

std::string_view DecompositionStrategyName(DecompositionStrategy strategy) {
  switch (strategy) {
    case DecompositionStrategy::kLeftDeepEdgeOrder:
      return "left_deep_edge_order";
    case DecompositionStrategy::kSelectivityLeftDeep:
      return "selectivity_left_deep";
    case DecompositionStrategy::kPrimitivePairs:
      return "primitive_pairs";
    case DecompositionStrategy::kBalancedBisection:
      return "balanced_bisection";
  }
  return "unknown";
}

StatusOr<DecompositionStrategy> ParseDecompositionStrategy(
    std::string_view name) {
  for (DecompositionStrategy s : kAllDecompositionStrategies) {
    if (DecompositionStrategyName(s) == name) return s;
  }
  return Status::InvalidArgument("unknown decomposition strategy: " +
                                 std::string(name));
}

double QueryPlanner::Cardinality(const QueryGraph& query,
                                 Bitset64 edges) const {
  if (estimator_ == nullptr) return 1.0;
  return estimator_->SubgraphCardinality(query, edges);
}

std::vector<Bitset64> QueryPlanner::SelectivityConnectedOrder(
    const QueryGraph& query) const {
  const int n = query.num_edges();
  std::vector<double> card(n);
  for (int e = 0; e < n; ++e) {
    card[e] = Cardinality(query, Bitset64::Single(e));
  }
  // Seed with the globally most selective edge; ties break on edge id so
  // plans are deterministic.
  int seed = 0;
  for (int e = 1; e < n; ++e) {
    if (card[e] < card[seed]) seed = e;
  }
  std::vector<Bitset64> order = {Bitset64::Single(seed)};
  Bitset64 prefix = Bitset64::Single(seed);
  Bitset64 covered_vertices = query.VerticesOfEdges(prefix);
  Bitset64 remaining = query.AllEdges() - prefix;
  while (!remaining.Empty()) {
    // Greedy System-R style extension: among connectable edges, minimise
    // the estimated cardinality of the *accumulated* join — that is the
    // partial-match population the new internal node will hold. (Per-edge
    // greediness is not enough: a chain of rare edges meeting only at a
    // popular vertex still explodes the intermediate joins.)
    int best = -1;
    double best_score = 0;
    for (int e : remaining) {
      const QueryEdge& qe = query.edge(static_cast<QueryEdgeId>(e));
      if (!covered_vertices.Contains(qe.src) &&
          !covered_vertices.Contains(qe.dst)) {
        continue;  // keeps the left-deep join connected
      }
      const double score =
          Cardinality(query, prefix | Bitset64::Single(e));
      if (best < 0 || score < best_score ||
          (score == best_score && card[e] < card[best])) {
        best = e;
        best_score = score;
      }
    }
    SW_CHECK_GE(best, 0) << "connected query must always extend";
    order.push_back(Bitset64::Single(best));
    prefix = prefix | Bitset64::Single(best);
    covered_vertices =
        covered_vertices | query.VerticesOfEdges(Bitset64::Single(best));
    remaining.Remove(best);
  }
  return order;
}

std::vector<Bitset64> QueryPlanner::GreedyPrimitivePairs(
    const QueryGraph& query) const {
  const int n = query.num_edges();
  // All connected 2-edge primitives, rare-first.
  struct Pair {
    int e1;
    int e2;
    double card;
    /// Query degree of the shared vertex (the smaller one if the two
    /// edges share both endpoints).
    size_t centre_degree;
  };
  std::vector<Pair> pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Bitset64 mask = Bitset64::Single(i) | Bitset64::Single(j);
      if (!query.IsEdgeSetConnected(mask)) continue;
      size_t centre_degree = SIZE_MAX;
      for (int v : query.VerticesOfEdges(Bitset64::Single(i)) &
                       query.VerticesOfEdges(Bitset64::Single(j))) {
        centre_degree = std::min(
            centre_degree,
            query.incident(static_cast<QueryVertexId>(v)).size());
      }
      pairs.push_back(Pair{i, j, Cardinality(query, mask), centre_degree});
    }
  }
  // Among equally rare pairs, a wedge centred on a low-degree vertex goes
  // first: its centre then lives inside one leaf, and the high-degree
  // vertices (the query's hubs) become the join keys. Without statistics
  // every pair ties, and this is what keeps the plan independent of the
  // order the query's edges were typed in.
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return std::tie(a.card, a.centre_degree, a.e1, a.e2) <
           std::tie(b.card, b.centre_degree, b.e1, b.e2);
  });
  Bitset64 covered;
  std::vector<Bitset64> leaves;
  for (const Pair& p : pairs) {
    if (covered.Contains(p.e1) || covered.Contains(p.e2)) continue;
    leaves.push_back(Bitset64::Single(p.e1) | Bitset64::Single(p.e2));
    covered.Add(p.e1);
    covered.Add(p.e2);
  }
  for (int e : query.AllEdges() - covered) {
    leaves.push_back(Bitset64::Single(e));
  }

  // Join order: ascending cardinality under the connectivity constraint.
  std::vector<double> leaf_card(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    leaf_card[i] = Cardinality(query, leaves[i]);
  }
  std::vector<bool> used(leaves.size(), false);
  std::vector<Bitset64> order;
  Bitset64 covered_vertices;
  for (size_t step = 0; step < leaves.size(); ++step) {
    int best = -1;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (used[i]) continue;
      if (step > 0 &&
          !covered_vertices.Intersects(query.VerticesOfEdges(leaves[i]))) {
        continue;
      }
      if (best < 0 || leaf_card[i] < leaf_card[best]) {
        best = static_cast<int>(i);
      }
    }
    SW_CHECK_GE(best, 0) << "connected query must always extend";
    used[best] = true;
    order.push_back(leaves[best]);
    covered_vertices =
        covered_vertices | query.VerticesOfEdges(leaves[best]);
  }
  return order;
}

StatusOr<Decomposition> QueryPlanner::Plan(
    const QueryGraph& query, DecompositionStrategy strategy) const {
  switch (strategy) {
    case DecompositionStrategy::kLeftDeepEdgeOrder: {
      std::vector<Bitset64> leaves;
      Bitset64 covered_vertices;
      Bitset64 remaining = query.AllEdges();
      // Structural connected order: always the lowest-id connectable edge.
      while (!remaining.Empty()) {
        int pick = -1;
        for (int e : remaining) {
          const QueryEdge& qe = query.edge(static_cast<QueryEdgeId>(e));
          if (leaves.empty() || covered_vertices.Contains(qe.src) ||
              covered_vertices.Contains(qe.dst)) {
            pick = e;
            break;
          }
        }
        SW_CHECK_GE(pick, 0);
        leaves.push_back(Bitset64::Single(pick));
        covered_vertices =
            covered_vertices | query.VerticesOfEdges(Bitset64::Single(pick));
        remaining.Remove(pick);
      }
      return Decomposition::MakeLeftDeep(query, leaves);
    }
    case DecompositionStrategy::kSelectivityLeftDeep:
      if (has_stats()) {
        return Decomposition::MakeLeftDeep(query,
                                           SelectivityConnectedOrder(query));
      }
      // Without statistics every estimate ties and the order above is
      // edge-id order; plan wedges instead (see planner.h).
      [[fallthrough]];
    case DecompositionStrategy::kPrimitivePairs:
      return Decomposition::MakeLeftDeep(query, GreedyPrimitivePairs(query));
    case DecompositionStrategy::kBalancedBisection: {
      const std::vector<Bitset64> order = SelectivityConnectedOrder(query);
      auto balanced = Decomposition::MakeBalanced(query, order);
      if (balanced.ok()) return balanced;
      // Bisection can orphan a middle leaf from its half; the left-deep
      // tree over the same order is always valid.
      return Decomposition::MakeLeftDeep(query, order);
    }
  }
  return Status::InvalidArgument("unknown decomposition strategy");
}

std::string QueryPlanner::ExplainPlan(const QueryGraph& query,
                                      const Decomposition& d,
                                      const Interner& interner) const {
  std::ostringstream os;
  os << d.ToString(query, interner);
  os << "-- estimated cardinalities --\n";
  std::function<void(int, int)> render = [&](int n, int depth) {
    os << std::string(static_cast<size_t>(depth) * 2, ' ') << "n" << n
       << ": est=" << FormatDouble(Cardinality(query, d.node(n).edges), 1)
       << (d.IsLeaf(n) ? "  (search primitive)" : "") << "\n";
    if (!d.IsLeaf(n)) {
      render(d.node(n).left, depth + 1);
      render(d.node(n).right, depth + 1);
    }
  };
  render(d.root(), 0);
  return os.str();
}

}  // namespace streamworks
