#ifndef STREAMWORKS_PLANNER_PLANNER_H_
#define STREAMWORKS_PLANNER_PLANNER_H_

#include <array>
#include <string>
#include <string_view>

#include "streamworks/common/statusor.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/planner/selectivity.h"
#include "streamworks/sjtree/decomposition.h"

namespace streamworks {

/// The query decomposition strategies (paper §4.1): how a query graph is
/// partitioned into search primitives and in what order their matches are
/// joined.
enum class DecompositionStrategy {
  /// Single-edge leaves in a structural (BFS-from-edge-0) connected order;
  /// left-deep joins. The uninformed baseline plan.
  kLeftDeepEdgeOrder,
  /// The default. With statistics: single-edge leaves; seed with the most
  /// selective edge, then greedily extend with the connectable edge that
  /// minimises the estimated cardinality of the accumulated join
  /// (System-R style) — keeping every intermediate partial-match
  /// population small, the paper's §4.1 goal; left-deep.
  /// Without statistics every estimate ties and that order would be
  /// edge-id order, which for a news query pairs up every two articles
  /// sharing a keyword before it checks their location. So it plans what
  /// kPrimitivePairs plans: wedges that each hold a low-degree vertex
  /// (an article, a smurf amplifier), joined on the query's hubs.
  kSelectivityLeftDeep,
  /// Greedy 2-edge primitives (wedges) chosen by triad rarity, leftovers
  /// as single edges; left-deep over primitives ordered by rarity. The
  /// Fig. 2 style decomposition.
  kPrimitivePairs,
  /// Selectivity-ordered single-edge leaves arranged as a balanced binary
  /// tree (ablation of tree *shape*); falls back to left-deep when a
  /// bisection would create an empty cut.
  kBalancedBisection,
};

inline constexpr std::array<DecompositionStrategy, 4>
    kAllDecompositionStrategies = {
        DecompositionStrategy::kLeftDeepEdgeOrder,
        DecompositionStrategy::kSelectivityLeftDeep,
        DecompositionStrategy::kPrimitivePairs,
        DecompositionStrategy::kBalancedBisection,
};

/// Short stable name ("left_deep_edge_order", ...) for tables and CLI.
std::string_view DecompositionStrategyName(DecompositionStrategy strategy);

/// Inverse of DecompositionStrategyName. InvalidArgument on an unknown
/// name.
StatusOr<DecompositionStrategy> ParseDecompositionStrategy(
    std::string_view name);

/// Turns query graphs into validated SJ-Tree decompositions under a chosen
/// strategy, using a SelectivityEstimator fed by stream summarisation
/// (§4.3). Without statistics (a null estimator, or one without stats)
/// every estimate is 1.0: kSelectivityLeftDeep plans like
/// kPrimitivePairs, whose pairing then rests on its structural tie-break,
/// and kBalancedBisection bisects connected edge-id order. Plans are
/// deterministic either way, so replicas that plan one query agree.
class QueryPlanner {
 public:
  explicit QueryPlanner(const SelectivityEstimator* estimator = nullptr)
      : estimator_(estimator) {}

  /// Builds and validates the decomposition for `query` under `strategy`.
  StatusOr<Decomposition> Plan(const QueryGraph& query,
                               DecompositionStrategy strategy) const;

  /// Renders the decomposition with each node's estimated cardinality —
  /// the "query planning" pane of the demo (paper §1.1).
  std::string ExplainPlan(const QueryGraph& query, const Decomposition& d,
                          const Interner& interner) const;

 private:
  double Cardinality(const QueryGraph& query, Bitset64 edges) const;

  /// Single-edge leaves: most-selective seed, then greedy minimum
  /// prefix-cardinality connected order.
  std::vector<Bitset64> SelectivityConnectedOrder(
      const QueryGraph& query) const;

  /// Greedy rare-first wedge pairing; leftovers as single edges; leaves in
  /// ascending-cardinality connected order. Pairs of equal estimated
  /// cardinality go in ascending query degree of their shared vertex
  /// (fewest query edges first), then by edge ids: a vertex with two
  /// query edges sits inside one leaf, and the hubs become join keys
  /// whatever order the query's edges were typed in.
  std::vector<Bitset64> GreedyPrimitivePairs(const QueryGraph& query) const;

  bool has_stats() const {
    return estimator_ != nullptr && estimator_->has_stats();
  }

  const SelectivityEstimator* estimator_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_PLANNER_PLANNER_H_
