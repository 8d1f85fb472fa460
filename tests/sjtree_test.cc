// Tests for streamworks/sjtree: decomposition construction and validation
// (SJ-Tree Properties 1-4), the key-indexed MatchStore and its expiry by
// time slice,
// the wire form of forwarded matches, and the SjTree incremental matcher,
// including a three-way equivalence property sweep against the naive
// incremental matcher and the batch oracle.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/match/backtrack.h"
#include "streamworks/match/local_search.h"
#include "streamworks/match/subgraph_iso.h"
#include "streamworks/sjtree/decomposition.h"
#include "streamworks/sjtree/exchange.h"
#include "streamworks/sjtree/match_store.h"
#include "streamworks/sjtree/sj_tree.h"

namespace streamworks {
namespace {

StreamEdge MakeEdge(Interner* interner, uint64_t src, uint64_t dst,
                    std::string_view elabel, Timestamp ts,
                    std::string_view src_label = "V",
                    std::string_view dst_label = "V") {
  StreamEdge e;
  e.src = src;
  e.dst = dst;
  e.src_label = interner->Intern(src_label);
  e.dst_label = interner->Intern(dst_label);
  e.edge_label = interner->Intern(elabel);
  e.ts = ts;
  return e;
}

/// Path query v0 -[x]-> v1 -[y]-> v2.
QueryGraph PathQuery(Interner* interner) {
  QueryGraphBuilder builder(interner);
  const auto va = builder.AddVertex("V");
  const auto vb = builder.AddVertex("V");
  const auto vc = builder.AddVertex("V");
  builder.AddEdge(va, vb, "x");
  builder.AddEdge(vb, vc, "y");
  return builder.Build("path2").value();
}

/// Path query with 4 edges, all distinct labels a,b,c,d.
QueryGraph Path4Query(Interner* interner) {
  QueryGraphBuilder builder(interner);
  QueryVertexId v[5];
  for (auto& vi : v) vi = builder.AddVertex("V");
  builder.AddEdge(v[0], v[1], "a");
  builder.AddEdge(v[1], v[2], "b");
  builder.AddEdge(v[2], v[3], "c");
  builder.AddEdge(v[3], v[4], "d");
  return builder.Build("path4").value();
}

QueryGraph TriangleQuery(Interner* interner) {
  QueryGraphBuilder builder(interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  const auto v2 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  builder.AddEdge(v1, v2, "x");
  builder.AddEdge(v2, v0, "x");
  return builder.Build("triangle").value();
}

/// Single-edge leaves in a connected expansion order — the simplest valid
/// left-deep plan (the planner module layers smarter orders on top).
std::vector<Bitset64> SingleEdgeLeaves(const QueryGraph& q) {
  std::vector<Bitset64> leaves;
  for (QueryEdgeId e : ConnectedEdgeOrder(q, q.AllEdges(), 0)) {
    leaves.push_back(Bitset64::Single(e));
  }
  return leaves;
}

// --- Decomposition -------------------------------------------------------------

TEST(DecompositionTest, LeftDeepPathShapeAndProperties) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  auto d = Decomposition::MakeLeftDeep(q, SingleEdgeLeaves(q));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->num_nodes(), 3);  // 2 leaves + 1 join
  EXPECT_EQ(d->leaves().size(), 2u);
  EXPECT_EQ(d->Height(), 2);
  const DecompositionNode& root = d->node(d->root());
  EXPECT_EQ(root.edges, q.AllEdges());        // Property 1
  EXPECT_EQ(root.cut_vertices.Count(), 1);    // shared middle vertex
  EXPECT_TRUE(root.cut_vertices.Contains(1));
  EXPECT_TRUE(d->Validate(q).ok());
}

TEST(DecompositionTest, SiblingPointers) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  const Decomposition d =
      Decomposition::MakeLeftDeep(q, SingleEdgeLeaves(q)).value();
  for (int leaf : d.leaves()) {
    const int sib = d.Sibling(leaf);
    EXPECT_NE(sib, leaf);
    EXPECT_EQ(d.node(sib).parent, d.node(leaf).parent);
  }
}

TEST(DecompositionTest, LeftDeepRejectsDisconnectedOrder) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  // Leaf order e0, e2: no shared vertex between {v0,v1} and {v2,v3}.
  std::vector<Bitset64> leaves = {
      Bitset64::Single(0), Bitset64::Single(2), Bitset64::Single(1),
      Bitset64::Single(3)};
  EXPECT_FALSE(Decomposition::MakeLeftDeep(q, leaves).ok());
}

TEST(DecompositionTest, RejectsNonPartitionLeaves) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  // Missing edge 1.
  EXPECT_FALSE(
      Decomposition::MakeLeftDeep(q, {Bitset64::Single(0)}).ok());
  // Overlapping leaves.
  const Bitset64 both = Bitset64::Single(0) | Bitset64::Single(1);
  EXPECT_FALSE(
      Decomposition::MakeLeftDeep(q, {both, Bitset64::Single(1)}).ok());
}

TEST(DecompositionTest, RejectsDisconnectedLeafSubgraph) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  // Leaf {e0, e3} is internally disconnected.
  const Bitset64 bad = Bitset64::Single(0) | Bitset64::Single(3);
  const Bitset64 mid = Bitset64::Single(1) | Bitset64::Single(2);
  EXPECT_FALSE(Decomposition::MakeLeftDeep(q, {bad, mid}).ok());
}

TEST(DecompositionTest, BalancedFourLeavesIsShallower) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  const auto leaves = SingleEdgeLeaves(q);
  const Decomposition left_deep =
      Decomposition::MakeLeftDeep(q, leaves).value();
  const Decomposition balanced =
      Decomposition::MakeBalanced(q, leaves).value();
  EXPECT_EQ(left_deep.Height(), 4);
  EXPECT_EQ(balanced.Height(), 3);
  EXPECT_TRUE(balanced.Validate(q).ok());
  EXPECT_EQ(balanced.node(balanced.root()).edges, q.AllEdges());
}

TEST(DecompositionTest, BalancedRejectsEmptyCut) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  // Order e0,e2,e1,e3: the first bisection pairs e0 with e2 (no shared
  // vertex).
  std::vector<Bitset64> leaves = {
      Bitset64::Single(0), Bitset64::Single(2), Bitset64::Single(1),
      Bitset64::Single(3)};
  EXPECT_FALSE(Decomposition::MakeBalanced(q, leaves).ok());
}

TEST(DecompositionTest, SingleLeafDegenerateForm) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  const Decomposition d = Decomposition::MakeSingleLeaf(q).value();
  EXPECT_EQ(d.num_nodes(), 1);
  EXPECT_TRUE(d.IsLeaf(d.root()));
  EXPECT_EQ(d.node(d.root()).edges, q.AllEdges());
  EXPECT_EQ(d.Height(), 1);
}

TEST(DecompositionTest, ValidateRejectsForeignQuery) {
  Interner interner;
  const QueryGraph q2 = PathQuery(&interner);
  const QueryGraph q4 = Path4Query(&interner);
  const Decomposition d =
      Decomposition::MakeLeftDeep(q2, SingleEdgeLeaves(q2)).value();
  EXPECT_FALSE(d.Validate(q4).ok());
}

TEST(DecompositionTest, ToStringShowsCutsAndLabels) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  const Decomposition d =
      Decomposition::MakeLeftDeep(q, SingleEdgeLeaves(q)).value();
  const std::string s = d.ToString(q, interner);
  EXPECT_NE(s.find("join"), std::string::npos);
  EXPECT_NE(s.find("leaf"), std::string::npos);
  EXPECT_NE(s.find("cut="), std::string::npos);
  EXPECT_NE(s.find("[x]"), std::string::npos);
}

// --- MatchStore ------------------------------------------------------------------

Match MakeStoredMatch(const QueryGraph& q, VertexId v0, VertexId v1,
                      EdgeId de, Timestamp ts) {
  Match m(q);
  m.BindVertex(0, v0);
  m.BindVertex(1, v1);
  m.BindEdge(0, de, ts);
  return m;
}

/// min_ts of every match a probe of `key` under `cutoff` visits.
std::multiset<Timestamp> ProbedTimestamps(const MatchStore& store,
                                          uint64_t key, Timestamp cutoff) {
  std::multiset<Timestamp> seen;
  const size_t visited = store.ProbeKey(
      key, cutoff, [&](const Match& m) { seen.insert(m.min_ts()); });
  EXPECT_EQ(visited, seen.size());
  return seen;
}

TEST(MatchStoreTest, ProbeFindsOnlyMatchingKey) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchChunkPool pool;
  MatchStore store(/*window=*/100);
  store.Insert(111, MakeStoredMatch(q, 1, 2, 10, 5), &pool);
  store.Insert(222, MakeStoredMatch(q, 3, 4, 11, 6), &pool);
  int visited = 0;
  store.ProbeKey(111, 0, [&](const Match&) { ++visited; });
  EXPECT_EQ(visited, 1);
  visited = 0;
  store.ProbeKey(999, 0, [&](const Match&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_EQ(store.size(), 2u);
}

TEST(MatchStoreTest, ExpireDropsWholeSlicesAtOnce) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  const Timestamp window = 8 * MatchStore::kSlicesPerWindow;
  const Timestamp w = MatchStore::SliceWidth(window);
  ASSERT_EQ(w, 8);
  MatchChunkPool pool;
  MatchStore store(window);
  // 40 matches in each of slices 0, 1 and 2 — more than one chunk each —
  // spread over eight keys.
  for (int i = 0; i < 120; ++i) {
    const Timestamp ts = (i / 40) * w + i % w;
    ASSERT_TRUE(store.Insert(i % 8, MakeStoredMatch(q, i, i + 1, i, ts),
                             &pool));
  }
  // A cutoff inside slice 1 drops slice 0 whole; slice 1 straddles the
  // cutoff and stays, dead entries included.
  EXPECT_EQ(store.Expire(/*cutoff=*/w + 3, &pool), 40u);
  EXPECT_EQ(store.size(), 80u);
  EXPECT_EQ(store.OldestMinTs(), w);
  // The same cutoff again, or an older one, drops nothing.
  EXPECT_EQ(store.Expire(w + 3, &pool), 0u);
  EXPECT_EQ(store.Expire(1, &pool), 0u);
  // A cutoff on slice 2's first tick drops slice 1 whole.
  EXPECT_EQ(store.Expire(2 * w, &pool), 40u);
  EXPECT_EQ(store.size(), 40u);
  EXPECT_EQ(store.OldestMinTs(), 2 * w);
  // The freed chunks serve new inserts, and a cutoff past everything
  // empties the store.
  ASSERT_TRUE(store.Insert(3, MakeStoredMatch(q, 1, 2, 200, 3 * w), &pool));
  EXPECT_EQ(store.Expire(100 * w, &pool), 41u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.OldestMinTs(), kMaxTimestamp);
}

TEST(MatchStoreTest, ProbeSkipsDeadEntriesOfTheStraddlingSlice) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  const Timestamp window = 8 * MatchStore::kSlicesPerWindow;
  const Timestamp w = MatchStore::SliceWidth(window);
  MatchChunkPool pool;
  MatchStore store(window);
  // Key 7: two entries below the cutoff and two at or above it in slice
  // 1, and one in slice 2. Key 9 shares slice 1.
  for (const Timestamp ts : {w, w + 2, w + 3, w + 7, 2 * w + 1}) {
    store.Insert(7, MakeStoredMatch(q, 1, 2, 10, ts), &pool);
  }
  store.Insert(9, MakeStoredMatch(q, 3, 4, 11, w + 1), &pool);
  const Timestamp cutoff = w + 3;
  store.Expire(cutoff, &pool);
  EXPECT_EQ(ProbedTimestamps(store, 7, cutoff),
            (std::multiset<Timestamp>{w + 3, w + 7, 2 * w + 1}));
  EXPECT_TRUE(ProbedTimestamps(store, 9, cutoff).empty());
  // Skipped, not erased: a probe under an older cutoff still sees them.
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(ProbedTimestamps(store, 7, w).size(), 5u);
  EXPECT_TRUE(store.HasLive(cutoff));
  EXPECT_TRUE(store.HasLive(2 * w + 1));
  EXPECT_FALSE(store.HasLive(2 * w + 2));
}

TEST(MatchStoreTest, InsertIntoADroppedSliceIsDeadOnArrival) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  const Timestamp window = 8 * MatchStore::kSlicesPerWindow;
  const Timestamp w = MatchStore::SliceWidth(window);
  MatchChunkPool pool;
  MatchStore store(window);
  const Timestamp cutoff = 2 * w + 1;
  store.Expire(cutoff, &pool);  // drops slices 0 and 1 before any insert
  EXPECT_FALSE(store.Insert(5, MakeStoredMatch(q, 1, 2, 10, 2 * w - 1), &pool));
  EXPECT_FALSE(store.Insert(5, MakeStoredMatch(q, 1, 2, 11, 0), &pool));
  EXPECT_EQ(store.dead_on_arrival(), 2u);
  EXPECT_EQ(store.size(), 0u);
  // Slice 2 straddles the cutoff and is still held: a dead match there is
  // stored (and hidden from probes), a live one is stored and found.
  EXPECT_TRUE(store.Insert(5, MakeStoredMatch(q, 1, 2, 12, 2 * w), &pool));
  EXPECT_TRUE(store.Insert(5, MakeStoredMatch(q, 1, 2, 13, cutoff), &pool));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(ProbedTimestamps(store, 5, cutoff),
            (std::multiset<Timestamp>{cutoff}));
}

TEST(MatchStoreTest, UnboundedWindowNeverExpires) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  EXPECT_EQ(MatchStore::SliceWidth(kMaxTimestamp), kMaxTimestamp);
  MatchChunkPool pool;
  MatchStore store(kMaxTimestamp);
  const Timestamp late = Timestamp{1} << 50;
  store.Insert(1, MakeStoredMatch(q, 1, 2, 10, 0), &pool);
  store.Insert(1, MakeStoredMatch(q, 3, 4, 11, late), &pool);
  EXPECT_EQ(store.Expire(late + 1, &pool), 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(ProbedTimestamps(store, 1, 0), (std::multiset<Timestamp>{0, late}));
  EXPECT_TRUE(store.Insert(1, MakeStoredMatch(q, 5, 6, 12, 1), &pool));
  EXPECT_EQ(store.dead_on_arrival(), 0u);
}

TEST(MatchStoreTest, WindowOfOneTickSlicesEveryTick) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  EXPECT_EQ(MatchStore::SliceWidth(1), 1);
  MatchChunkPool pool;
  MatchStore store(/*window=*/1);
  for (Timestamp ts = 0; ts < 5; ++ts) {
    store.Insert(1, MakeStoredMatch(q, 1, 2, ts, ts), &pool);
    store.Insert(1, MakeStoredMatch(q, 3, 4, 10 + ts, ts), &pool);
  }
  // Under cutoff 3 only ticks 3 and 4 live; with one-tick slices nothing
  // straddles, so the drop leaves exactly the live matches.
  EXPECT_EQ(store.Expire(3, &pool), 6u);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(ProbedTimestamps(store, 1, 3),
            (std::multiset<Timestamp>{3, 3, 4, 4}));
  EXPECT_FALSE(store.Insert(1, MakeStoredMatch(q, 5, 6, 20, 2), &pool));
  EXPECT_EQ(store.Expire(5, &pool), 4u);
  EXPECT_EQ(store.size(), 0u);
}

// --- MatchExchange wire form ------------------------------------------------

/// Wire form of a full path-query match: v0..v2 on external vertices
/// 100..102, e0 and e1 on global edges 7 and 9.
WireMatch PathWireMatch(LabelId label) {
  WireMatch wire;
  wire.vertices = {{0, 100, label}, {1, 101, label}, {2, 102, label}};
  wire.edges = {{0, 7, 5}, {1, 9, 6}};
  return wire;
}

TEST(MatchExchangeTest, LocalizeRoundTripsThroughToWire) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  DynamicGraph graph(&interner);
  const WireMatch wire = PathWireMatch(interner.Intern("V"));
  const Match m = MatchExchange::Localize(&graph, q, wire).value();
  EXPECT_EQ(m.num_bound_edges(), 2);
  EXPECT_EQ(graph.external_id(m.vertex(2)), 102u);
  EXPECT_EQ(m.edge(1), 9u);
  EXPECT_EQ(m.Span(), 1);

  DynamicGraph other(&interner);
  const WireMatch round_trip = MatchExchange::ToWire(graph, m);
  const Match again = MatchExchange::Localize(&other, q, round_trip).value();
  EXPECT_EQ(again.ToExternalString(other), m.ToExternalString(graph));
}

TEST(MatchExchangeTest, LocalizeRejectsBindingsOutsideTheQuery) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);  // v0..v2, e0..e1
  const LabelId label = interner.Intern("V");
  // Each corrupt match names a slot the query does not have, or binds one
  // slot twice.
  std::vector<WireMatch> corrupt(4, PathWireMatch(label));
  corrupt[0].vertices.push_back({7, 103, label});
  corrupt[1].edges.push_back({2, 11, 6});
  corrupt[2].vertices.push_back({1, 104, label});
  corrupt[3].edges.push_back({0, 12, 6});
  DynamicGraph graph(&interner);
  for (const WireMatch& wire : corrupt) {
    const StatusOr<Match> localized = MatchExchange::Localize(&graph, q, wire);
    ASSERT_FALSE(localized.ok());
    EXPECT_EQ(localized.status().code(), StatusCode::kInvalidArgument);
  }
  // Rejected before interning: no vertex of a corrupt match reached the
  // graph.
  EXPECT_EQ(graph.num_vertices(), 0u);
}

// --- SjTree: hand-built scenarios ---------------------------------------------

SjTree MakeLeftDeepTree(const QueryGraph* q, Timestamp window) {
  return SjTree(q, Decomposition::MakeLeftDeep(*q, SingleEdgeLeaves(*q))
                       .value(),
                window);
}

TEST(SjTreeTest, TwoLeafPathMatchesInEitherArrivalOrder) {
  for (bool x_first : {true, false}) {
    Interner interner;
    const QueryGraph q = PathQuery(&interner);
    SjTree tree = MakeLeftDeepTree(&q, 100);
    DynamicGraph g(&interner);
    std::vector<Match> completed;

    // Arrival order varies; timestamps always increase.
    std::vector<StreamEdge> arrival =
        x_first ? std::vector<StreamEdge>{MakeEdge(&interner, 1, 2, "x", 0),
                                          MakeEdge(&interner, 2, 3, "y", 1)}
                : std::vector<StreamEdge>{MakeEdge(&interner, 2, 3, "y", 0),
                                          MakeEdge(&interner, 1, 2, "x", 1)};
    const EdgeId first = g.AddEdge(arrival[0]).value();
    tree.ProcessEdge(g, first, &completed);
    EXPECT_TRUE(completed.empty());
    EXPECT_EQ(tree.TotalPartialMatches(), 1u);
    EXPECT_DOUBLE_EQ(tree.MaxMatchedFraction(g.watermark()), 0.5);

    const EdgeId second = g.AddEdge(arrival[1]).value();
    tree.ProcessEdge(g, second, &completed);
    ASSERT_EQ(completed.size(), 1u) << "x_first=" << x_first;
    EXPECT_EQ(completed[0].bound_edges().Count(), 2);
    EXPECT_EQ(tree.num_completed(), 1u);
    EXPECT_DOUBLE_EQ(tree.MaxMatchedFraction(g.watermark()), 1.0);

    // An unrelated edge past the window: the completion and both partial
    // matches fall out of it, stored or not, and so does the fraction.
    tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 8, 9, "zz", 200)).value(),
                     &completed);
    EXPECT_EQ(tree.TotalPartialMatches(), 2u);  // nothing has expired them
    EXPECT_DOUBLE_EQ(tree.MaxMatchedFraction(g.watermark()), 0.0);
    tree.ExpireOldMatches(g.watermark());
    EXPECT_EQ(tree.TotalPartialMatches(), 0u);
    EXPECT_DOUBLE_EQ(tree.MaxMatchedFraction(g.watermark()), 0.0);
  }
}

TEST(SjTreeTest, JoinStatsAreRecorded) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 100);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value(),
                   &completed);
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 2, 3, "y", 1)).value(),
                   &completed);
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t inserted = 0;
  for (int n = 0; n < tree.decomposition().num_nodes(); ++n) {
    attempts += tree.node_stats(n).join_attempts;
    successes += tree.node_stats(n).joins_succeeded;
    inserted += tree.node_stats(n).matches_inserted;
  }
  EXPECT_EQ(successes, 1u);
  EXPECT_GE(attempts, 1u);
  EXPECT_EQ(inserted, 3u);  // two leaf matches + one root completion
}

TEST(SjTreeTest, NonJoinableMatchesDoNotCombine) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 100);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  // x edge 1->2 and y edge 5->6: no shared middle vertex.
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value(),
                   &completed);
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 5, 6, "y", 1)).value(),
                   &completed);
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(tree.TotalPartialMatches(), 2u);
}

TEST(SjTreeTest, WindowExcludesSlowCompletions) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 10);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value(),
                   &completed);
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 2, 3, "y", 10)).value(),
                   &completed);
  EXPECT_TRUE(completed.empty());  // span 10, not < 10
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 15)).value(),
                   &completed);
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 2, 3, "y", 19)).value(),
                   &completed);
  // Two completions fit the window: (x@15, y@19) span 4 and (x@15, y@10)
  // span 5 — the match-span constraint is on timestamps, not arrival order.
  // (x@0, y@10) span 10 and (x@0, y@19) span 19 are both excluded.
  EXPECT_EQ(completed.size(), 2u);
}

TEST(SjTreeTest, ExpireOldMatchesDropsStalePartials) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 10);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value(),
                   &completed);
  EXPECT_EQ(tree.TotalPartialMatches(), 1u);
  // Advance the watermark far beyond the window with an unrelated edge.
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 8, 9, "zz", 1000)).ok());
  tree.ExpireOldMatches(g.watermark());
  EXPECT_EQ(tree.TotalPartialMatches(), 0u);
}

TEST(SjTreeTest, TriangleFindsAllRotations) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 100);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  for (const auto& [s, d] :
       std::vector<std::pair<int, int>>{{1, 2}, {2, 3}, {3, 1}}) {
    tree.ProcessEdge(
        g,
        g.AddEdge(MakeEdge(&interner, s, d, "x", 0)).value(),
        &completed);
  }
  EXPECT_EQ(completed.size(), 3u);  // three rotational automorphisms
  std::set<uint64_t> sigs;
  for (const Match& m : completed) sigs.insert(m.MappingSignature());
  EXPECT_EQ(sigs.size(), 3u);
}

TEST(SjTreeTest, SingleLeafDecompositionActsAsNaiveMatcher) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  SjTree tree(&q, Decomposition::MakeSingleLeaf(q).value(), 100);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  for (const auto& [s, d] :
       std::vector<std::pair<int, int>>{{1, 2}, {2, 3}, {3, 1}}) {
    tree.ProcessEdge(
        g, g.AddEdge(MakeEdge(&interner, s, d, "x", 0)).value(),
        &completed);
  }
  EXPECT_EQ(completed.size(), 3u);
  EXPECT_EQ(tree.TotalPartialMatches(), 0u);  // no intermediate storage
}

TEST(SjTreeTest, DebugStringSummarisesNodes) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 100);
  const std::string s = tree.DebugString();
  EXPECT_NE(s.find("leaf"), std::string::npos);
  EXPECT_NE(s.find("join"), std::string::npos);
  EXPECT_NE(s.find("completed=0"), std::string::npos);
}

// --- Anchor-plan structural properties -----------------------------------------

TEST(SjTreeStructureTest, AnchorPlansCoverEveryLeafEdgeExactlyOnce) {
  Interner interner;
  Rng rng(555);
  for (int trial = 0; trial < 30; ++trial) {
    const int nv = 3 + static_cast<int>(rng.NextBounded(4));
    const int ne = nv - 1 + static_cast<int>(rng.NextBounded(4));
    const QueryGraph q =
        GenerateRandomConnectedQuery(rng, nv, ne, 2, 2, &interner).value();
    SjTree tree = MakeLeftDeepTree(&q, 100);

    // One plan per (leaf, edge-of-leaf); order[0] is the anchor; the
    // order covers exactly the leaf's edges; anchor labels match the
    // anchor query edge.
    std::multiset<std::pair<int, QueryEdgeId>> seen;
    for (const AnchorPlan& plan : tree.anchor_plans()) {
      seen.insert({plan.leaf, plan.anchor});
      ASSERT_FALSE(plan.order.empty());
      EXPECT_EQ(plan.order[0], plan.anchor);
      Bitset64 covered;
      for (QueryEdgeId e : plan.order) covered.Add(e);
      EXPECT_EQ(covered, tree.decomposition().node(plan.leaf).edges);
      const QueryEdge& qe = q.edge(plan.anchor);
      EXPECT_EQ(plan.edge_label, qe.label);
      EXPECT_EQ(plan.src_label, q.vertex_label(qe.src));
      EXPECT_EQ(plan.dst_label, q.vertex_label(qe.dst));
    }
    // Each (leaf, edge) pair appears exactly once, and the total anchor
    // count equals the query edge count (leaves partition the edges).
    const std::set<std::pair<int, QueryEdgeId>> unique(seen.begin(),
                                                       seen.end());
    EXPECT_EQ(seen.size(), unique.size());
    EXPECT_EQ(static_cast<int>(tree.anchor_plans().size()), q.num_edges());
  }
}

TEST(SjTreeStructureTest, PrimitivePairLeavesGetMultiEdgeOrders) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  QueryVertexId v[5];
  for (auto& vi : v) vi = builder.AddVertex("V");
  builder.AddEdge(v[0], v[1], "a");
  builder.AddEdge(v[1], v[2], "b");
  builder.AddEdge(v[2], v[3], "c");
  builder.AddEdge(v[3], v[4], "d");
  const QueryGraph q = builder.Build().value();
  const std::vector<Bitset64> leaves = {
      Bitset64::Single(0) | Bitset64::Single(1),
      Bitset64::Single(2) | Bitset64::Single(3)};
  SjTree tree(&q, Decomposition::MakeLeftDeep(q, leaves).value(), 100);
  EXPECT_EQ(tree.anchor_plans().size(), 4u);  // 2 leaves x 2 anchor slots
  for (const AnchorPlan& plan : tree.anchor_plans()) {
    EXPECT_EQ(plan.order.size(), 2u);
  }
}

// --- Equivalence property sweep ---------------------------------------------------

struct SjTreeEquivalenceCase {
  uint64_t seed;
  int stream_vertices;
  int stream_edges;
  int query_vertices;
  int query_edges;
  Timestamp window;
  bool balanced;  ///< Balanced tree shape (falls back to left-deep).
};

class SjTreeEquivalenceTest
    : public testing::TestWithParam<SjTreeEquivalenceCase> {};

TEST_P(SjTreeEquivalenceTest, AgreesWithBothOracles) {
  const auto& c = GetParam();
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = c.seed;
  opt.num_vertices = c.stream_vertices;
  opt.num_edges = c.stream_edges;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  opt.edges_per_tick = 4;
  const auto edges = GenerateUniformStream(opt, &interner);

  Rng rng(c.seed * 2654435761u + 99);
  const QueryGraph q =
      GenerateRandomConnectedQuery(rng, c.query_vertices, c.query_edges, 2,
                                   2, &interner)
          .value();

  const auto leaves = SingleEdgeLeaves(q);
  auto decomp = c.balanced ? Decomposition::MakeBalanced(q, leaves)
                           : Decomposition::MakeLeftDeep(q, leaves);
  if (!decomp.ok()) decomp = Decomposition::MakeLeftDeep(q, leaves);
  SjTree tree(&q, std::move(decomp).value(), c.window);

  // Run the SJ-Tree and the naive incremental matcher on one pass.
  DynamicGraph g(&interner);
  std::multiset<uint64_t> sjtree_sigs;
  std::multiset<uint64_t> naive_sigs;
  int step = 0;
  for (const StreamEdge& e : edges) {
    const EdgeId id = g.AddEdge(e).value();
    std::vector<Match> completed;
    tree.ProcessEdge(g, id, &completed);
    for (const Match& m : completed) {
      sjtree_sigs.insert(m.MappingSignature());
    }
    for (const Match& m : FindLeafMatches(g, q, q.AllEdges(), id,
                                          c.window)) {
      naive_sigs.insert(m.MappingSignature());
    }
    if (++step % 64 == 0) tree.ExpireOldMatches(g.watermark());
  }

  // Batch oracle over the full (unevicted) graph.
  IsoOptions iso;
  iso.window = c.window;
  std::multiset<uint64_t> batch_sigs;
  for (const Match& m : FindAllMatches(g, q, iso)) {
    batch_sigs.insert(m.MappingSignature());
  }

  // Multiset equality: same matches, each exactly once.
  EXPECT_EQ(sjtree_sigs, naive_sigs) << q.ToString(interner);
  EXPECT_EQ(sjtree_sigs, batch_sigs) << q.ToString(interner);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SjTreeEquivalenceTest,
    testing::Values(
        SjTreeEquivalenceCase{101, 20, 200, 2, 1, 10, false},
        SjTreeEquivalenceCase{102, 20, 200, 3, 2, 10, false},
        SjTreeEquivalenceCase{103, 15, 250, 3, 3, 15, false},
        SjTreeEquivalenceCase{104, 15, 250, 4, 3, 20, true},
        SjTreeEquivalenceCase{105, 12, 300, 4, 4, 12, true},
        SjTreeEquivalenceCase{106, 10, 200, 4, 5, 25, false},
        SjTreeEquivalenceCase{107, 25, 350, 3, 2, 5, true},
        SjTreeEquivalenceCase{108, 25, 300, 3, 2, kMaxTimestamp, false},
        SjTreeEquivalenceCase{109, 8, 150, 5, 5, 30, true},
        SjTreeEquivalenceCase{110, 10, 250, 5, 4, 40, true},
        SjTreeEquivalenceCase{111, 30, 400, 2, 1, 3, false},
        SjTreeEquivalenceCase{112, 12, 300, 4, 4, 8, false}));

}  // namespace
}  // namespace streamworks
