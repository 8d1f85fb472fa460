// Unit and property tests for streamworks/match: Match bindings and
// signatures, join compatibility, connected expansion orders, the batch
// isomorphism oracle, and the anchored local search (incremental
// exactly-once discovery).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/match/backtrack.h"
#include "streamworks/match/local_search.h"
#include "streamworks/match/match.h"
#include "streamworks/match/subgraph_iso.h"

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

/// Two-vertex, one-edge query A -[x]-> B.
QueryGraph OneEdgeQuery(Interner* interner, std::string_view a = "V",
                        std::string_view b = "V",
                        std::string_view label = "x") {
  QueryGraphBuilder builder(interner);
  const auto va = builder.AddVertex(a);
  const auto vb = builder.AddVertex(b);
  builder.AddEdge(va, vb, label);
  return builder.Build("one_edge").value();
}

/// Path query A -[x]-> B -[y]-> C.
QueryGraph PathQuery(Interner* interner) {
  QueryGraphBuilder builder(interner);
  const auto va = builder.AddVertex("V");
  const auto vb = builder.AddVertex("V");
  const auto vc = builder.AddVertex("V");
  builder.AddEdge(va, vb, "x");
  builder.AddEdge(vb, vc, "y");
  return builder.Build("path2").value();
}

/// Directed triangle with all "x" labels.
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

// --- Match data structure ----------------------------------------------------

TEST(MatchTest, BindAndUnbindMaintainSpan) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match m(q);
  EXPECT_TRUE(m.bound_edges().Empty());
  m.BindVertex(0, 100);
  m.BindVertex(1, 101);
  m.BindEdge(0, 7, 50);
  EXPECT_EQ(m.min_ts(), 50);
  EXPECT_EQ(m.max_ts(), 50);
  EXPECT_EQ(m.Span(), 0);
  m.BindVertex(2, 102);
  m.BindEdge(1, 9, 80);
  EXPECT_EQ(m.Span(), 30);
  EXPECT_TRUE(m.UsesDataEdge(7));
  EXPECT_TRUE(m.UsesDataVertex(101));
  EXPECT_FALSE(m.UsesDataVertex(999));

  m.UnbindEdge(1);
  EXPECT_EQ(m.Span(), 0);
  EXPECT_EQ(m.max_ts(), 50);
  EXPECT_FALSE(m.UsesDataEdge(9));
}

TEST(MatchTest, FitsWindowWithStrictBoundary) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match m(q);
  EXPECT_TRUE(m.FitsWindowWith(123, 1));  // empty match always fits
  m.BindVertex(0, 1);
  m.BindVertex(1, 2);
  m.BindEdge(0, 0, 100);
  EXPECT_TRUE(m.FitsWindowWith(104, 5));   // span 4 < 5
  EXPECT_FALSE(m.FitsWindowWith(105, 5));  // span 5 is not < 5
  EXPECT_TRUE(m.FitsWindowWith(96, 5));
  EXPECT_FALSE(m.FitsWindowWith(95, 5));
}

TEST(MatchTest, SignaturesDistinguishMappings) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b = a;
  EXPECT_EQ(a.MappingSignature(), b.MappingSignature());
  EXPECT_EQ(a.EdgeSetSignature(), b.EdgeSetSignature());
  EXPECT_TRUE(a == b);

  Match c(q);
  c.BindVertex(0, 1);
  c.BindVertex(1, 3);  // different data vertex
  c.BindEdge(0, 10, 5);
  EXPECT_NE(a.MappingSignature(), c.MappingSignature());
  EXPECT_EQ(a.EdgeSetSignature(), c.EdgeSetSignature());  // same edge set
  EXPECT_FALSE(a == c);
}

TEST(MatchTest, UnionMergesBindings) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(1, 2);
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 9);
  const Match u = Match::Union(a, b);
  EXPECT_EQ(u.vertex(0), 1u);
  EXPECT_EQ(u.vertex(2), 3u);
  EXPECT_EQ(u.edge(1), 11u);
  EXPECT_EQ(u.min_ts(), 5);
  EXPECT_EQ(u.max_ts(), 9);
  EXPECT_EQ(u.bound_edges().Count(), 2);
}

TEST(MatchTest, JoinCompatibleAcceptsConsistentPair) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(1, 2);
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 9);
  EXPECT_TRUE(JoinCompatible(a, b, 100));
  EXPECT_TRUE(JoinCompatible(b, a, 100));
}

TEST(MatchTest, JoinCompatibleRejectsCutDisagreement) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(1, 99);  // disagrees with a on shared query vertex 1
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 9);
  EXPECT_FALSE(JoinCompatible(a, b, 100));
}

TEST(MatchTest, JoinCompatibleRejectsVertexInjectivityViolation) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(1, 2);
  b.BindVertex(2, 1);  // data vertex 1 already used for query vertex 0
  b.BindEdge(1, 11, 9);
  EXPECT_FALSE(JoinCompatible(a, b, 100));
}

TEST(MatchTest, JoinCompatibleRejectsSharedDataEdge) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  builder.AddEdge(v0, v1, "x");  // parallel query edges
  const QueryGraph q = builder.Build().value();
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(0, 1);
  b.BindVertex(1, 2);
  b.BindEdge(1, 10, 5);  // same data edge for the other query edge
  EXPECT_FALSE(JoinCompatible(a, b, 100));
}

TEST(MatchTest, JoinCompatibleRejectsWindowViolation) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 0);
  Match b(q);
  b.BindVertex(1, 2);
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 10);
  EXPECT_TRUE(JoinCompatible(a, b, 11));   // span 10 < 11
  EXPECT_FALSE(JoinCompatible(a, b, 10));  // span 10 not < 10
}

TEST(MatchTest, JoinCompatibleRejectsOverlappingQueryEdges) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  EXPECT_FALSE(JoinCompatible(a, a, 100));
}

// --- Inline and spilled layouts ---------------------------------------------

/// Directed cycle v0 -[x]-> v1 -[x]-> ... -[x]-> v0: n vertices, n edges.
QueryGraph CycleQuery(Interner* interner, int n) {
  QueryGraphBuilder builder(interner);
  for (int v = 0; v < n; ++v) builder.AddVertex("V");
  for (int e = 0; e < n; ++e) {
    builder.AddEdge(static_cast<QueryVertexId>(e),
                    static_cast<QueryVertexId>((e + 1) % n), "x");
  }
  return builder.Build("cycle").value();
}

/// Binds cycle edges [begin, end) of `q`: query edge i to data edge 500 + i
/// at time i, and each endpoint vj to data vertex 1000 + j.
Match CycleSegment(const QueryGraph& q, int begin, int end) {
  Match m(q);
  for (int i = begin; i < end; ++i) {
    const auto qe = static_cast<QueryEdgeId>(i);
    const QueryEdge& edge = q.edge(qe);
    m.BindVertex(edge.src, 1000 + edge.src);
    m.BindVertex(edge.dst, 1000 + edge.dst);
    m.BindEdge(qe, 500 + i, i);
  }
  return m;
}

TEST(MatchTest, ValueSemanticsHoldInlineAndSpilled) {
  // 8 fits inline; 9 spills to the heap; 63 and 64 are the largest queries
  // the builder admits.
  for (const int n : {8, 9, 63, 64}) {
    SCOPED_TRACE(n);
    Interner interner;
    const QueryGraph q = CycleQuery(&interner, n);
    const Match full = CycleSegment(q, 0, n);
    ASSERT_EQ(full.num_bound_edges(), n);
    EXPECT_EQ(full.vertex(static_cast<QueryVertexId>(n - 1)),
              static_cast<VertexId>(1000 + n - 1));
    EXPECT_EQ(full.edge_ts(static_cast<QueryEdgeId>(n - 1)), n - 1);
    EXPECT_EQ(full.Span(), n - 1);
    EXPECT_EQ(full.MaxDataEdgeId(), static_cast<EdgeId>(500 + n - 1));

    // A copy is equal and independent of its source.
    Match copy = full;
    EXPECT_TRUE(copy == full);
    EXPECT_EQ(copy.ToString(), full.ToString());
    EXPECT_EQ(copy.MappingSignature(), full.MappingSignature());
    copy.UnbindEdge(0);
    EXPECT_FALSE(copy == full);
    EXPECT_TRUE(full.HasEdge(0));
    EXPECT_EQ(full.min_ts(), 0);

    // Move construction and both assignments carry the whole mapping.
    Match source = full;
    const Match moved(std::move(source));
    EXPECT_TRUE(moved == full);
    source = full;  // a moved-from match takes a new value
    EXPECT_TRUE(source == full);
    Match assigned(q);
    EXPECT_FALSE(assigned == full);
    assigned = full;
    EXPECT_TRUE(assigned == full);
    const Match& alias = assigned;
    assigned = alias;  // self-assignment keeps the value
    EXPECT_TRUE(assigned == full);
    Match target(q);
    target = std::move(assigned);
    EXPECT_TRUE(target == full);
    EXPECT_EQ(target.ToString(), full.ToString());

    // The join of two halves is the whole.
    const Match head = CycleSegment(q, 0, n / 2);
    const Match tail = CycleSegment(q, n / 2, n);
    ASSERT_TRUE(JoinCompatible(head, tail, n));
    EXPECT_FALSE(JoinCompatible(head, tail, n - 1));  // span n-1 is not < n-1
    const Match joined = Match::Union(head, tail);
    EXPECT_TRUE(joined == full);
    EXPECT_EQ(joined.min_ts(), 0);
    EXPECT_EQ(joined.max_ts(), n - 1);
    EXPECT_EQ(joined.EdgeSetSignature(), full.EdgeSetSignature());

    // Empty matches of differently sized queries differ.
    const QueryGraph resized = CycleQuery(&interner, n == 64 ? 63 : n + 1);
    EXPECT_FALSE(Match(q) == Match(resized));
    EXPECT_TRUE(Match(q) == Match(q));
  }
}

TEST(MatchTest, AssignmentCrossesBetweenInlineAndSpilled) {
  Interner interner;
  const QueryGraph small = CycleQuery(&interner, 8);
  const QueryGraph large = CycleQuery(&interner, 9);
  const Match inline_match = CycleSegment(small, 0, 8);
  const Match spilled = CycleSegment(large, 0, 9);

  Match m = inline_match;
  m = spilled;  // spilled over inline
  EXPECT_TRUE(m == spilled);
  EXPECT_EQ(m.ToString(), spilled.ToString());
  m = inline_match;  // and back: the heap block is released
  EXPECT_TRUE(m == inline_match);
  EXPECT_EQ(m.ToString(), inline_match.ToString());

  Match spilled_copy = spilled;
  m = std::move(spilled_copy);  // a moved spill lands over inline
  EXPECT_TRUE(m == spilled);
  Match inline_copy = inline_match;
  m = std::move(inline_copy);  // a moved inline match lands over a spill
  EXPECT_TRUE(m == inline_match);
  m = Match();
  EXPECT_TRUE(m == Match());
  EXPECT_TRUE(m.bound_edges().Empty());
}

// --- ConnectedEdgeOrder --------------------------------------------------------

TEST(ConnectedEdgeOrderTest, EveryPrefixIsConnected) {
  Interner interner;
  Rng rng(123);
  for (int trial = 0; trial < 40; ++trial) {
    const int nv = 3 + static_cast<int>(rng.NextBounded(4));
    const int ne = nv - 1 + static_cast<int>(rng.NextBounded(4));
    const QueryGraph q =
        GenerateRandomConnectedQuery(rng, nv, ne, 2, 2, &interner).value();
    for (int first = 0; first < q.num_edges(); ++first) {
      const auto order = ConnectedEdgeOrder(
          q, q.AllEdges(), static_cast<QueryEdgeId>(first));
      ASSERT_EQ(order.size(), static_cast<size_t>(q.num_edges()));
      EXPECT_EQ(order[0], first);
      Bitset64 prefix;
      std::set<QueryEdgeId> unique(order.begin(), order.end());
      EXPECT_EQ(unique.size(), order.size());
      for (QueryEdgeId e : order) {
        prefix.Add(e);
        EXPECT_TRUE(q.IsEdgeSetConnected(prefix));
      }
    }
  }
}

TEST(ConnectedEdgeOrderTest, SubsetOrder) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  const Bitset64 two = Bitset64::Single(0) | Bitset64::Single(2);
  const auto order = ConnectedEdgeOrder(q, two, 2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 0);
}

// --- TryBindEdge ---------------------------------------------------------------

TEST(TryBindEdgeTest, BindsAndUndoes) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId e0 = g.AddEdge(MakeEdge(&interner, 1, 2, "x", 5)).value();
  const QueryGraph q = OneEdgeQuery(&interner);
  Match m(q);
  BindUndo undo;
  ASSERT_TRUE(TryBindEdge(g, q, 0, e0, g.edge_record(e0), 100, &m, &undo));
  EXPECT_TRUE(m.HasEdge(0));
  EXPECT_TRUE(undo.bound_src);
  EXPECT_TRUE(undo.bound_dst);
  UndoBindEdge(q, 0, undo, &m);
  EXPECT_FALSE(m.HasEdge(0));
  EXPECT_TRUE(m.bound_vertices().Empty());
}

TEST(TryBindEdgeTest, RejectsLabelMismatch) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId e0 =
      g.AddEdge(MakeEdge(&interner, 1, 2, "y", 5)).value();  // label y
  const QueryGraph q = OneEdgeQuery(&interner);               // wants x
  Match m(q);
  BindUndo undo;
  EXPECT_FALSE(TryBindEdge(g, q, 0, e0, g.edge_record(e0), 100, &m, &undo));
}

TEST(TryBindEdgeTest, RejectsVertexLabelMismatch) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId e0 =
      g.AddEdge(MakeEdge(&interner, 1, 2, "x", 5, "Host", "User")).value();
  const QueryGraph q = OneEdgeQuery(&interner, "Host", "Host");
  Match m(q);
  BindUndo undo;
  EXPECT_FALSE(TryBindEdge(g, q, 0, e0, g.edge_record(e0), 100, &m, &undo));
}

TEST(TryBindEdgeTest, SelfLoopQueryEdgeNeedsSelfLoopDataEdge) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId plain = g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value();
  const EdgeId loop = g.AddEdge(MakeEdge(&interner, 3, 3, "x", 1)).value();
  QueryGraphBuilder builder(&interner);
  const auto v = builder.AddVertex("V");
  builder.AddEdge(v, v, "x");
  const QueryGraph q = builder.Build().value();

  Match m(q);
  BindUndo undo;
  EXPECT_FALSE(
      TryBindEdge(g, q, 0, plain, g.edge_record(plain), 100, &m, &undo));
  ASSERT_TRUE(
      TryBindEdge(g, q, 0, loop, g.edge_record(loop), 100, &m, &undo));
  EXPECT_TRUE(undo.bound_src);
  EXPECT_FALSE(undo.bound_dst);  // single vertex bound once
}

TEST(TryBindEdgeTest, RejectsDataSelfLoopForTwoDistinctQueryVertices) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId loop = g.AddEdge(MakeEdge(&interner, 3, 3, "x", 1)).value();
  const QueryGraph q = OneEdgeQuery(&interner);
  Match m(q);
  BindUndo undo;
  EXPECT_FALSE(
      TryBindEdge(g, q, 0, loop, g.edge_record(loop), 100, &m, &undo));
}

// --- Batch oracle ---------------------------------------------------------------

TEST(SubgraphIsoTest, FindsSingleEdgeMatches) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 3, "y", 1)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 3, 4, "x", 2)).ok());
  const QueryGraph q = OneEdgeQuery(&interner);
  const auto matches = FindAllMatches(g, q);
  EXPECT_EQ(matches.size(), 2u);
}

TEST(SubgraphIsoTest, FindsPathMatchesAcrossSharedVertex) {
  Interner interner;
  DynamicGraph g(&interner);
  // 1 -x-> 2 -y-> 3 and 1 -x-> 2 -y-> 4: two matches sharing the first edge.
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 3, "y", 1)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 4, "y", 2)).ok());
  const QueryGraph q = PathQuery(&interner);
  const auto matches = FindAllMatches(g, q);
  ASSERT_EQ(matches.size(), 2u);
  for (const Match& m : matches) {
    EXPECT_EQ(m.bound_edges().Count(), 2);
    EXPECT_EQ(m.vertex(0), g.FindVertex(1));
  }
}

TEST(SubgraphIsoTest, PathRequiresDistinctEndpoints) {
  Interner interner;
  DynamicGraph g(&interner);
  // 1 -x-> 2 -y-> 1 would map query vertices 0 and 2 to the same data
  // vertex; isomorphism forbids that.
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 1, "y", 1)).ok());
  const QueryGraph q = PathQuery(&interner);
  EXPECT_TRUE(FindAllMatches(g, q).empty());
}

TEST(SubgraphIsoTest, TriangleAutomorphismsAreDistinctMappings) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 3, "x", 1)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 3, 1, "x", 2)).ok());
  const QueryGraph q = TriangleQuery(&interner);
  // The directed triangle has 3 rotational automorphisms.
  const auto matches = FindAllMatches(g, q);
  EXPECT_EQ(matches.size(), 3u);
  std::set<uint64_t> mapping_sigs;
  std::set<uint64_t> edge_sigs;
  for (const Match& m : matches) {
    mapping_sigs.insert(m.MappingSignature());
    edge_sigs.insert(m.EdgeSetSignature());
  }
  EXPECT_EQ(mapping_sigs.size(), 3u);  // distinct mappings
  EXPECT_EQ(edge_sigs.size(), 1u);     // one underlying data subgraph
}

TEST(SubgraphIsoTest, ParallelDataEdgesYieldDistinctMatches) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 1)).ok());
  const QueryGraph q = OneEdgeQuery(&interner);
  EXPECT_EQ(FindAllMatches(g, q).size(), 2u);

  // A 2-parallel-edge query on 2 parallel data edges: 2 bijections.
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  builder.AddEdge(v0, v1, "x");
  const QueryGraph q2 = builder.Build().value();
  EXPECT_EQ(FindAllMatches(g, q2).size(), 2u);
}

TEST(SubgraphIsoTest, WindowConstraintFiltersMatches) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 3, "y", 7)).ok());
  const QueryGraph q = PathQuery(&interner);
  IsoOptions opt;
  opt.window = 8;  // span 7 < 8: ok
  EXPECT_EQ(FindAllMatches(g, q, opt).size(), 1u);
  opt.window = 7;  // span 7 not < 7: rejected
  EXPECT_TRUE(FindAllMatches(g, q, opt).empty());
}

TEST(SubgraphIsoTest, MinTsAndMaxEdgeIdRestrictTheSearch) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 3, 4, "x", 5)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 5, 6, "x", 9)).ok());
  const QueryGraph q = OneEdgeQuery(&interner);
  IsoOptions opt;
  opt.min_ts = 5;
  EXPECT_EQ(FindAllMatches(g, q, opt).size(), 2u);
  opt.min_ts = kMinTimestamp;
  opt.max_edge_id = 1;  // exclusive: only edge 0
  EXPECT_EQ(FindAllMatches(g, q, opt).size(), 1u);
}

TEST(SubgraphIsoTest, MaxMatchesStopsEarly) {
  Interner interner;
  DynamicGraph g(&interner);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, i, i + 100, "x", i)).ok());
  }
  const QueryGraph q = OneEdgeQuery(&interner);
  IsoOptions opt;
  opt.max_matches = 7;
  EXPECT_EQ(FindAllMatches(g, q, opt).size(), 7u);
}

TEST(SubgraphIsoTest, EmptyGraphHasNoMatches) {
  Interner interner;
  DynamicGraph g(&interner);
  const QueryGraph q = OneEdgeQuery(&interner);
  EXPECT_TRUE(FindAllMatches(g, q).empty());
}

// --- Local search: incremental exactly-once discovery ---------------------------

/// Replays `edges` one at a time; after each insertion runs the anchored
/// local search with the whole query as one leaf (the §3.1 "simplistic"
/// incremental strategy) and collects every discovered mapping signature.
/// Returns (signatures, number of duplicate discoveries).
std::pair<std::set<uint64_t>, int> ReplayIncrementally(
    const std::vector<StreamEdge>& edges, const QueryGraph& q,
    Interner* interner, Timestamp window) {
  DynamicGraph g(interner);
  std::set<uint64_t> sigs;
  int duplicates = 0;
  for (const StreamEdge& e : edges) {
    const EdgeId id = g.AddEdge(e).value();
    for (const Match& m : FindLeafMatches(g, q, q.AllEdges(), id, window)) {
      if (!sigs.insert(m.MappingSignature()).second) ++duplicates;
    }
  }
  return {sigs, duplicates};
}

std::set<uint64_t> BatchSignatures(const std::vector<StreamEdge>& edges,
                                   const QueryGraph& q, Interner* interner,
                                   Timestamp window) {
  DynamicGraph g(interner);
  for (const StreamEdge& e : edges) SW_CHECK_OK(g.AddEdge(e).status());
  IsoOptions opt;
  opt.window = window;
  std::set<uint64_t> sigs;
  for (const Match& m : FindAllMatches(g, q, opt)) {
    sigs.insert(m.MappingSignature());
  }
  return sigs;
}

TEST(LocalSearchTest, AnchoredSearchFindsMatchWhenLastEdgeArrives) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  std::vector<StreamEdge> edges = {
      MakeEdge(&interner, 1, 2, "x", 0),
      MakeEdge(&interner, 2, 3, "y", 1),
  };
  DynamicGraph g(&interner);
  const EdgeId e0 = g.AddEdge(edges[0]).value();
  EXPECT_TRUE(FindLeafMatches(g, q, q.AllEdges(), e0, 100).empty());
  const EdgeId e1 = g.AddEdge(edges[1]).value();
  const auto found = FindLeafMatches(g, q, q.AllEdges(), e1, 100);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].edge(0), e0);
  EXPECT_EQ(found[0].edge(1), e1);
}

TEST(LocalSearchTest, OutOfOrderQueryEdgeArrivalStillFound) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  // The "y" edge arrives before the "x" edge.
  std::vector<StreamEdge> edges = {
      MakeEdge(&interner, 2, 3, "y", 0),
      MakeEdge(&interner, 1, 2, "x", 1),
  };
  auto [sigs, dups] = ReplayIncrementally(edges, q, &interner, 100);
  EXPECT_EQ(sigs.size(), 1u);
  EXPECT_EQ(dups, 0);
}

TEST(LocalSearchTest, NoDuplicateDiscoveriesOnDenseStream) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  std::vector<StreamEdge> edges;
  // A K5-ish dense pattern of "x" edges in both directions.
  Timestamp ts = 0;
  for (int a = 1; a <= 5; ++a) {
    for (int b = 1; b <= 5; ++b) {
      if (a != b) edges.push_back(MakeEdge(&interner, a, b, "x", ts++));
    }
  }
  auto [sigs, dups] = ReplayIncrementally(edges, q, &interner, 1000);
  EXPECT_EQ(dups, 0);
  EXPECT_EQ(sigs, BatchSignatures(edges, q, &interner, 1000));
  EXPECT_GT(sigs.size(), 10u);
}

TEST(LocalSearchTest, WindowExcludesStaleCombinations) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  std::vector<StreamEdge> edges = {
      MakeEdge(&interner, 1, 2, "x", 0),
      MakeEdge(&interner, 2, 3, "y", 50),  // span 50 >= window 10: no match
      MakeEdge(&interner, 1, 2, "x", 60),  // with y@50: span 10, still >= 10
      MakeEdge(&interner, 2, 3, "y", 65),  // with x@60: span 5 < 10: match
  };
  auto [sigs, dups] = ReplayIncrementally(edges, q, &interner, 10);
  EXPECT_EQ(sigs.size(), 1u);
  EXPECT_EQ(dups, 0);
  EXPECT_EQ(sigs, BatchSignatures(edges, q, &interner, 10));
}

/// Property sweep: on random streams and random connected queries, the
/// incremental anchored search discovers exactly the batch-oracle match
/// set, with zero duplicates, across window sizes.
struct IncrementalEquivalenceCase {
  uint64_t seed;
  int num_vertices;
  int num_edges;
  int query_vertices;
  int query_edges;
  Timestamp window;
};

class IncrementalEquivalenceTest
    : public testing::TestWithParam<IncrementalEquivalenceCase> {};

TEST_P(IncrementalEquivalenceTest, MatchesBatchOracle) {
  const IncrementalEquivalenceCase& c = GetParam();
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = c.seed;
  opt.num_vertices = c.num_vertices;
  opt.num_edges = c.num_edges;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  opt.edges_per_tick = 4;
  const auto edges = GenerateUniformStream(opt, &interner);

  Rng rng(c.seed * 7919 + 13);
  const QueryGraph q =
      GenerateRandomConnectedQuery(rng, c.query_vertices, c.query_edges, 2,
                                   2, &interner)
          .value();

  auto [incremental, dups] = ReplayIncrementally(edges, q, &interner,
                                                 c.window);
  EXPECT_EQ(dups, 0) << q.ToString(interner);
  EXPECT_EQ(incremental, BatchSignatures(edges, q, &interner, c.window))
      << q.ToString(interner);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalEquivalenceTest,
    testing::Values(
        IncrementalEquivalenceCase{1, 20, 150, 2, 1, 10},
        IncrementalEquivalenceCase{2, 20, 150, 3, 2, 10},
        IncrementalEquivalenceCase{3, 15, 200, 3, 3, 15},
        IncrementalEquivalenceCase{4, 15, 200, 4, 3, 20},
        IncrementalEquivalenceCase{5, 12, 250, 4, 4, 12},
        IncrementalEquivalenceCase{6, 10, 200, 4, 5, 25},
        IncrementalEquivalenceCase{7, 25, 300, 3, 2, 5},
        IncrementalEquivalenceCase{8, 25, 300, 3, 2, kMaxTimestamp},
        IncrementalEquivalenceCase{9, 8, 150, 5, 5, 30},
        IncrementalEquivalenceCase{10, 30, 400, 2, 1, 3}));

}  // namespace
}  // namespace streamworks
