#include "streamworks/sjtree/exchange.h"

#include "streamworks/common/logging.h"
#include "streamworks/common/str_util.h"

namespace streamworks {

void MatchExchange::Send(int dest_shard, ExchangeItem item) {
  switch (item.kind) {
    case ExchangeKind::kExpand:
      ++counters_.sent_expansions;
      break;
    case ExchangeKind::kInsert:
      ++counters_.sent_inserts;
      break;
    case ExchangeKind::kComplete:  // a delivery, not shard-to-shard work
      break;
  }
  outbox_.emplace_back(dest_shard, std::move(item));
}

std::vector<std::pair<int, ExchangeItem>> MatchExchange::Drain() {
  std::vector<std::pair<int, ExchangeItem>> out;
  out.swap(outbox_);
  return out;
}

void MatchExchange::CountReceived(ExchangeKind kind) {
  switch (kind) {
    case ExchangeKind::kExpand:
      ++counters_.received_expansions;
      break;
    case ExchangeKind::kInsert:
      ++counters_.received_inserts;
      break;
    case ExchangeKind::kComplete:  // never sent to a shard
      break;
  }
}

WireMatch MatchExchange::ToWire(const DynamicGraph& graph, const Match& m) {
  WireMatch wire;
  const Bitset64 vertices = m.bound_vertices();
  const Bitset64 edges = m.bound_edges();
  wire.vertices.reserve(static_cast<size_t>(vertices.Count()));
  wire.edges.reserve(static_cast<size_t>(edges.Count()));
  for (int qv : vertices) {
    const VertexId dv = m.vertex(static_cast<QueryVertexId>(qv));
    wire.vertices.push_back(WireVertexBinding{
        static_cast<QueryVertexId>(qv), graph.external_id(dv),
        graph.vertex_label(dv)});
  }
  for (int qe : edges) {
    wire.edges.push_back(WireEdgeBinding{
        static_cast<QueryEdgeId>(qe), m.edge(static_cast<QueryEdgeId>(qe)),
        m.edge_ts(static_cast<QueryEdgeId>(qe))});
  }
  return wire;
}

StatusOr<Match> MatchExchange::Localize(DynamicGraph* graph,
                                        const QueryGraph& query,
                                        const WireMatch& wire) {
  // The wire decoder bounds a binding's slot only by kMaxQuerySize; check
  // it against this query's shape before anything is bound or interned.
  Bitset64 vertices;
  for (const WireVertexBinding& vb : wire.vertices) {
    const int qv = vb.qv;
    if (qv >= query.num_vertices()) {
      return Status::InvalidArgument(StrCat("wire vertex out of range: v", qv));
    }
    if (vertices.Contains(qv)) {
      return Status::InvalidArgument(StrCat("wire vertex bound twice: v", qv));
    }
    vertices.Add(qv);
  }
  Bitset64 edges;
  for (const WireEdgeBinding& eb : wire.edges) {
    const int qe = eb.qe;
    if (qe >= query.num_edges()) {
      return Status::InvalidArgument(StrCat("wire edge out of range: e", qe));
    }
    if (edges.Contains(qe)) {
      return Status::InvalidArgument(StrCat("wire edge bound twice: e", qe));
    }
    edges.Add(qe);
  }
  Match m(query);
  for (const WireVertexBinding& vb : wire.vertices) {
    SW_ASSIGN_OR_RETURN(const VertexId dv,
                        graph->InternVertex(vb.vertex, vb.label));
    m.BindVertex(vb.qv, dv);
  }
  for (const WireEdgeBinding& eb : wire.edges) {
    m.BindEdge(eb.qe, eb.edge, eb.ts);
  }
  return m;
}

void MergeShardQueryInfo(const QueryRuntimeInfo& per_shard,
                         QueryRuntimeInfo* group) {
  group->name = per_shard.name;
  group->window = per_shard.window;
  group->completions += per_shard.completions;
  group->live_partial_matches += per_shard.live_partial_matches;
  group->peak_partial_matches += per_shard.peak_partial_matches;
  if (group->nodes.size() < per_shard.nodes.size()) {
    group->nodes.resize(per_shard.nodes.size());
  }
  for (size_t n = 0; n < per_shard.nodes.size(); ++n) {
    const SjNodeRuntime& from = per_shard.nodes[n];
    SjNodeRuntime& to = group->nodes[n];
    to.node = from.node;
    to.is_leaf = from.is_leaf;
    to.query_edges = from.query_edges;
    to.matches_inserted += from.matches_inserted;
    to.probes += from.probes;
    to.join_attempts += from.join_attempts;
    to.joins_succeeded += from.joins_succeeded;
    to.live_partial_matches += from.live_partial_matches;
  }
}

}  // namespace streamworks
