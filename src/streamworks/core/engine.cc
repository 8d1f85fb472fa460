#include "streamworks/core/engine.h"

#include <algorithm>

#include "streamworks/common/hash.h"
#include "streamworks/common/logging.h"
#include "streamworks/common/timer.h"

namespace streamworks {
namespace {

/// Retention the shared graph needs once a query with `window` registers
/// beside `live_queries` others: unbounded until the first bounded query
/// arrives with no live query around, then the longest window seen. It
/// never shrinks on unregister (remaining queries may rely on it;
/// unregistered slots don't count as live).
Timestamp RetentionAfterRegistering(Timestamp retention, Timestamp window,
                                    size_t live_queries) {
  if (retention == kMaxTimestamp) {
    return window != kMaxTimestamp && live_queries == 0 ? window : retention;
  }
  return std::max(retention, window);
}

}  // namespace

StreamWorksEngine::StreamWorksEngine(Interner* interner,
                                     EngineOptions options)
    : interner_(interner),
      options_(options),
      graph_(interner),
      statistics_(options.collect_statistics ? options.wedge_sample_rate
                                             : 1.0) {
  SW_CHECK(options_.replan_interval == 0 || options_.collect_statistics)
      << "adaptive re-planning requires statistics collection";
  if (options_.stats_half_life > 0) {
    statistics_.set_decay_half_life(options_.stats_half_life);
  }
}

StatusOr<int> StreamWorksEngine::RegisterQuery(const QueryGraph& query,
                                               Decomposition decomposition,
                                               Timestamp window,
                                               MatchCallback callback) {
  return RegisterQueryImpl(query, std::move(decomposition), window,
                           std::move(callback), std::nullopt);
}

StatusOr<Decomposition> StreamWorksEngine::PlanWithCurrentStats(
    const QueryGraph& query, DecompositionStrategy strategy) const {
  const SummaryStatistics* stats =
      (options_.collect_statistics && statistics_.num_edges_observed() > 0)
          ? &statistics_
          : nullptr;
  SelectivityEstimator estimator(stats);
  QueryPlanner planner(&estimator);
  return planner.Plan(query, strategy);
}

StatusOr<int> StreamWorksEngine::RegisterQuery(const QueryGraph& query,
                                               DecompositionStrategy strategy,
                                               Timestamp window,
                                               MatchCallback callback) {
  SW_ASSIGN_OR_RETURN(Decomposition decomposition,
                      PlanWithCurrentStats(query, strategy));
  return RegisterQueryImpl(query, std::move(decomposition), window,
                           std::move(callback), strategy);
}

std::unique_ptr<SjTree> StreamWorksEngine::BuildBackfilledTree(
    const QueryGraph* query, Decomposition decomposition,
    Timestamp window) {
  auto tree = std::make_unique<SjTree>(query, std::move(decomposition),
                                       window);
  // Replay the current window so that pre-existing edges can join with
  // future arrivals. Completions produced here finished in the past and
  // are suppressed (continuous-query semantics). Expiring first makes the
  // partial matches of edges older than this query's window dead on
  // arrival: the replay counts them and stores none.
  tree->ExpireOldMatches(graph_.watermark());
  std::vector<Match> suppressed;
  for (size_t i = 0; i < graph_.num_stored_edges(); ++i) {
    tree->ProcessEdge(graph_, graph_.stored_edge_id(i), &suppressed);
    suppressed.clear();
  }
  return tree;
}

void StreamWorksEngine::RebuildRoutes() {
  routes_.clear();
  for (size_t qid = 0; qid < queries_.size(); ++qid) {
    if (queries_[qid] == nullptr) continue;
    const auto& plans = queries_[qid]->tree->anchor_plans();
    for (size_t i = 0; i < plans.size(); ++i) {
      routes_[plans[i].edge_label].push_back(
          Route{static_cast<int>(qid), i, plans[i].src_label,
                plans[i].dst_label});
    }
  }
}

StatusOr<int> StreamWorksEngine::RegisterQueryImpl(
    const QueryGraph& query, Decomposition decomposition, Timestamp window,
    MatchCallback callback, std::optional<DecompositionStrategy> strategy) {
  if (window <= 0) {
    return Status::InvalidArgument("query window must be positive");
  }
  SW_RETURN_IF_ERROR(decomposition.Validate(query));

  auto entry = std::make_unique<RegisteredQuery>();
  entry->query = query;
  entry->window = window;
  entry->callback = std::move(callback);
  entry->strategy = strategy;

  graph_.set_retention(
      RetentionAfterRegistering(graph_.retention(), window, num_queries()));

  // The tree holds a pointer to the entry's own query copy; the entry is
  // heap-allocated and never moved, so the pointer is stable.
  //
  // Shard mode skips the local backfill: replaying only this shard's edge
  // subset would both miss cross-shard partial matches and double-run
  // anchors for edges stored on two shards. The coordinator instead drives
  // a distributed backfill (BackfillOwnedEdges on every worker, exchange
  // relayed until it settles) right after registering the query on every
  // shard.
  if (shard_mode()) {
    entry->tree = std::make_unique<SjTree>(
        &entry->query, std::move(decomposition), window);
    entry->tree->ExpireOldMatches(safe_watermark_);
  } else {
    entry->tree =
        BuildBackfilledTree(&entry->query, std::move(decomposition), window);
  }
  const int query_id = static_cast<int>(queries_.size());
  queries_.push_back(std::move(entry));
  RebuildRoutes();
  return query_id;
}

Status StreamWorksEngine::UnregisterQuery(int query_id) {
  if (!has_query(query_id)) {
    return Status::NotFound("unknown or already-unregistered query id");
  }
  queries_[query_id] = nullptr;
  RebuildRoutes();
  return OkStatus();
}

size_t StreamWorksEngine::num_queries() const {
  size_t n = 0;
  for (const auto& rq : queries_) {
    if (rq != nullptr) ++n;
  }
  return n;
}

StatusOr<bool> StreamWorksEngine::ReplanQuery(
    int query_id, std::optional<DecompositionStrategy> strategy) {
  if (!has_query(query_id)) {
    return Status::InvalidArgument("unknown query id");
  }
  RegisteredQuery& rq = *queries_[query_id];
  if (!strategy.has_value()) strategy = rq.strategy;
  if (!strategy.has_value()) {
    return Status::FailedPrecondition(
        "query was registered with an explicit decomposition; pass a "
        "strategy to re-plan it");
  }
  SW_ASSIGN_OR_RETURN(Decomposition decomposition,
                      PlanWithCurrentStats(rq.query, *strategy));
  if (decomposition == rq.tree->decomposition()) {
    return false;  // same plan; keep the live tree and its partials
  }
  rq.tree = BuildBackfilledTree(&rq.query, std::move(decomposition),
                                rq.window);
  rq.strategy = strategy;
  RebuildRoutes();
  ++replans_performed_;
  return true;
}

Status StreamWorksEngine::ProcessEdge(const StreamEdge& edge) {
  Timer timer;
  const Timestamp watermark = graph_.watermark();
  auto added = graph_.AddEdge(edge);
  if (!added.ok()) {
    ++metrics_.edges_rejected;
    return added.status();
  }
  const EdgeId id = added.value();
  ++metrics_.edges_processed;
  if (options_.collect_statistics) statistics_.Observe(graph_, id);
  if (graph_.watermark() > watermark) {
    ExpirePartialMatches(graph_.watermark());
  }

  auto route_it = routes_.find(edge.edge_label);
  if (route_it != routes_.end()) {
    // The join stage is timed per edge-with-routes only: an edge that
    // anchors no query pays zero extra clock reads, and one that does is
    // already paying for a local search, so the two reads amortize.
    const bool time_joins = options_.pipeline != nullptr;
    const uint64_t join_t0 =
        time_joins ? PipelineMetrics::NowMicros() : 0;
    bool ran_any = false;
    for (const Route& route : route_it->second) {
      if (route.src_label != edge.src_label ||
          route.dst_label != edge.dst_label) {
        continue;
      }
      ran_any = true;
      RegisteredQuery& rq = *queries_[route.query_id];
      scratch_completed_.clear();
      rq.tree->RunAnchorPlan(graph_, route.plan_index, id,
                             &scratch_completed_);
      DeliverCompletions(route.query_id, rq);
    }
    if (time_joins && ran_any) {
      options_.pipeline->Record(PipelineStage::kSjTreeJoin,
                                PipelineMetrics::NowMicros() - join_t0);
    }
  }

  // Adaptive re-planning (§4.3 future work): between edges, re-plan every
  // strategy-registered query against the live statistics.
  if (options_.replan_interval > 0 &&
      ++edges_since_replan_ >= options_.replan_interval) {
    edges_since_replan_ = 0;
    for (size_t qid = 0; qid < queries_.size(); ++qid) {
      if (queries_[qid] == nullptr) continue;
      if (!queries_[qid]->strategy.has_value()) continue;
      auto swapped = ReplanQuery(static_cast<int>(qid));
      if (!swapped.ok()) {
        SW_LOG(Warning) << "re-plan of query " << qid
                        << " failed: " << swapped.status().ToString();
      }
    }
  }
  metrics_.processing_seconds += timer.ElapsedSeconds();
  return OkStatus();
}

void StreamWorksEngine::DeliverCompletions(int query_id,
                                           RegisteredQuery& rq) {
  if (suppress_completions_) {
    scratch_completed_.clear();
    return;
  }
  for (Match& m : scratch_completed_) {
    ++rq.completions;
    ++metrics_.completions;
    if (rq.callback) {
      CompleteMatch cm;
      cm.query_id = query_id;
      // Classic mode: the completing edge is the newest ingested, so the
      // watermark is its timestamp. Shard mode: this shard's watermark may
      // have moved past (or lag) the completing edge of a forwarded match,
      // so read the time off the match itself — identical values, one of
      // them always available.
      cm.completed_at = shard_mode() ? m.max_ts() : graph_.watermark();
      cm.graph = &graph_;
      cm.match = std::move(m);
      rq.callback(cm);
    }
  }
  scratch_completed_.clear();
}

// --- Shard mode --------------------------------------------------------------

int StreamWorksEngine::Router::self_shard() const {
  return engine_->shard_.shard_index;
}

int StreamWorksEngine::Router::OwnerOfVertex(ExternalVertexId v) const {
  return engine_->shard_.partitioner.OwnerShard(v, engine_->shard_.num_shards);
}

int StreamWorksEngine::Router::HomeShard(uint64_t ext_cut_key) const {
  // Mix the query id in so distinct queries with coincident cut
  // assignments spread over different homes.
  const uint64_t h =
      HashCombine(Mix64(static_cast<uint64_t>(current_query_id) + 1),
                  ext_cut_key);
  return static_cast<int>(h % static_cast<uint64_t>(
                                  engine_->shard_.num_shards));
}

Timestamp StreamWorksEngine::Router::safe_watermark() const {
  return engine_->safe_watermark_;
}

ExchangeItem StreamWorksEngine::Router::WireItem(ExchangeKind kind,
                                                 const Match& m) const {
  ExchangeItem item;
  item.kind = kind;
  item.query_id = current_query_id;
  item.match = MatchExchange::ToWire(engine_->graph_, m);
  return item;
}

void StreamWorksEngine::Router::ForwardExpansion(int dest, uint32_t plan,
                                                 int step, const Match& m) {
  PipelineMetrics* pipeline = engine_->options_.pipeline;
  const uint64_t t0 = pipeline ? PipelineMetrics::NowMicros() : 0;
  ExchangeItem item = WireItem(ExchangeKind::kExpand, m);
  item.plan = plan;
  item.step = step;
  engine_->shard_.exchange->Send(dest, std::move(item));
  if (pipeline) {
    pipeline->Record(PipelineStage::kExchangeForward,
                     PipelineMetrics::NowMicros() - t0);
  }
}

void StreamWorksEngine::Router::ForwardInsert(int dest, int node,
                                              const Match& m) {
  PipelineMetrics* pipeline = engine_->options_.pipeline;
  const uint64_t t0 = pipeline ? PipelineMetrics::NowMicros() : 0;
  ExchangeItem item = WireItem(ExchangeKind::kInsert, m);
  item.node = node;
  engine_->shard_.exchange->Send(dest, std::move(item));
  if (pipeline) {
    pipeline->Record(PipelineStage::kExchangeForward,
                     PipelineMetrics::NowMicros() - t0);
  }
}

void StreamWorksEngine::EnableShardMode(const ShardConfig& config) {
  SW_CHECK(config.exchange != nullptr);
  SW_CHECK_GT(config.num_shards, 0);
  SW_CHECK_GE(config.shard_index, 0);
  SW_CHECK_LT(config.shard_index, config.num_shards);
  SW_CHECK(queries_.empty() && metrics_.edges_processed == 0)
      << "shard mode must be enabled before registrations and ingest";
  SW_CHECK_EQ(options_.replan_interval, 0)
      << "adaptive re-planning is per-engine and would diverge the "
         "replicated trees; disable it in shard mode";
  shard_ = config;
  graph_.set_manual_eviction(true);
}

Status StreamWorksEngine::ProcessShardEdge(const StreamEdge& edge,
                                           EdgeId global_id,
                                           bool run_anchors) {
  SW_DCHECK(shard_mode());
  Timer timer;
  auto added = graph_.AddEdgeWithId(edge, global_id);
  if (!added.ok()) {
    ++metrics_.edges_rejected;
    return added.status();
  }
  ++metrics_.edges_processed;
  if (options_.collect_statistics) statistics_.Observe(graph_, global_id);

  if (run_anchors) {
    auto route_it = routes_.find(edge.edge_label);
    if (route_it != routes_.end()) {
      for (const Route& route : route_it->second) {
        if (route.src_label != edge.src_label ||
            route.dst_label != edge.dst_label) {
          continue;
        }
        RegisteredQuery& rq = *queries_[route.query_id];
        router_.current_query_id = route.query_id;
        scratch_completed_.clear();
        rq.tree->RunAnchorPlanSharded(graph_, route.plan_index, global_id,
                                      &router_, &scratch_completed_);
        DeliverCompletions(route.query_id, rq);
      }
    }
  }
  metrics_.processing_seconds += timer.ElapsedSeconds();
  return OkStatus();
}

void StreamWorksEngine::HandleExchangeItem(const ExchangeItem& item) {
  SW_DCHECK(shard_mode());
  SW_CHECK(item.kind != ExchangeKind::kComplete)
      << "a completion goes to the coordinator, never to a shard";
  Timer timer;
  shard_.exchange->CountReceived(item.kind);
  SW_CHECK(has_query(item.query_id))
      << "exchange item for unknown query " << item.query_id
      << " (unregister must quiesce the whole group first)";
  RegisteredQuery& rq = *queries_[item.query_id];
  auto localized = MatchExchange::Localize(&graph_, rq.query, item.match);
  SW_CHECK(localized.ok())
      << "forwarded match failed to localize: "
      << localized.status().ToString();
  Match m = std::move(localized).value();

  router_.current_query_id = item.query_id;
  scratch_completed_.clear();
  if (item.kind == ExchangeKind::kExpand) {
    rq.tree->ResumeExpansion(graph_, item.plan,
                             static_cast<size_t>(item.step), &m, &router_,
                             &scratch_completed_);
  } else {
    rq.tree->InsertForwarded(graph_, item.node, m, &router_,
                             &scratch_completed_);
  }
  DeliverCompletions(item.query_id, rq);
  metrics_.processing_seconds += timer.ElapsedSeconds();
}

void StreamWorksEngine::AdvanceWatermark(Timestamp watermark) {
  if (watermark > safe_watermark_) safe_watermark_ = watermark;
  graph_.AdvanceWatermark(watermark);
  // Only the *safe* (epoch) watermark may expire partial matches: it is a
  // lower bound on every in-flight match's completing edge, while the
  // local watermark could be ahead of forwarded work and expire its
  // partners.
  ExpirePartialMatches(safe_watermark_);
}

void StreamWorksEngine::ExpirePartialMatches(Timestamp watermark) {
  for (auto& rq : queries_) {
    if (rq != nullptr) rq->tree->ExpireOldMatches(watermark);
  }
}

void StreamWorksEngine::BackfillOwnedEdges(int query_id) {
  SW_DCHECK(shard_mode());
  SW_CHECK(has_query(query_id));
  RegisteredQuery& rq = *queries_[query_id];
  router_.current_query_id = query_id;
  const auto& plans = rq.tree->anchor_plans();
  for (size_t e = 0; e < graph_.num_stored_edges(); ++e) {
    const EdgeId edge_id = graph_.stored_edge_id(e);
    const EdgeRecord& record = graph_.edge_record(edge_id);
    if (router_.OwnerOfVertex(graph_.external_id(record.src)) !=
        shard_.shard_index) {
      continue;
    }
    const LabelId src_label = graph_.vertex_label(record.src);
    const LabelId dst_label = graph_.vertex_label(record.dst);
    for (size_t i = 0; i < plans.size(); ++i) {
      if (plans[i].edge_label != record.label ||
          plans[i].src_label != src_label ||
          plans[i].dst_label != dst_label) {
        continue;
      }
      scratch_completed_.clear();
      rq.tree->RunAnchorPlanSharded(graph_, i, edge_id, &router_,
                                    &scratch_completed_);
      DeliverCompletions(query_id, rq);
    }
  }
}

WindowSnapshot StreamWorksEngine::ExportWindow() const {
  WindowSnapshot snap;
  snap.next_edge_id = graph_.next_edge_id();
  snap.watermark = graph_.watermark();
  snap.edges.reserve(graph_.num_stored_edges());
  for (size_t i = 0; i < graph_.num_stored_edges(); ++i) {
    const EdgeId id = graph_.stored_edge_id(i);
    const EdgeRecord& record = graph_.edge_record(id);
    StreamEdge e;
    e.src = graph_.external_id(record.src);
    e.dst = graph_.external_id(record.dst);
    e.src_label = graph_.vertex_label(record.src);
    e.dst_label = graph_.vertex_label(record.dst);
    e.edge_label = record.label;
    e.ts = record.ts;
    snap.edges.push_back(PersistedEdge{e, id});
  }
  return snap;
}

Status StreamWorksEngine::RestoreWindowEdge(const StreamEdge& edge,
                                            EdgeId id) {
  SW_CHECK(queries_.empty())
      << "window restore must precede query registration";
  return graph_.AddEdgeWithId(edge, id).status();
}

void StreamWorksEngine::FinishWindowRestore(EdgeId next_edge_id,
                                            Timestamp watermark) {
  graph_.FastForwardEdgeIds(next_edge_id);
  if (watermark >= 0) {
    // No queries are registered yet (restore precedes registration) and
    // retention is still unbounded, so this only raises the clock — the
    // restored edges all survive.
    graph_.AdvanceWatermark(watermark);
    if (watermark > safe_watermark_) safe_watermark_ = watermark;
  }
}

size_t StreamWorksEngine::total_live_partial_matches() const {
  size_t total = 0;
  for (const auto& rq : queries_) {
    if (rq != nullptr) total += rq->tree->TotalPartialMatches();
  }
  return total;
}

ShardStatsSnapshot StreamWorksEngine::shard_stats() const {
  ShardStatsSnapshot snap;
  snap.shard = shard_.shard_index;
  snap.retained_edges = graph_.num_stored_edges();
  snap.retained_vertices = graph_.num_vertices();
  snap.evicted_edges = graph_.num_evicted_edges();
  snap.edges_processed = metrics_.edges_processed;
  snap.completions = metrics_.completions;
  snap.live_partial_matches = total_live_partial_matches();
  if (shard_mode()) snap.exchange = shard_.exchange->counters();
  return snap;
}

Status StreamWorksEngine::ProcessBatch(const EdgeBatch& batch) {
  ++metrics_.batches_processed;
  // A malformed edge is a stream property (counted in edges_rejected),
  // not a reason to drop the rest of the batch — a batch must match the
  // equivalent sequence of ProcessEdge calls, whose callers skip bad
  // edges and continue. The first error is still reported.
  Status first_error = OkStatus();
  for (const StreamEdge& e : batch) {
    const Status status = ProcessEdge(e);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

const SjTree& StreamWorksEngine::sjtree(int query_id) const {
  SW_CHECK(has_query(query_id)) << "unknown query id " << query_id;
  return *queries_[query_id]->tree;
}

QueryRuntimeInfo StreamWorksEngine::query_info(int query_id) const {
  SW_CHECK(has_query(query_id)) << "unknown query id " << query_id;
  const RegisteredQuery& rq = *queries_[query_id];
  QueryRuntimeInfo info;
  info.query_id = query_id;
  info.name = rq.query.name();
  info.window = rq.window;
  info.completions = rq.completions;
  info.live_partial_matches = rq.tree->TotalPartialMatches();
  info.peak_partial_matches = rq.tree->PeakTotalPartialMatches();
  const Decomposition& decomposition = rq.tree->decomposition();
  info.nodes.reserve(static_cast<size_t>(decomposition.num_nodes()));
  for (int n = 0; n < decomposition.num_nodes(); ++n) {
    const SjNodeStats& stats = rq.tree->node_stats(n);
    SjNodeRuntime node;
    node.node = n;
    node.is_leaf = decomposition.IsLeaf(n);
    node.query_edges = decomposition.node(n).edges.Count();
    node.matches_inserted = stats.matches_inserted;
    node.probes = stats.probes;
    node.join_attempts = stats.join_attempts;
    node.joins_succeeded = stats.joins_succeeded;
    node.live_partial_matches = rq.tree->NumPartialMatches(n);
    info.nodes.push_back(node);
  }
  return info;
}

}  // namespace streamworks
