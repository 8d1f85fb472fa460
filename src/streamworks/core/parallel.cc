#include "streamworks/core/parallel.h"

#include <algorithm>

#include "streamworks/common/logging.h"

namespace streamworks {

ParallelEngineGroup::ParallelEngineGroup(Interner* interner, int num_shards,
                                         EngineOptions options,
                                         const Partitioner* partitioner)
    : partitioner_(partitioner != nullptr ? partitioner
                                          : &default_partitioner_),
      ingest_(partitioner_, num_shards) {
  SW_CHECK_GT(num_shards, 0);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(interner, options));
    ShardConfig config;
    config.shard_index = i;
    config.num_shards = num_shards;
    config.partitioner = partitioner_;
    config.exchange = &shards_.back()->exchange;
    shards_.back()->engine.EnableShardMode(config);
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(s); });
  }
}

ParallelEngineGroup::~ParallelEngineGroup() { Close(); }

void ParallelEngineGroup::WaitDrained() {
  std::unique_lock<std::mutex> lock(drained_mu_);
  drained_cv_.wait(lock, [&] { return pending_.load() == 0; });
}

StatusOr<int> ParallelEngineGroup::RegisterQuery(
    const QueryGraph& query, DecompositionStrategy strategy,
    Timestamp window, MatchCallback callback) {
  Flush();
  // One plan for every shard: the replicated trees must agree on node
  // numbering and cut vertices or the exchange's homing would scatter
  // siblings. Shard 0's statistics stand in for the group's (each shard
  // observes only its own edge subset; planning quality, not correctness).
  SW_ASSIGN_OR_RETURN(const Decomposition planned,
                      shards_[0]->engine.PlanWithCurrentStats(query, strategy));
  // Replicate onto every shard. Identical registration sequences keep the
  // per-engine ids aligned, so the group id is the engine id.
  auto first = shards_[0]->engine.RegisterQuery(query, planned, window,
                                                callback);
  SW_RETURN_IF_ERROR(first.status());
  const int group_id = first.value();
  for (size_t s = 1; s < shards_.size(); ++s) {
    auto replicated =
        shards_[s]->engine.RegisterQuery(query, planned, window, callback);
    // Shard 0 already passed the same deterministic validation.
    SW_CHECK(replicated.ok()) << replicated.status().ToString();
    SW_CHECK_EQ(replicated.value(), group_id)
        << "shard registration sequences diverged";
  }
  BackfillQueryDistributed(group_id);
  return group_id;
}

void ParallelEngineGroup::BackfillQueryDistributed(int query_id) {
  bool any_edges = false;
  for (auto& shard : shards_) {
    any_edges = any_edges || shard->engine.graph().num_stored_edges() > 0;
  }
  if (!any_edges) return;

  // Replay the retained window through the sharded pipeline with
  // completions suppressed — the distributed analogue of the engine's
  // BuildBackfilledTree. Only the new query's tree is touched (anchors run
  // per query id), so the group-wide suppression flag is safe. Order
  // across shards is irrelevant: the graph is static here and the anchor
  // discipline bounds candidates by edge id, not by ingest recency.
  for (auto& shard : shards_) {
    shard->engine.set_suppress_completions(true);
  }
  for (auto& shard : shards_) {
    shard->engine.BackfillOwnedEdges(query_id);
    PumpExchange();
  }
  for (auto& shard : shards_) {
    shard->engine.set_suppress_completions(false);
  }
}

void ParallelEngineGroup::PumpExchange() {
  // Control-thread fixpoint (group quiesced): deliver forwarded items
  // directly until no shard produces more.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& shard : shards_) {
      for (auto& [dest, item] : shard->exchange.Drain()) {
        shards_[static_cast<size_t>(dest)]->engine.HandleExchangeItem(item);
        progress = true;
      }
    }
  }
}

Status ParallelEngineGroup::UnregisterQuery(int group_query_id) {
  // Any shard may hold the query's partials and in-flight exchange items
  // reference it by id, so the whole group quiesces first.
  Flush();
  Status status = OkStatus();
  for (auto& shard : shards_) {
    const Status s = shard->engine.UnregisterQuery(group_query_id);
    if (!s.ok()) status = s;
  }
  return status;
}

StatusOr<QueryRuntimeInfo> ParallelEngineGroup::query_info(
    int group_query_id) {
  Flush();
  if (group_query_id < 0 || !shards_[0]->engine.has_query(group_query_id)) {
    return Status::NotFound("unknown or unregistered group query id");
  }
  QueryRuntimeInfo info;
  info.query_id = group_query_id;
  for (int s = 0; s < num_shards(); ++s) {
    MergeShardQueryInfo(
        s, num_shards(),
        shards_[static_cast<size_t>(s)]->engine.query_info(group_query_id),
        &info);
  }
  return info;
}

void ParallelEngineGroup::EnqueueTask(Shard* shard, ShardTask task,
                                      bool bounded) {
  std::unique_lock<std::mutex> lock(shard->mu);
  if (bounded) {
    shard->cv_producer.wait(lock, [&] {
      return shard->queue.size() < kMaxQueuedEdges;
    });
  }
  const bool was_empty = shard->queue.empty();
  shard->queue.push_back(std::move(task));
  shard->idle = false;
  pending_.fetch_add(1);
  // The worker only sleeps when the queue is empty, so a wakeup is needed
  // just on the empty -> non-empty transition (it re-checks the queue
  // after finishing its current swap buffer regardless).
  if (was_empty) shard->cv_consumer.notify_one();
}

void ParallelEngineGroup::RouteEdge(const StreamEdge& edge) {
  const bool admitted =
      ingest_.Route(edge, [&](int shard, EdgeId id, bool run_anchors) {
        ShardTask task;
        task.kind = ShardTask::Kind::kEdge;
        task.run_anchors = run_anchors;
        task.edge = edge;
        task.edge_id = id;
        EnqueueTask(shards_[static_cast<size_t>(shard)].get(),
                    std::move(task), /*bounded=*/true);
      });
  if (admitted) ++edges_since_epoch_;
}

void ParallelEngineGroup::EpochFlush() {
  edges_since_epoch_ = 0;
  // Drain every queue and everything the exchange spawned, so no in-flight
  // match still needs a neighbourhood the watermark broadcast may evict.
  WaitDrained();
  if (!ingest_.watermark_uncommitted()) return;
  ingest_.MarkWatermarkCommitted();
  for (auto& shard : shards_) {
    ShardTask task;
    task.kind = ShardTask::Kind::kWatermark;
    task.watermark = ingest_.watermark();
    EnqueueTask(shard.get(), std::move(task), /*bounded=*/false);
  }
}

void ParallelEngineGroup::ProcessEdge(const StreamEdge& edge) {
  RouteEdge(edge);
  if (edges_since_epoch_ >= kEpochEdges) EpochFlush();
}

void ParallelEngineGroup::ProcessBatch(const EdgeBatch& batch) {
  if (batch.empty()) return;
  for (const StreamEdge& edge : batch) {
    RouteEdge(edge);
    // One huge batch must not suspend eviction for its whole duration —
    // keep the same per-kEpochEdges bound the single-edge path has.
    if (edges_since_epoch_ >= kEpochEdges) EpochFlush();
  }
  // The batch boundary is an epoch boundary: exchange drained, watermark
  // broadcast, expiry advanced consistently on every shard.
  EpochFlush();
}

void ParallelEngineGroup::ExecuteTask(Shard* shard, ShardTask& task) {
  switch (task.kind) {
    case ShardTask::Kind::kEdge:
      // Rejected edges are counted by the engine; a parallel consumer has
      // no way to surface per-edge status, matching the callback model.
      shard->engine.ProcessShardEdge(task.edge, task.edge_id, task.run_anchors)
          .ok();
      break;
    case ShardTask::Kind::kItem:
      shard->engine.HandleExchangeItem(*task.item);
      break;
    case ShardTask::Kind::kWatermark:
      shard->engine.AdvanceWatermark(task.watermark);
      break;
  }
}

void ParallelEngineGroup::DispatchExchange(Shard* from) {
  if (from->exchange.empty()) return;
  auto items = from->exchange.Drain();
  // One lock acquisition per destination: group the batch first.
  std::vector<std::vector<std::unique_ptr<ExchangeItem>>> per_dest(
      shards_.size());
  for (auto& [dest, item] : items) {
    per_dest[static_cast<size_t>(dest)].push_back(
        std::make_unique<ExchangeItem>(std::move(item)));
  }
  for (size_t d = 0; d < per_dest.size(); ++d) {
    if (per_dest[d].empty()) continue;
    Shard* dst = shards_[d].get();
    std::unique_lock<std::mutex> lock(dst->mu);
    const bool was_empty = dst->queue.empty();
    for (auto& item : per_dest[d]) {
      ShardTask task;
      task.kind = ShardTask::Kind::kItem;
      task.item = std::move(item);
      dst->queue.push_back(std::move(task));
    }
    dst->idle = false;
    pending_.fetch_add(per_dest[d].size());
    if (was_empty) dst->cv_consumer.notify_one();
  }
}

void ParallelEngineGroup::WorkerLoop(Shard* shard) {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv_consumer.wait(lock, [&] {
        return !shard->queue.empty() || shard->closing;
      });
      if (shard->queue.empty() && shard->closing) return;
      shard->taking.swap(shard->queue);
      shard->cv_producer.notify_all();
    }
    const size_t taken = shard->taking.size();
    for (ShardTask& task : shard->taking) {
      ExecuteTask(shard, task);
    }
    // Forward everything the batch produced before retiring it from
    // pending_, so "drained" can never be observed with items in flight.
    DispatchExchange(shard);
    shard->taking.clear();
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      if (shard->queue.empty()) {
        shard->idle = true;
        shard->cv_producer.notify_all();
      }
    }
    if (pending_.fetch_sub(taken) == taken) {
      std::lock_guard<std::mutex> guard(drained_mu_);
      drained_cv_.notify_all();
    }
  }
}

void ParallelEngineGroup::Flush() {
  // Commit the pending watermark first, so a control call that follows
  // sees what a single engine retains after the same edges, not edges and
  // partials it would already have expired.
  EpochFlush();
  WaitDrained();  // drain the watermark tasks themselves
  // pending_ == 0 and the control thread (the sole external producer) is
  // here, so no new work can appear; wait out each worker's parking. Once
  // this returns the control thread may touch every engine/exchange: the
  // per-shard mutex handoff orders those accesses against the workers.
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->cv_producer.wait(lock, [&] {
      return shard->idle && shard->queue.empty();
    });
  }
}

void ParallelEngineGroup::Close() {
  if (closed_) return;
  // Workers forward to each other; a worker must never exit while a peer
  // might still send it work, so drain globally first.
  Flush();
  closed_ = true;
  for (auto& shard : shards_) {
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->closing = true;
      shard->cv_consumer.notify_one();
    }
    shard->worker.join();
  }
}

uint64_t ParallelEngineGroup::total_completions() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->engine.metrics().completions;
  }
  return total;
}

uint64_t ParallelEngineGroup::total_rejected() const {
  uint64_t total = ingest_.rejected();
  for (const auto& shard : shards_) {
    total += shard->engine.metrics().edges_rejected;
  }
  return total;
}

WindowSnapshot ParallelEngineGroup::ExportWindow() {
  Flush();
  WindowSnapshot merged;
  merged.next_edge_id = ingest_.next_edge_id();
  merged.watermark = ingest_.watermark();
  for (auto& shard : shards_) {
    WindowSnapshot per = shard->engine.ExportWindow();
    merged.edges.insert(merged.edges.end(), per.edges.begin(),
                        per.edges.end());
  }
  // An edge stored on both endpoint owners was exported twice; ids are
  // group-global, so sort + unique restores the single ingest sequence.
  std::sort(merged.edges.begin(), merged.edges.end(),
            [](const PersistedEdge& a, const PersistedEdge& b) {
              return a.id < b.id;
            });
  merged.edges.erase(std::unique(merged.edges.begin(), merged.edges.end(),
                                 [](const PersistedEdge& a,
                                    const PersistedEdge& b) {
                                   return a.id == b.id;
                                 }),
                     merged.edges.end());
  return merged;
}

Status ParallelEngineGroup::RestoreWindow(const WindowSnapshot& snapshot) {
  Flush();
  for (const PersistedEdge& pe : snapshot.edges) {
    Status restored = OkStatus();
    ingest_.ForEachOwner(pe.edge, [&](int shard, bool) {
      if (restored.ok()) {
        restored = shards_[static_cast<size_t>(shard)]->engine
                       .RestoreWindowEdge(pe.edge, pe.id);
      }
    });
    SW_RETURN_IF_ERROR(restored);
  }
  for (auto& shard : shards_) {
    shard->engine.FinishWindowRestore(snapshot.next_edge_id,
                                      snapshot.watermark);
  }
  ingest_.Restore(snapshot.edges, snapshot.next_edge_id, snapshot.watermark);
  return OkStatus();
}

void ParallelEngineGroup::SetSuppressCompletions(bool suppress) {
  Flush();
  for (auto& shard : shards_) {
    shard->engine.set_suppress_completions(suppress);
  }
}

std::vector<ShardStatsSnapshot> ParallelEngineGroup::ShardStats() {
  Flush();
  std::vector<ShardStatsSnapshot> out;
  out.reserve(shards_.size());
  for (auto& shard : shards_) out.push_back(shard->engine.shard_stats());
  return out;
}

}  // namespace streamworks
