#include "streamworks/cluster/coordinator.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "streamworks/common/str_util.h"
#include "streamworks/sjtree/exchange.h"

namespace streamworks {

StatusOr<std::pair<std::string, int>> ParseHostPort(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return Status::InvalidArgument(StrCat("expected host:port, got '", spec,
                                          "'"));
  }
  int port = 0;
  for (size_t i = colon + 1; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(StrCat("bad port in '", spec, "'"));
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument(StrCat("port out of range in '", spec,
                                            "'"));
    }
  }
  return std::make_pair(spec.substr(0, colon), port);
}

namespace {

/// Worker `shard`'s row of ShardLoads.
ShardLoadSnapshot ToShardLoad(int shard, const ShardStatsSnapshot& stats) {
  ShardLoadSnapshot load;
  load.shard = shard;
  load.sharding = "distributed";
  load.retained_edges = stats.retained_edges;
  load.retained_vertices = stats.retained_vertices;
  load.evicted_edges = stats.evicted_edges;
  load.edges_processed = stats.edges_processed;
  load.completions = stats.completions;
  load.live_partial_matches = stats.live_partial_matches;
  load.matches_forwarded = stats.exchange.total_sent();
  load.matches_received = stats.exchange.total_received();
  return load;
}

}  // namespace

DistributedBackend::DistributedBackend(DistributedBackendOptions options,
                                       Interner* interner)
    : options_(std::move(options)),
      interner_(interner),
      ingest_(HashModuloPartitioner(options_.partitioner_seed),
              static_cast<int>(options_.workers.size())),
      coord_graph_(&wire_interner_),
      epoch_ring_(options_.epoch_trace_capacity) {}

DistributedBackend::~DistributedBackend() { Stop(); }

Status DistributedBackend::Start() {
  if (options_.workers.empty()) {
    return Status::InvalidArgument("a cluster needs at least one worker");
  }
  const int n = static_cast<int>(options_.workers.size());
  workers_.resize(options_.workers.size());
  for (int i = 0; i < n; ++i) {
    WorkerState& w = workers_[static_cast<size_t>(i)];
    SW_ASSIGN_OR_RETURN(auto host_port, ParseHostPort(options_.workers[i]));
    w.host = host_port.first;
    w.port = host_port.second;
    SW_ASSIGN_OR_RETURN(
        auto link,
        PeerLink::ConnectTcpRetry(w.host, w.port, options_.connect_deadline_ms));
    w.link.emplace(std::move(link));
    CtrlHello hello;
    hello.num_shards = n;
    hello.shard_index = i;
    hello.partitioner_seed = options_.partitioner_seed;
    SW_ASSIGN_OR_RETURN(
        const CtrlHelloAck ack,
        ExchangeHello(&w, hello, options_.connect_deadline_ms));
    if (ack.applied_frames != 0) {
      return Status::FailedPrecondition(
          StrCat("worker ", i, " (", options_.workers[i], ") holds ",
                 ack.applied_frames,
                 " frames of state from a previous cluster run; clear its "
                 "data dir (or point it elsewhere) to join a fresh cluster"));
    }
  }
  started_ = true;
  if (options_.registry != nullptr) {
    federation_token_ = options_.registry->AddCollector(
        [this](MetricSnapshotBuilder* out) { ContributeClusterMetrics(out); });
  }
  pump_ = std::thread([this] { PumpLoop(); });
  return OkStatus();
}

void DistributedBackend::Stop() {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (stop_) return;
    stop_ = true;
  }
  pending_cv_.notify_all();
  space_cv_.notify_all();
  if (pump_.joinable()) pump_.join();
  if (federation_token_ >= 0) {
    options_.registry->RemoveCollector(federation_token_);
    federation_token_ = -1;
  }
  std::lock_guard<std::mutex> lock(cluster_mu_);
  for (WorkerState& w : workers_) {
    if (w.link.has_value()) w.link->Close();
  }
}

Status DistributedBackend::SyncLabelNames(std::span<const StreamEdge> edges) {
  std::lock_guard<std::mutex> lock(label_mu_);
  while (label_names_.size() < interner_->size()) {
    label_names_.push_back(
        interner_->Name(static_cast<LabelId>(label_names_.size())));
  }
  // Refuse here, before the edges are enqueued: once admission numbers
  // an edge, its Batch frame must encode, because the coordinator retains
  // that frame and resends it after every reconnect.
  for (const StreamEdge& e : edges) {
    for (const LabelId id : {e.src_label, e.dst_label, e.edge_label}) {
      if (id < label_names_.size()) {
        SW_RETURN_IF_ERROR(CheckStringLength(label_names_[id]));
      }
    }
  }
  return OkStatus();
}

std::string_view DistributedBackend::CachedLabelName(LabelId id) {
  // Deque elements are append-only and never move, so the view outlives
  // the lock — encoders may keep it across the whole frame build.
  std::lock_guard<std::mutex> lock(label_mu_);
  return label_names_[id];
}

Status DistributedBackend::SendStateFrame(WorkerState* w, std::string frame) {
  w->retained.push_back(std::move(frame));
  ++w->sent_state;
  if (!w->link.has_value() || !w->link->connected()) {
    return RecoverLink(w);
  }
  const Status sent = w->link->SendFrame(w->retained.back());
  if (sent.ok()) return OkStatus();
  return RecoverLink(w);
}

Status DistributedBackend::SendControlFrame(WorkerState* w,
                                            const std::string& frame) {
  if (!w->link.has_value() || !w->link->connected()) {
    SW_RETURN_IF_ERROR(RecoverLink(w));
  }
  if (w->link->SendFrame(frame).ok()) return OkStatus();
  SW_RETURN_IF_ERROR(RecoverLink(w));
  return w->link->SendFrame(frame);
}

StatusOr<CtrlHelloAck> DistributedBackend::ExchangeHello(
    WorkerState* w, const CtrlHello& hello, int timeout_ms) {
  SW_RETURN_IF_ERROR(w->link->SendFrame(EncodeHelloFrame(hello)));
  // A recovering worker replays before answering, then sends HelloAck
  // first and its regenerated-but-undelivered outputs right after — so
  // the ack is always the first frame on the link.
  auto ack_or = w->link->ReadFrame(&wire_interner_, timeout_ms);
  const std::string worker =
      StrCat("worker ", hello.shard_index, " (", w->host, ":", w->port, ")");
  if (!ack_or.ok()) {
    return Status(ack_or.status().code(),
                  StrCat(worker, " did not answer the Hello within ",
                         timeout_ms, "ms: ", ack_or.status().message()));
  }
  if (ack_or.value().type != CtrlType::kHelloAck) {
    return Status::InvalidArgument(
        StrCat(worker, " answered Hello with frame type ",
               static_cast<int>(ack_or.value().type)));
  }
  const CtrlHelloAck& ack = ack_or.value().hello_ack;
  if (!ack.error.empty()) {
    return Status::FailedPrecondition(
        StrCat(worker, " refused the Hello: ", ack.error));
  }
  return ack;
}

Status DistributedBackend::RecoverLink(WorkerState* w) {
  if (w->link.has_value()) w->link->Close();
  SW_ASSIGN_OR_RETURN(auto link,
                      PeerLink::ConnectTcpRetry(w->host, w->port,
                                                options_.reconnect_deadline_ms));
  w->link.emplace(std::move(link));
  CtrlHello hello;
  hello.num_shards = static_cast<int32_t>(workers_.size());
  hello.shard_index =
      static_cast<int32_t>(w - workers_.data());
  hello.partitioner_seed = options_.partitioner_seed;
  hello.exchange_items_received = w->exchange_received;
  // A restarted worker replays its whole frame log before it answers.
  SW_ASSIGN_OR_RETURN(const CtrlHelloAck ack,
                      ExchangeHello(w, hello, options_.ack_timeout_ms));
  const uint64_t durable = ack.applied_frames;
  if (durable < w->pruned_base || durable > w->sent_state) {
    return Status::Internal(
        StrCat("worker log has ", durable, " frames but coordinator retains [",
               w->pruned_base, ", ", w->sent_state,
               ") — state streams diverged"));
  }
  // Resend what the crash swallowed: frames [durable, sent_state).
  for (uint64_t seq = durable; seq < w->sent_state; ++seq) {
    SW_RETURN_IF_ERROR(
        w->link->SendFrame(w->retained[seq - w->pruned_base]));
  }
  return OkStatus();
}

Status DistributedBackend::HandleWorkerFrame(WorkerState* from,
                                             const CtrlFrame& frame) {
  switch (frame.type) {
    case CtrlType::kExchange: {
      // The worker's one output stream: the recovery cursor counts every
      // item, completions included.
      from->exchange_received += frame.exchange.items.size();
      // Completions are delivered here. The rest is a star relay: group
      // by destination shard, forward as state frames (a relayed item
      // mutates the receiver, so it must survive a receiver crash like
      // any batch would).
      std::map<int32_t, std::vector<CtrlExchangeItem>> by_dest;
      size_t relayed = 0;
      for (const CtrlExchangeItem& item : frame.exchange.items) {
        if (item.item.kind == ExchangeKind::kComplete) {
          SW_RETURN_IF_ERROR(DeliverCompletion(item.item));
          continue;
        }
        if (item.dest < 0 ||
            item.dest >= static_cast<int32_t>(workers_.size())) {
          return Status::Internal(
              StrCat("exchange item routed to shard ", item.dest, " of ",
                     workers_.size()));
        }
        by_dest[item.dest].push_back(item);
        ++relayed;
      }
      // Only relayed items start another barrier round.
      if (relayed == 0) return OkStatus();
      relays_total_ += relayed;
      const uint64_t relay_start = PipelineMetrics::NowMicros();
      const LabelNameFn name = InternerNames(wire_interner_);
      for (const auto& [dest, items] : by_dest) {
        SW_ASSIGN_OR_RETURN(std::vector<std::string> frames,
                            EncodeExchangeFrames(items, name));
        for (std::string& relayed : frames) {
          SW_RETURN_IF_ERROR(SendStateFrame(
              &workers_[static_cast<size_t>(dest)], std::move(relayed)));
        }
      }
      const uint64_t relay_us = PipelineMetrics::NowMicros() - relay_start;
      relay_forward_us_ += relay_us;
      if (options_.pipeline != nullptr) {
        options_.pipeline->Record(PipelineStage::kExchangeRelay, relay_us, -1,
                                  -1, relayed);
      }
      return OkStatus();
    }
    default:
      // Stale acks from an abandoned await survive a reconnect race;
      // ignoring them is always safe (awaits match on round/type).
      return OkStatus();
  }
}

Status DistributedBackend::DeliverCompletion(const ExchangeItem& item) {
  const auto it = queries_.find(item.query_id);
  if (it == queries_.end()) {
    // Unregistered while the completion was in flight; the contract
    // ("no callbacks after Unregister returns") says drop it.
    return OkStatus();
  }
  auto match_or =
      MatchExchange::Localize(&coord_graph_, it->second.query, item.match);
  SW_RETURN_IF_ERROR(match_or.status());
  if (suppress_.load(std::memory_order_relaxed)) return OkStatus();
  CompleteMatch cm;
  cm.query_id = item.query_id;
  cm.match = std::move(match_or).value();
  // What a shard engine reports: the completing edge's timestamp.
  cm.completed_at = cm.match.max_ts();
  cm.graph = &coord_graph_;
  // A null callback registers a query whose matches are only counted,
  // as on an engine.
  if (it->second.callback) it->second.callback(cm);
  return OkStatus();
}

StatusOr<CtrlFrame> DistributedBackend::AwaitFrame(
    WorkerState* w, CtrlType type, const std::string* request) {
  while (true) {
    auto frame_or = w->link->ReadFrame(&wire_interner_, options_.ack_timeout_ms);
    if (!frame_or.ok()) {
      if (request == nullptr) return frame_or.status();
      // The link failed under the request: recover (replay + resend
      // restores the worker past every state frame) and ask again.
      SW_RETURN_IF_ERROR(RecoverLink(w));
      SW_RETURN_IF_ERROR(w->link->SendFrame(*request));
      continue;
    }
    if (frame_or.value().type == type) return frame_or;
    SW_RETURN_IF_ERROR(HandleWorkerFrame(w, frame_or.value()));
  }
}

Status DistributedBackend::AwaitBarrierAck(WorkerState* w, uint32_t round,
                                           const std::string& frame) {
  while (true) {
    SW_ASSIGN_OR_RETURN(const CtrlFrame ack,
                        AwaitFrame(w, CtrlType::kBarrierAck, &frame));
    if (ack.barrier_ack.round != round) continue;  // stale round
    // The ack's durable-frame count lets us drop the retained prefix:
    // those frames survive in the worker's log, so a crash replays them
    // locally and we will never need to resend them.
    while (w->pruned_base < ack.barrier_ack.applied_frames &&
           !w->retained.empty()) {
      w->retained.pop_front();
      ++w->pruned_base;
    }
    return OkStatus();
  }
}

Status DistributedBackend::BarrierFixpoint(EpochPhases* phases) {
  uint64_t before;
  bool first_round = true;
  do {
    before = relays_total_;
    const uint64_t forward_before = relay_forward_us_;
    const uint64_t round_start = PipelineMetrics::NowMicros();
    ++barrier_round_;
    CtrlBarrier barrier;
    barrier.round = barrier_round_;
    const std::string frame = EncodeBarrierFrame(barrier);
    for (WorkerState& w : workers_) {
      SW_RETURN_IF_ERROR(SendControlFrame(&w, frame));
    }
    for (WorkerState& w : workers_) {
      const uint64_t wait_start = PipelineMetrics::NowMicros();
      SW_RETURN_IF_ERROR(AwaitBarrierAck(&w, barrier_round_, frame));
      if (options_.pipeline != nullptr) {
        options_.pipeline->Record(PipelineStage::kBarrierWait,
                                  PipelineMetrics::NowMicros() - wait_start);
      }
    }
    // Relays sent during the acks are state frames queued behind nothing:
    // if any moved, another round flushes their consequences.
    const uint64_t items_moved = relays_total_ - before;
    if (items_moved > 0) relay_items_per_round_.Record(items_moved);
    if (phases != nullptr) {
      const uint64_t round_us = PipelineMetrics::NowMicros() - round_start;
      // Relay forwarding nests inside the round's ack waits; the
      // difference of the accumulator carves it out so apply/barrier time
      // never double-counts it.
      const uint64_t forward_us =
          std::min(relay_forward_us_ - forward_before, round_us);
      phases->relay_us += forward_us;
      // Round 1's wait is dominated by workers applying the epoch's
      // batches; later rounds are exchange settle.
      if (first_round) {
        phases->apply_us += round_us - forward_us;
      } else {
        phases->barrier_us += round_us - forward_us;
      }
      if (items_moved > 0) {
        ++phases->relay_rounds;
        phases->relayed_items += items_moved;
      }
    }
    first_round = false;
  } while (relays_total_ != before);
  if (ingest_.watermark_uncommitted()) {
    const uint64_t commit_start = PipelineMetrics::NowMicros();
    CtrlCommit commit;
    commit.watermark = ingest_.watermark();
    const std::string frame = EncodeCommitFrame(commit);
    for (WorkerState& w : workers_) {
      SW_RETURN_IF_ERROR(SendStateFrame(&w, frame));
    }
    ingest_.MarkWatermarkCommitted();
    if (phases != nullptr) {
      phases->commit_us += PipelineMetrics::NowMicros() - commit_start;
    }
  }
  return OkStatus();
}

StatusOr<size_t> DistributedBackend::RunEpoch() {
  std::vector<StreamEdge> epoch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const size_t take =
        std::min(pending_.size(), static_cast<size_t>(options_.epoch_edges));
    epoch.assign(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(take));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(take));
  }
  if (epoch.empty()) return size_t{0};
  space_cv_.notify_all();

  const uint64_t batch_start = PipelineMetrics::NowMicros();
  std::vector<CtrlBatch> batches(workers_.size());
  for (const StreamEdge& edge : epoch) {
    ingest_.Route(edge, [&](int shard, EdgeId id, bool run_anchors) {
      batches[static_cast<size_t>(shard)].edges.push_back(
          CtrlShardEdge{edge, id, run_anchors});
    });
  }
  const LabelNameFn name = [this](LabelId id) -> std::string_view {
    return CachedLabelName(id);
  };
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (batches[i].edges.empty()) continue;
    SW_ASSIGN_OR_RETURN(std::string frame, EncodeBatchFrame(batches[i], name));
    SW_RETURN_IF_ERROR(SendStateFrame(&workers_[i], std::move(frame)));
  }
  const uint64_t batch_us = PipelineMetrics::NowMicros() - batch_start;
  EpochPhases phases;
  SW_RETURN_IF_ERROR(BarrierFixpoint(&phases));

  EpochTraceEntry entry;
  entry.epoch = epoch_ring_.total_pushed() + 1;  // 1-based epoch id
  entry.edges = epoch.size();
  entry.relay_rounds = phases.relay_rounds;
  entry.relayed_items = phases.relayed_items;
  entry.batch_us = batch_us;
  entry.apply_us = phases.apply_us;
  entry.relay_us = phases.relay_us;
  entry.barrier_us = phases.barrier_us;
  entry.commit_us = phases.commit_us;
  entry.total_us = PipelineMetrics::NowMicros() - batch_start;
  entry.at_us = PipelineMetrics::NowMicros();
  epoch_ring_.Push(entry);
  phase_batch_us_.Record(batch_us);
  phase_apply_us_.Record(phases.apply_us);
  phase_relay_us_.Record(phases.relay_us);
  phase_barrier_us_.Record(phases.barrier_us);
  phase_commit_us_.Record(phases.commit_us);
  return epoch.size();
}

Status DistributedBackend::DrainPending() {
  while (true) {
    SW_ASSIGN_OR_RETURN(const size_t taken, RunEpoch());
    if (taken == 0) return OkStatus();
  }
}

void DistributedBackend::PumpLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(pending_mu_);
      pending_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;
    }
    std::lock_guard<std::mutex> lock(cluster_mu_);
    auto taken_or = RunEpoch();
    if (!taken_or.ok()) {
      // An epoch failure (a worker past its recovery deadline) poisons
      // ingest but not the control surface: report and keep trying — a
      // returning worker is replayed back to health by the next attempt.
      std::fprintf(stderr, "coordinator: epoch failed: %s\n",
                   taken_or.status().ToString().c_str());
    }
  }
}

StatusOr<int> DistributedBackend::Register(const QueryGraph& query,
                                           DecompositionStrategy strategy,
                                           Timestamp window,
                                           MatchCallback callback) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  CtrlRegister reg;
  reg.expect_id = next_query_id_;
  reg.strategy = static_cast<uint8_t>(strategy);
  reg.window = window;
  reg.name = query.name();
  reg.vertex_labels.reserve(static_cast<size_t>(query.num_vertices()));
  for (int v = 0; v < query.num_vertices(); ++v) {
    reg.vertex_labels.push_back(interner_->Name(query.vertex_label(v)));
  }
  reg.edges.reserve(query.edges().size());
  for (const QueryEdge& e : query.edges()) {
    CtrlQueryEdge edge;
    edge.src = static_cast<uint8_t>(e.src);
    edge.dst = static_cast<uint8_t>(e.dst);
    edge.label = interner_->Name(e.label);
    reg.edges.push_back(std::move(edge));
  }
  // A name or label the wire cannot carry is refused here, before the
  // frame is retained: a retained frame is resent after every reconnect.
  SW_ASSIGN_OR_RETURN(const std::string frame, EncodeRegisterFrame(reg));
  SW_RETURN_IF_ERROR(DrainPending());
  for (WorkerState& w : workers_) {
    SW_RETURN_IF_ERROR(SendStateFrame(&w, frame));
  }
  // Await every ack before unsuppressing: registration is a group
  // decision, and backfill exchange items interleave with the acks.
  std::string first_error;
  for (WorkerState& w : workers_) {
    SW_ASSIGN_OR_RETURN(const CtrlFrame ack,
                        AwaitFrame(&w, CtrlType::kRegisterAck));
    if (!ack.register_ack.ok) {
      // Deterministic validation failure: every worker refused the same
      // way, no id was consumed anywhere.
      if (first_error.empty()) first_error = ack.register_ack.error;
      continue;
    }
    if (ack.register_ack.id != reg.expect_id) {
      return Status::Internal(
          StrCat("worker assigned query id ", ack.register_ack.id,
                 ", coordinator expected ", reg.expect_id));
    }
  }
  if (!first_error.empty()) {
    return Status::InvalidArgument(first_error);
  }
  // Let the distributed backfill's cross-shard traffic settle, then lift
  // suppression everywhere: matches that completed before registration
  // stay unreported, exactly like single-engine mid-stream registration.
  SW_RETURN_IF_ERROR(BarrierFixpoint());
  const std::string end_backfill = EncodeEndBackfillFrame();
  for (WorkerState& w : workers_) {
    SW_RETURN_IF_ERROR(SendStateFrame(&w, end_backfill));
  }
  QueryState state;
  state.query = query;
  state.callback = std::move(callback);
  queries_.emplace(next_query_id_, std::move(state));
  return next_query_id_++;
}

Status DistributedBackend::Unregister(int query_id) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  SW_RETURN_IF_ERROR(DrainPending());
  const auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("query ", query_id, " is not registered"));
  }
  // First barrier delivers what already completed; Unregister then stops
  // the workers; the second barrier flushes any stragglers their acks
  // pushed out, so after erase no callback can fire.
  SW_RETURN_IF_ERROR(BarrierFixpoint());
  CtrlUnregister unreg;
  unreg.query_id = query_id;
  const std::string frame = EncodeUnregisterFrame(unreg);
  for (WorkerState& w : workers_) {
    SW_RETURN_IF_ERROR(SendStateFrame(&w, frame));
  }
  SW_RETURN_IF_ERROR(BarrierFixpoint());
  queries_.erase(it);
  return OkStatus();
}

StatusOr<QueryRuntimeInfo> DistributedBackend::Info(int query_id) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  SW_RETURN_IF_ERROR(DrainPending());
  if (queries_.find(query_id) == queries_.end()) {
    return Status::NotFound(StrCat("query ", query_id, " is not registered"));
  }
  CtrlInfo info;
  info.query_id = query_id;
  const std::string frame = EncodeInfoFrame(info);
  QueryRuntimeInfo out;
  out.query_id = query_id;
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerState& w = workers_[i];
    SW_RETURN_IF_ERROR(SendControlFrame(&w, frame));
    SW_ASSIGN_OR_RETURN(const CtrlFrame ack,
                        AwaitFrame(&w, CtrlType::kInfoAck, &frame));
    if (!ack.info_ack.ok) {
      return Status::Internal(StrCat("worker ", i, ": ", ack.info_ack.error));
    }
    MergeShardQueryInfo(ack.info_ack, &out);
  }
  return out;
}

Status DistributedBackend::Feed(const StreamEdge& edge) {
  SW_RETURN_IF_ERROR(SyncLabelNames({&edge, 1}));
  std::unique_lock<std::mutex> lock(pending_mu_);
  space_cv_.wait(lock, [this] {
    return stop_ || pending_.size() < options_.max_pending_edges;
  });
  if (stop_) return Status::FailedPrecondition("backend is stopped");
  pending_.push_back(edge);
  lock.unlock();
  pending_cv_.notify_one();
  return OkStatus();
}

Status DistributedBackend::FeedBatch(const EdgeBatch& batch,
                                     size_t* rejected_out) {
  // Asynchronous ingest: admission rejections surface only in the
  // aggregate counter, per the backend contract.
  if (rejected_out != nullptr) *rejected_out = 0;
  SW_RETURN_IF_ERROR(SyncLabelNames(batch));
  std::unique_lock<std::mutex> lock(pending_mu_);
  for (const StreamEdge& edge : batch) {
    space_cv_.wait(lock, [this] {
      return stop_ || pending_.size() < options_.max_pending_edges;
    });
    if (stop_) return Status::FailedPrecondition("backend is stopped");
    pending_.push_back(edge);
  }
  lock.unlock();
  pending_cv_.notify_one();
  return OkStatus();
}

void DistributedBackend::Flush() {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  const Status drained = DrainPending();
  if (!drained.ok()) {
    std::fprintf(stderr, "coordinator: flush drain failed: %s\n",
                 drained.ToString().c_str());
    return;
  }
  const Status settled = BarrierFixpoint();
  if (!settled.ok()) {
    std::fprintf(stderr, "coordinator: flush barrier failed: %s\n",
                 settled.ToString().c_str());
  }
}

std::vector<ShardLoadSnapshot> DistributedBackend::ShardLoads() {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  if (!DrainPending().ok()) return {};
  std::vector<ShardLoadSnapshot> out;
  const std::string frame = EncodeStatsFrame();
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerState& w = workers_[i];
    if (!w.link->SendFrame(frame).ok()) continue;
    auto ack_or = AwaitFrame(&w, CtrlType::kStatsAck);
    if (!ack_or.ok()) continue;
    out.push_back(ToShardLoad(static_cast<int>(i), ack_or.value().stats_ack));
  }
  return out;
}

Status DistributedBackend::PullMetricsReport(WorkerState* w) {
  if (!w->link.has_value() || !w->link->connected()) {
    return Status::Unavailable("worker link is down");
  }
  const Status sent = w->link->SendFrame(EncodeMetricsRequestFrame());
  if (!sent.ok()) {
    w->link->Close();
    return sent;
  }
  while (true) {
    auto frame_or =
        w->link->ReadFrame(&wire_interner_, options_.metrics_timeout_ms);
    if (!frame_or.ok()) {
      // Never RecoverLink here: a scrape must not block on the 30s
      // reconnect budget. Close the link and keep the stale cache; the
      // pump's normal recovery heals the worker on its next epoch.
      w->link->Close();
      return frame_or.status();
    }
    if (frame_or.value().type == CtrlType::kMetricsReport) {
      w->report = std::move(frame_or.value().metrics_report);
      w->has_report = true;
      w->report_at_us = PipelineMetrics::NowMicros();
      return OkStatus();
    }
    SW_RETURN_IF_ERROR(HandleWorkerFrame(w, frame_or.value()));
  }
}

void DistributedBackend::RefreshReports(uint64_t now_us) {
  const uint64_t cache_us =
      static_cast<uint64_t>(options_.metrics_cache_ms) * 1000;
  for (WorkerState& w : workers_) {
    if (w.has_report && now_us - w.report_at_us < cache_us) continue;
    const Status pulled = PullMetricsReport(&w);
    if (!pulled.ok()) {
      std::fprintf(stderr, "coordinator: metrics pull from %s:%d failed: %s\n",
                   w.host.c_str(), w.port, pulled.ToString().c_str());
    }
  }
}

ClusterObsSnapshot DistributedBackend::BuildObsSnapshot(uint64_t now_us) {
  ClusterObsSnapshot snap;
  snap.epochs = epoch_ring_.total_pushed();
  snap.stale_threshold_us =
      static_cast<uint64_t>(options_.stale_report_threshold_ms) * 1000;
  snap.healthy = !workers_.empty();
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerState& w = workers_[i];
    WorkerObsSnapshot row;
    row.shard = static_cast<int>(i);
    row.host = w.host;
    row.port = w.port;
    row.connected = w.link.has_value() && w.link->connected();
    row.has_report = w.has_report;
    row.report_age_us = w.has_report ? now_us - w.report_at_us : 0;
    row.sent_state = w.sent_state;
    row.retained_frames = w.retained.size();
    if (w.has_report) {
      row.wal_seq = w.report.wal_seq;
      row.replayed_frames = w.report.replayed_frames;
      row.exchange_items_sent = w.report.exchange_items_sent;
      row.completions_sent = w.report.completions_sent;
      for (const MetricSample& s : w.report.samples) {
        if (s.name != "streamworks_stage_duration_us" ||
            s.kind != MetricSample::Kind::kHistogram) {
          continue;
        }
        for (const auto& [key, value] : s.labels) {
          if (key != "stage") continue;
          WorkerStageSummary stage;
          stage.stage = value;
          stage.count = s.histogram.total_count();
          stage.sum_us = s.histogram.sum();
          stage.p50_us = s.histogram.Quantile(0.5);
          stage.p99_us = s.histogram.Quantile(0.99);
          row.stages.push_back(std::move(stage));
        }
      }
    }
    const bool stale =
        !row.has_report || row.report_age_us > snap.stale_threshold_us;
    if (!row.connected || stale) snap.healthy = false;
    snap.workers.push_back(std::move(row));
  }
  return snap;
}

ClusterObsSnapshot DistributedBackend::ObsSnapshot(bool refresh) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  if (refresh) RefreshReports(PipelineMetrics::NowMicros());
  return BuildObsSnapshot(PipelineMetrics::NowMicros());
}

void DistributedBackend::ContributeClusterMetrics(MetricSnapshotBuilder* out) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  RefreshReports(PipelineMetrics::NowMicros());
  out->EmitCounter("streamworks_epochs_total",
                   "Distributed ingest epochs committed by the coordinator.",
                   {}, epoch_ring_.total_pushed());
  static constexpr const char* kPhaseNames[] = {"batch", "apply", "relay",
                                                "barrier", "commit"};
  const AtomicHistogram* phase_hists[] = {&phase_batch_us_, &phase_apply_us_,
                                          &phase_relay_us_, &phase_barrier_us_,
                                          &phase_commit_us_};
  for (size_t i = 0; i < 5; ++i) {
    out->EmitHistogram(
        "streamworks_epoch_phase_us",
        "Coordinator time per epoch phase in microseconds.",
        {{"phase", kPhaseNames[i]}}, phase_hists[i]->Snapshot());
  }
  out->EmitHistogram("streamworks_epoch_relay_items",
                     "Exchange items moved per barrier relay round.", {},
                     relay_items_per_round_.Snapshot());
  // Federation: merge every worker's last report additively into the
  // scrape, so /metrics families are cluster-wide sums.
  for (const WorkerState& w : workers_) {
    if (!w.has_report) continue;
    for (const MetricSample& s : w.report.samples) out->EmitSample(s);
  }
}

}  // namespace streamworks
