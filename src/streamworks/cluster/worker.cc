#include "streamworks/cluster/worker.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "streamworks/common/json_writer.h"
#include "streamworks/common/str_util.h"
#include "streamworks/net/socket.h"
#include "streamworks/obs/json_render.h"
#include "streamworks/planner/planner.h"

namespace streamworks {

namespace {

constexpr int kHandshakeTimeoutMs = 10000;

bool IsReadTimeout(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message() == "link read timed out";
}

constexpr std::string_view kFrameLogName = "frames";

std::string FrameLogDir(const std::string& data_dir) {
  return (std::filesystem::path(data_dir) / kFrameLogName).string();
}

Status SendHelloAck(PeerLink* link, const CtrlHelloAck& ack) {
  SW_ASSIGN_OR_RETURN(const std::string frame, EncodeHelloAckFrame(ack));
  return link->SendFrame(frame);
}

}  // namespace

WorkerDaemon::WorkerDaemon(WorkerOptions options)
    : options_(std::move(options)) {}

Status WorkerDaemon::Start() {
  SW_ASSIGN_OR_RETURN(listen_fd_,
                      ListenTcp(options_.host, options_.port, /*backlog=*/4));
  SW_ASSIGN_OR_RETURN(port_, BoundTcpPort(listen_fd_.get()));
  if (!options_.data_dir.empty()) {
    SW_ASSIGN_OR_RETURN(
        log_, FrameLog::Open(FrameLogDir(options_.data_dir), kFrameLogName));
  }
  // The worker's own series carry {role="worker"}: identical labels on
  // every shard, so federation's additive merge collapses them into one
  // cluster-wide series per family, disjoint from the coordinator's.
  edges_fed_ = registry_.RegisterCounter(
      "streamworks_edges_fed_total",
      "Stream edges admitted through the query service.",
      {{"role", "worker"}});
  pipeline_collector_token_ =
      RegisterPipelineCollector(&registry_, &pipeline_, {{"role", "worker"}});
  if (options_.http_port >= 0) {
    SW_ASSIGN_OR_RETURN(
        http_listen_fd_,
        ListenTcp(options_.host, options_.http_port, /*backlog=*/4));
    SW_ASSIGN_OR_RETURN(http_port_, BoundTcpPort(http_listen_fd_.get()));
    HttpHandler::Providers providers;
    providers.registry = &registry_;
    providers.pipeline = &pipeline_;
    providers.health = [this] { return RenderWorkerHealth(); };
    http_ = std::make_unique<HttpHandler>(std::move(providers));
  }
  return OkStatus();
}

Status WorkerDaemon::Serve(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    struct pollfd pfds[2] = {};
    pfds[0].fd = listen_fd_.get();
    pfds[0].events = POLLIN;
    nfds_t nfds = 1;
    if (http_listen_fd_.get() >= 0) {
      pfds[1].fd = http_listen_fd_.get();
      pfds[1].events = POLLIN;
      nfds = 2;
    }
    const int n = ::poll(pfds, nfds, options_.poll_interval_ms);
    if (n < 0 && errno != EINTR) {
      return Status::IoError(StrCat("poll: ", std::strerror(errno)));
    }
    if (n <= 0) continue;
    if (nfds == 2 && (pfds[1].revents & POLLIN) != 0) ServeHttpConnection();
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (cfd < 0) continue;
    auto link_or = PeerLink::Adopt(UniqueFd(cfd), /*duplex=*/false);
    if (!link_or.ok()) continue;
    PeerLink link = std::move(link_or).value();
    const Status session = ServeConnection(&link, stop);
    live_link_ = nullptr;
    if (session.ok()) continue;
    if (fatal_) return session;
    // A coordinator ends a session by closing its link between frames (a
    // clean DistributedBackend::Stop does); that is no failure. Other link
    // failures are expected too (the coordinator reconnects after its
    // side recovers; the accept loop is the recovery path), but worth a
    // line: a close inside a frame, a malformed frame, a failed send.
    if (link.closed_between_frames()) continue;
    std::fprintf(stderr, "worker[%d]: connection ended: %s\n", shard_index_,
                 session.ToString().c_str());
  }
  return OkStatus();
}

Status WorkerDaemon::ServeConnection(PeerLink* link,
                                     const std::atomic<bool>& stop) {
  live_link_ = link;
  SW_RETURN_IF_ERROR(Handshake(link));
  while (!stop.load(std::memory_order_relaxed)) {
    // Scrapes interleave with control frames: each loop turn drains any
    // pending HTTP connections before blocking on the link again.
    ServeHttpConnection();
    auto frame_or = link->ReadFrame(&interner_, options_.poll_interval_ms);
    if (!frame_or.ok()) {
      if (IsReadTimeout(frame_or.status())) continue;
      return frame_or.status();
    }
    const CtrlFrame& frame = frame_or.value();
    if (IsStateCtrlType(frame.type)) {
      CtrlRegisterAck ack;
      SW_RETURN_IF_ERROR(ApplyStateFrame(frame, &ack));
      SW_RETURN_IF_ERROR(FlushOutbox(link));
      if (frame.type == CtrlType::kRegister) {
        SW_ASSIGN_OR_RETURN(const std::string ack_frame,
                            EncodeRegisterAckFrame(ack));
        SW_RETURN_IF_ERROR(link->SendFrame(ack_frame));
      }
      continue;
    }
    switch (frame.type) {
      case CtrlType::kHello: {
        // A repeated Hello on a live link: answer with the current
        // cursor (the coordinator only sends one per connection, so
        // this is belt-and-braces).
        CtrlHelloAck ack;
        ack.applied_frames = applied_frames_;
        SW_RETURN_IF_ERROR(SendHelloAck(link, ack));
        break;
      }
      case CtrlType::kBarrier: {
        SW_RETURN_IF_ERROR(FlushOutbox(link));
        CtrlBarrierAck ack;
        ack.round = frame.barrier.round;
        ack.applied_frames = applied_frames_;
        SW_RETURN_IF_ERROR(link->SendFrame(EncodeBarrierAckFrame(ack)));
        break;
      }
      case CtrlType::kInfo:
        SW_RETURN_IF_ERROR(SendInfoAck(link, frame.info));
        break;
      case CtrlType::kStats:
        SW_RETURN_IF_ERROR(SendStatsAck(link));
        break;
      case CtrlType::kMetricsRequest:
        SW_RETURN_IF_ERROR(SendMetricsReport(link));
        break;
      default:
        // Acks never flow coordinator -> worker; a stray one is a peer
        // bug, not worth killing the link over.
        break;
    }
  }
  return OkStatus();
}

Status WorkerDaemon::Configure(const CtrlHello& hello) {
  if (hello.protocol != kCtrlProtocolVersion) {
    return Status::InvalidArgument(
        StrCat("protocol mismatch: coordinator speaks ", hello.protocol,
               ", worker speaks ", kCtrlProtocolVersion));
  }
  if (hello.num_shards <= 0 || hello.shard_index < 0 ||
      hello.shard_index >= hello.num_shards) {
    return Status::InvalidArgument(
        StrCat("bad shard identity ", hello.shard_index, "/",
               hello.num_shards));
  }
  if (configured_) {
    if (hello.num_shards != num_shards_ ||
        hello.shard_index != shard_index_ ||
        hello.partitioner_seed != partitioner_seed_) {
      return Status::FailedPrecondition(
          "coordinator reconnected with a different cluster identity");
    }
    return OkStatus();
  }
  num_shards_ = hello.num_shards;
  shard_index_ = hello.shard_index;
  partitioner_seed_ = hello.partitioner_seed;
  // Default EngineOptions: statistics off, re-planning off — every worker
  // (and the single-engine reference deployment) plans queries from the
  // same uninformed estimator, so the replicated SJ-Trees agree on node
  // numbering and cut vertices across processes. The pipeline sink makes
  // engine stage timings scrapeable locally and federated upward.
  EngineOptions engine_options;
  engine_options.pipeline = &pipeline_;
  engine_ = std::make_unique<StreamWorksEngine>(&interner_, engine_options);
  ShardConfig config;
  config.shard_index = shard_index_;
  config.num_shards = num_shards_;
  config.partitioner = HashModuloPartitioner(partitioner_seed_);
  config.exchange = &exchange_;
  engine_->EnableShardMode(config);
  configured_ = true;
  return OkStatus();
}

Status WorkerDaemon::Handshake(PeerLink* link) {
  auto hello_or = link->ReadFrame(&interner_, kHandshakeTimeoutMs);
  SW_RETURN_IF_ERROR(hello_or.status());
  if (hello_or.value().type != CtrlType::kHello) {
    return Status::InvalidArgument("expected Hello as the first frame");
  }
  const CtrlHello hello = hello_or.value().hello;
  if (const Status refused = Configure(hello); !refused.ok()) {
    // Tell the coordinator why before the session ends, so its Start or
    // reconnect fails with this reason rather than a closed link.
    CtrlHelloAck ack;
    ack.error = refused.ToString();
    SendHelloAck(link, ack).ok();  // best effort: `refused` is the error
    return refused;
  }

  if (!replayed_) {
    replayed_ = true;
    if (log_ != nullptr && log_->next_seq() > 0) {
      // Deferred startup replay: re-apply the durable state stream. The
      // engine regenerates the dead incarnation's output stream in the
      // same order; the coordinator's cursor says how much of it it
      // already received, so exactly the excess is (re)sent below.
      replaying_ = true;
      replay_exchange_skip_ = hello.exchange_items_received;
      const auto replayed = FrameLog::Replay(
          FrameLogDir(options_.data_dir), kFrameLogName, /*from_seq=*/0,
          [&](const LogRecord& record, uint64_t seq) -> Status {
            const CtrlDecodeResult decoded = DecodeCtrlFrame(
                record.payload, kDefaultMaxFrameBodyBytes, &interner_);
            if (decoded.status != FrameDecodeStatus::kOk ||
                decoded.frame_bytes != record.payload.size()) {
              return Status::DataLoss(
                  StrCat("undecodable frame log record ", seq, ": ",
                         decoded.error));
            }
            SW_RETURN_IF_ERROR(ApplyStateFrame(decoded.frame, nullptr));
            ++counters_.replayed_frames;
            return FlushOutbox(nullptr);
          });
      replaying_ = false;
      if (!replayed.ok()) {
        fatal_ = true;
        pending_out_.clear();
        return replayed.status();
      }
      applied_frames_ = log_->next_seq();
      counters_.frames_applied = applied_frames_;
    }
  }

  CtrlHelloAck ack;
  ack.applied_frames = applied_frames_;
  SW_RETURN_IF_ERROR(SendHelloAck(link, ack));
  // Outputs the crash swallowed: regenerated during replay, beyond the
  // coordinator's cursor, never delivered. Send them now, before any
  // new frames produce new outputs, to preserve the stream's order.
  for (const std::string& frame : pending_out_) {
    SW_RETURN_IF_ERROR(link->SendFrame(frame));
  }
  pending_out_.clear();
  return OkStatus();
}

Status WorkerDaemon::ApplyStateFrame(const CtrlFrame& frame,
                                     CtrlRegisterAck* register_ack_out) {
  if (frame.type == CtrlType::kExchange) {
    for (const CtrlExchangeItem& item : frame.exchange.items) {
      if (item.item.kind == ExchangeKind::kComplete) {
        return Status::InvalidArgument(
            "exchange frame carries a completion; completions only flow "
            "up to the coordinator");
      }
    }
  }
  if (log_ != nullptr && !replaying_) {
    // Log before apply: a crash after the append replays the frame; a
    // crash before it leaves the coordinator's resend buffer responsible.
    // The record is the frame re-encoded exactly as the wire carried it.
    SW_ASSIGN_OR_RETURN(const std::string record,
                        EncodeCtrlFrame(frame, InternerNames(interner_)));
    SW_RETURN_IF_ERROR(log_->Append(record));
  }
  switch (frame.type) {
    case CtrlType::kRegister:
      SW_RETURN_IF_ERROR(ApplyRegister(frame.reg, register_ack_out));
      break;
    case CtrlType::kEndBackfill:
      engine_->set_suppress_completions(false);
      break;
    case CtrlType::kUnregister:
      // NotFound (already unregistered) is benign on the resend path.
      engine_->UnregisterQuery(frame.unregister.query_id).ok();
      break;
    case CtrlType::kBatch:
      SW_RETURN_IF_ERROR(ApplyBatch(frame.batch));
      break;
    case CtrlType::kExchange:
      SW_RETURN_IF_ERROR(ApplyExchange(frame.exchange));
      break;
    case CtrlType::kCommit:
      engine_->AdvanceWatermark(frame.commit.watermark);
      break;
    default:
      return Status::Internal("non-state frame reached ApplyStateFrame");
  }
  ++applied_frames_;
  counters_.frames_applied = applied_frames_;
  return OkStatus();
}

Status WorkerDaemon::ApplyRegister(const CtrlRegister& reg,
                                   CtrlRegisterAck* ack_out) {
  // Suppress from here until the coordinator's EndBackfill: both the
  // local backfill below and the backfill exchange items relayed from
  // peer shards re-derive matches that completed in the past.
  engine_->set_suppress_completions(true);
  QueryGraphBuilder builder(&interner_);
  for (const std::string& label : reg.vertex_labels) {
    builder.AddVertex(label);
  }
  for (const CtrlQueryEdge& edge : reg.edges) {
    builder.AddEdge(edge.src, edge.dst, edge.label);
  }
  auto built = builder.Build(reg.name);
  StatusOr<int> registered =
      built.ok()
          ? engine_->RegisterQuery(
                built.value(),
                static_cast<DecompositionStrategy>(reg.strategy), reg.window,
                [this](const CompleteMatch& cm) { OnCompletion(cm); })
          : StatusOr<int>(built.status());
  if (!registered.ok()) {
    // Validation failures are deterministic — every worker refuses the
    // same registration the same way, no engine id is consumed, and the
    // coordinator surfaces the error to the tenant. Unsuppress now: no
    // EndBackfill will follow a failed registration.
    engine_->set_suppress_completions(false);
    if (ack_out != nullptr) {
      ack_out->id = reg.expect_id;
      ack_out->ok = false;
      ack_out->error = registered.status().ToString();
    }
    return OkStatus();
  }
  if (registered.value() != reg.expect_id) {
    fatal_ = true;
    return Status::Internal(
        StrCat("registration id diverged: coordinator expects ",
               reg.expect_id, ", engine assigned ", registered.value(),
               " (state streams out of sync)"));
  }
  engine_->BackfillOwnedEdges(registered.value());
  if (ack_out != nullptr) {
    ack_out->id = registered.value();
    ack_out->ok = true;
  }
  return OkStatus();
}

Status WorkerDaemon::ApplyBatch(const CtrlBatch& batch) {
  edges_fed_->Increment(batch.edges.size());
  for (const CtrlShardEdge& e : batch.edges) {
    // Admission ran at the coordinator (group-consistent label and time
    // checks); a rejection here would mean divergent state streams, which
    // the engine counts rather than fails on.
    engine_->ProcessShardEdge(e.edge, e.global_id, e.run_anchors).ok();
  }
  return OkStatus();
}

Status WorkerDaemon::ApplyExchange(const CtrlExchange& exchange) {
  for (const CtrlExchangeItem& item : exchange.items) {
    engine_->HandleExchangeItem(item.item);
  }
  return OkStatus();
}

Status WorkerDaemon::FlushOutbox(PeerLink* link) {
  if (exchange_.empty()) return OkStatus();
  auto items = exchange_.Drain();
  std::vector<CtrlExchangeItem> out;
  out.reserve(items.size());
  for (auto& [dest, item] : items) {
    if (replaying_ && replay_exchange_skip_ > 0) {
      --replay_exchange_skip_;
      continue;
    }
    if (item.kind == ExchangeKind::kComplete) {
      ++counters_.completions_sent;
    } else {
      ++counters_.exchange_items_sent;
    }
    CtrlExchangeItem wire;
    wire.dest = dest;
    wire.item = std::move(item);
    out.push_back(std::move(wire));
  }
  SW_ASSIGN_OR_RETURN(std::vector<std::string> frames,
                      EncodeExchangeFrames(out, InternerNames(interner_)));
  for (std::string& frame : frames) {
    if (replaying_) {
      pending_out_.push_back(std::move(frame));
    } else {
      SW_RETURN_IF_ERROR(link->SendFrame(frame));
    }
  }
  return OkStatus();
}

void WorkerDaemon::OnCompletion(const CompleteMatch& cm) {
  ExchangeItem item;
  item.kind = ExchangeKind::kComplete;
  item.query_id = cm.query_id;
  item.match = MatchExchange::ToWire(engine_->graph(), cm.match);
  exchange_.Send(kCoordinatorDest, std::move(item));
}

Status WorkerDaemon::SendInfoAck(PeerLink* link, const CtrlInfo& info) {
  CtrlInfoAck ack;
  if (engine_ != nullptr && engine_->has_query(info.query_id)) {
    static_cast<QueryRuntimeInfo&>(ack) = engine_->query_info(info.query_id);
    ack.ok = true;
  } else {
    ack.error = "unknown or unregistered query id";
  }
  SW_ASSIGN_OR_RETURN(const std::string frame, EncodeInfoAckFrame(ack));
  return link->SendFrame(frame);
}

Status WorkerDaemon::SendStatsAck(PeerLink* link) {
  return link->SendFrame(EncodeStatsAckFrame(
      engine_ != nullptr ? engine_->shard_stats() : ShardStatsSnapshot{}));
}

Status WorkerDaemon::SendMetricsReport(PeerLink* link) {
  CtrlMetricsReport report;
  report.wal_seq = log_ != nullptr ? log_->next_seq() : applied_frames_;
  report.replayed_frames = counters_.replayed_frames;
  report.exchange_items_sent = counters_.exchange_items_sent;
  report.completions_sent = counters_.completions_sent;
  report.samples = registry_.ExportSamples();
  SW_ASSIGN_OR_RETURN(const std::string frame,
                      EncodeMetricsReportFrame(report));
  return link->SendFrame(frame);
}

std::string WorkerDaemon::RenderWorkerHealth() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String(fatal_ ? "degraded" : "ok");
  w.Key("role");
  w.String("worker");
  w.Key("shard");
  w.Int(shard_index_);
  w.Key("configured");
  w.Bool(configured_);
  w.Key("frames_applied");
  w.Uint(applied_frames_);
  w.Key("wal_seq");
  w.Uint(log_ != nullptr ? log_->next_seq() : applied_frames_);
  w.Key("replayed_frames");
  w.Uint(counters_.replayed_frames);
  w.Key("coordinator_connected");
  w.Bool(live_link_ != nullptr);
  w.EndObject();
  std::string out = w.TakeString();
  out.push_back('\n');
  return out;
}

void WorkerDaemon::ServeHttpConnection() {
  if (http_listen_fd_.get() < 0) return;
  while (true) {
    struct pollfd pfd {};
    pfd.fd = http_listen_fd_.get();
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 0) <= 0 || (pfd.revents & POLLIN) == 0) return;
    const int cfd = ::accept(http_listen_fd_.get(), nullptr, nullptr);
    if (cfd < 0) return;
    const UniqueFd conn(cfd);
    // Bounded single-request read: a slow or bogus scraper is dropped
    // rather than allowed to stall the (single) serve thread.
    std::string buf;
    HttpRequest request;
    size_t consumed = 0;
    HttpParseResult parsed = HttpParseResult::kNeedMore;
    const uint64_t deadline_us = PipelineMetrics::NowMicros() + 2'000'000;
    while (parsed == HttpParseResult::kNeedMore && buf.size() < 16 * 1024 &&
           PipelineMetrics::NowMicros() < deadline_us) {
      struct pollfd rp {};
      rp.fd = cfd;
      rp.events = POLLIN;
      if (::poll(&rp, 1, 100) <= 0) continue;
      char chunk[1024];
      const ssize_t got = ::recv(cfd, chunk, sizeof chunk, 0);
      if (got <= 0) break;
      buf.append(chunk, static_cast<size_t>(got));
      parsed = ParseHttpRequest(buf, &request, &consumed);
    }
    HttpResponse response;
    if (parsed == HttpParseResult::kComplete) {
      response = http_->Handle(request);
    } else if (parsed == HttpParseResult::kBad) {
      response.status = 400;
      response.body = "bad request\n";
    } else {
      continue;  // incomplete head: nothing useful to answer
    }
    const std::string wire = EncodeHttpResponse(response);
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t sent =
          ::send(cfd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (sent <= 0) break;
      off += static_cast<size_t>(sent);
    }
  }
}

}  // namespace streamworks
