#include "streamworks/net/event_loop.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "streamworks/common/logging.h"
#include "streamworks/common/str_util.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {

namespace {

constexpr std::string_view kTerminator = ".\n";

/// Matches the stream pump pops per queue-lock acquisition while
/// coalescing a drain pass (one lock + one write per chunk, not per
/// match).
constexpr size_t kPumpDrainChunk = 256;

/// One framed error response (used for protocol-level refusals that never
/// reach the interpreter).
std::string ErrFrame(std::string_view message) {
  return "ERR " + std::string(message) + "\n" + std::string(kTerminator);
}

}  // namespace

EventLoop::EventLoop(int index, QueryService* service, Interner* interner,
                     const ServerOptions* options, ServerCounters* counters,
                     std::mutex* control_mu, HttpHandler* http_handler,
                     const std::atomic<bool>* stopping)
    : index_(index),
      service_(service),
      interner_(interner),
      options_(options),
      counters_(counters),
      control_mu_(control_mu),
      http_handler_(http_handler),
      stopping_(stopping) {}

EventLoop::~EventLoop() {
  // The owning SocketServer joins both threads before destruction; the
  // asserts document that contract rather than papering over it.
  SW_CHECK(!io_thread_.joinable());
  SW_CHECK(!pump_thread_.joinable());
}

Status EventLoop::Start() {
  SW_ASSIGN_OR_RETURN(epoll_fd_, CreateEpoll());
  SW_ASSIGN_OR_RETURN(auto pipe_ends, MakeWakePipe());
  wake_read_ = std::move(pipe_ends.first);
  wake_write_ = std::move(pipe_ends.second);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_read_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_read_.get(), &ev) <
      0) {
    return Status::IoError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  pump_thread_ = std::thread([this] { PumpLoop(); });
  return OkStatus();
}

void EventLoop::Adopt(UniqueFd fd, bool http) {
  auto conn = std::make_shared<ServerConnection>(std::move(fd));
  if (http) {
    // HTTP connections have no interpreter session: one request, one
    // response, close. They still ride the owning loop and its limits.
    conn->http = true;
  } else {
    conn->out = std::make_unique<std::ostringstream>();
    conn->interpreter = std::make_unique<CommandInterpreter>(
        service_, interner_, conn->out.get());
    if (options_->snapshot_hook) {
      conn->interpreter->set_snapshot_hook(options_->snapshot_hook);
    }
    if (options_->pipeline != nullptr) {
      conn->interpreter->set_pipeline_metrics(options_->pipeline);
    }
    std::weak_ptr<ServerConnection> weak = conn;
    conn->interpreter->set_stream_hook(
        [this, weak](bool enable, std::string_view session,
                     std::string_view sub, int session_id,
                     int subscription_id) {
          auto locked = weak.lock();
          if (locked == nullptr) {
            return Status::FailedPrecondition("connection is gone");
          }
          return HandleStream(locked, enable, session, sub, session_id,
                              subscription_id);
        });
    // kBlock over a socket is only sound with the connection as its live
    // consumer: un-streamed, the queue's sole drainer would be the very
    // IO thread its producer blocks (three protocol lines could wedge
    // every tenant on this loop). Auto-upgrade such subscriptions to push
    // streaming — on SUBMIT, and equally on ATTACH (a recovered kBlock
    // subscription comes back paused, and its RESUME must already find
    // the pump draining, or crash recovery would reintroduce the same
    // wedge).
    const auto auto_stream_block = [this, weak](std::string_view session,
                                                std::string_view sub,
                                                int session_id,
                                                int subscription_id) {
      auto locked = weak.lock();
      if (locked == nullptr) return;
      std::shared_ptr<ResultQueue> handle =
          service_->queue_handle(session_id, subscription_id);
      if (handle == nullptr || handle->policy() != OverflowPolicy::kBlock) {
        return;
      }
      HandleStream(locked, /*enable=*/true, session, sub, session_id,
                   subscription_id)
          .ok();
    };
    conn->interpreter->set_submit_hook(
        [auto_stream_block](std::string_view session, std::string_view sub,
                            int session_id, int subscription_id,
                            const SubmitOptions&) {
          auto_stream_block(session, sub, session_id, subscription_id);
        });
    conn->interpreter->set_attach_hook(auto_stream_block);
  }
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    pending_.push_back(std::move(conn));
  }
  Wake();
}

void EventLoop::Wake() {
  const char byte = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

void EventLoop::NotifyPump() {
  std::lock_guard<std::mutex> lock(pump_mu_);
  pump_cv_.notify_all();
}

void EventLoop::JoinIo() {
  if (io_thread_.joinable()) io_thread_.join();
}

void EventLoop::StopPump() {
  pump_stop_.store(true, std::memory_order_release);
  NotifyPump();
  if (pump_thread_.joinable()) pump_thread_.join();
}

std::vector<std::shared_ptr<ServerConnection>> EventLoop::TakeConnections() {
  std::vector<std::shared_ptr<ServerConnection>> out;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) out.push_back(std::move(conn));
    conns_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    for (auto& conn : pending_) out.push_back(std::move(conn));
    pending_.clear();
    dirty_.clear();
  }
  return out;
}

size_t EventLoop::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void EventLoop::IoLoop() {
  std::array<epoll_event, 128> events;
  while (!stopping_->load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()),
                               /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      SW_LOG(Error) << "epoll_wait(loop " << index_
                    << "): " << std::strerror(errno);
      break;
    }
    if (stopping_->load(std::memory_order_acquire)) break;
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<size_t>(i)];
      if (ev.data.fd == wake_read_.get()) {
        char buf[64];
        while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      std::shared_ptr<ServerConnection> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        const auto it = conns_.find(ev.data.fd);
        if (it == conns_.end()) continue;  // closed earlier this pass
        conn = it->second;
      }
      {
        std::lock_guard<std::mutex> lock(conn->io_mu);
        if (conn->open && (ev.events & EPOLLOUT)) FlushWritesLocked(*conn);
        if (ev.events & EPOLLERR) conn->open = false;
      }
      if (ev.events & (EPOLLIN | EPOLLHUP)) {
        HandleReadable(conn);  // reads, then advances (and may close)
      } else {
        // A write drain may have made room for lines parked behind a
        // full write buffer; the EOF/BYE finish rules also live here.
        AdvanceConnection(conn);
      }
      UpdateInterest(conn);
    }
    // Adoptees and pump-flagged connections arrive through the handoff
    // queues rather than epoll events.
    DrainHandoffQueues();
  }
}

void EventLoop::DrainHandoffQueues() {
  std::vector<std::shared_ptr<ServerConnection>> pending;
  std::vector<std::shared_ptr<ServerConnection>> dirty;
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    pending.swap(pending_);
    dirty.swap(dirty_);
  }
  for (auto& conn : pending) {
    const int fd = conn->fd.get();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
      SW_LOG(Warning) << "epoll_ctl(add): " << std::strerror(errno);
      {
        std::lock_guard<std::mutex> lock(conn->io_mu);
        conn->open = false;
      }
      CloseConnection(conn);
      continue;
    }
    conn->epoll_mask = EPOLLIN;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace(fd, std::move(conn));
  }
  for (const auto& conn : dirty) {
    AdvanceConnection(conn);
    UpdateInterest(conn);
  }
}

void EventLoop::UpdateInterest(
    const std::shared_ptr<ServerConnection>& conn) {
  std::lock_guard<std::mutex> lock(conn->io_mu);
  if (!conn->open || !conn->fd.valid()) return;
  // Response-path backpressure: a connection sitting on more unsent
  // response bytes than the high-water mark stops being read from (and so
  // stops being executed for) until its reader drains it — TCP flow
  // control then pushes back on the sender.
  uint32_t want = 0;
  if (conn->wbuf.size() < options_->write_high_water) want |= EPOLLIN;
  if (!conn->wbuf.empty()) want |= EPOLLOUT;
  if (want == conn->epoll_mask) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev) ==
      0) {
    conn->epoll_mask = want;
  }
}

void EventLoop::HandleReadable(
    const std::shared_ptr<ServerConnection>& conn) {
  // Reads and line assembly are IO-thread-only; io_mu is taken just for
  // buffer appends inside ExecuteLine and for the EOF/open flips.
  // 64KB per read: a pipelined burst (text lines or FEEDB frames) should
  // cost one syscall per tens of KB, not one per 4KB.
  char buf[65536];
  while (true) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(conn->io_mu);
      if (!conn->open) return;
      fd = conn->fd.get();
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      conn->rbuf.append(buf, static_cast<size_t>(n));
      counters_->bytes_in.fetch_add(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // n == 0 (orderly EOF) or a hard error: the peer is done sending.
    std::lock_guard<std::mutex> lock(conn->io_mu);
    conn->read_eof = true;
    break;
  }
  AdvanceConnection(conn);
}

void EventLoop::AdvanceConnection(
    const std::shared_ptr<ServerConnection>& conn) {
  if (conn->http) {
    AdvanceHttp(conn);
    return;
  }
  // Consume complete protocol units — text lines and binary FEEDB frames,
  // demultiplexed on the frame-magic lead byte (0xFB can never begin an
  // ASCII command) — via an offset, compacting once per pass: a pipelined
  // burst of thousands of units must not pay a front-erase memmove each.
  // The response path's backpressure valve sits here: once unsent
  // responses pass the high-water mark, stop executing (and, via the
  // epoll interest mask, stop reading) until the client drains.
  size_t consumed = 0;
  {
    // Locked: the pump thread reads input_parked to decide whether a
    // draining write buffer should hand the connection back for unpark.
    std::lock_guard<std::mutex> lock(conn->io_mu);
    conn->input_parked = false;
  }
  while (consumed < conn->rbuf.size()) {
    {
      std::lock_guard<std::mutex> lock(conn->io_mu);
      if (!conn->open || conn->closing) break;
      if (conn->wbuf.size() >= options_->write_high_water) {
        conn->input_parked = true;  // complete units may be waiting
        break;
      }
    }
    // Discard the remainder of a refused oversized frame; the length
    // prefix tells us exactly how much, so the stream stays in sync.
    if (conn->skip_bytes > 0) {
      const size_t n =
          std::min(conn->skip_bytes, conn->rbuf.size() - consumed);
      consumed += n;
      conn->skip_bytes -= n;
      continue;
    }
    const std::string_view rest(conn->rbuf.data() + consumed,
                                conn->rbuf.size() - consumed);
    if (IsFrameStart(rest)) {
      PipelineMetrics* const pipeline = options_->pipeline;
      const uint64_t decode_t0 =
          pipeline != nullptr ? PipelineMetrics::NowMicros() : 0;
      FrameDecodeResult decoded =
          DecodeFeedFrame(rest, options_->max_frame_body_bytes, interner_);
      if (decoded.status == FrameDecodeStatus::kNeedMore) break;
      if (decoded.status == FrameDecodeStatus::kOk) {
        if (pipeline != nullptr) {
          pipeline->Record(PipelineStage::kFrameDecode,
                           PipelineMetrics::NowMicros() - decode_t0, -1, -1,
                           /*detail=*/decoded.batch.size());
        }
        consumed += decoded.frame_bytes;
        ExecuteFrame(conn, decoded.batch);
        continue;
      }
      // Oversized or malformed: refuse with ERR. With a decodable length
      // prefix the frame's bytes are skipped and the connection
      // survives; a corrupt magic leaves no way back into sync.
      counters_->protocol_errors.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(conn->io_mu);
        conn->wbuf += ErrFrame(decoded.error);
      }
      if (decoded.frame_bytes == 0) {
        std::lock_guard<std::mutex> lock(conn->io_mu);
        FlushWritesLocked(*conn);
        conn->open = false;
        break;
      }
      const size_t available = std::min(decoded.frame_bytes, rest.size());
      consumed += available;
      conn->skip_bytes = decoded.frame_bytes - available;
      continue;
    }
    const size_t pos = conn->rbuf.find('\n', consumed);
    if (pos == std::string::npos) break;
    std::string line = conn->rbuf.substr(consumed, pos - consumed);
    consumed = pos + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ExecuteLine(conn, line);
  }
  conn->rbuf.erase(0, consumed);
  if (conn->rbuf.size() > options_->max_line_bytes &&
      conn->skip_bytes == 0 &&      // pending discard is not a line
      !IsFrameStart(conn->rbuf) &&  // a buffering frame is length-framed
      conn->rbuf.find('\n') == std::string::npos) {
    counters_->protocol_errors.fetch_add(1);
    std::lock_guard<std::mutex> lock(conn->io_mu);
    conn->wbuf += ErrFrame("line exceeds " +
                           std::to_string(options_->max_line_bytes) +
                           " bytes");
    FlushWritesLocked(*conn);
    conn->open = false;
  }
  bool failed;
  {
    std::lock_guard<std::mutex> lock(conn->io_mu);
    if (conn->open) FlushWritesLocked(*conn);
    // A BYE whose response already drained has nothing left to wait for.
    if (conn->closing && conn->wbuf.empty()) conn->open = false;
    if (conn->read_eof && conn->open && !conn->closing &&
        !conn->input_parked) {
      // The peer finished sending and nothing executable was parked, so
      // whatever remains buffered can never complete. A partial FEEDB
      // frame at EOF is a protocol error worth reporting before the
      // close; a partial (or absent) text line keeps the silent
      // half-close contract (printf | nc). Responses the socket wouldn't
      // take yet are flushed by EPOLLOUT before the orderly close; only
      // an empty write buffer closes immediately.
      if (conn->skip_bytes > 0 || IsFrameStart(conn->rbuf)) {
        counters_->protocol_errors.fetch_add(1);
        conn->wbuf += ErrFrame("truncated binary frame at EOF");
        FlushWritesLocked(*conn);
      }
      if (conn->wbuf.empty()) {
        conn->open = false;
      } else {
        conn->closing = true;
      }
    }
    failed = !conn->open;
  }
  if (failed) CloseConnection(conn);
}

void EventLoop::AdvanceHttp(const std::shared_ptr<ServerConnection>& conn) {
  // rbuf is IO-thread-only, exactly like the line protocol's. At most
  // one request is answered per connection (Connection: close), so a
  // pipelined second request is simply never parsed.
  HttpResponse response;
  bool respond = false;
  if (!conn->closing) {
    HttpRequest request;
    size_t consumed = 0;
    switch (ParseHttpRequest(conn->rbuf, &request, &consumed)) {
      case HttpParseResult::kComplete: {
        conn->rbuf.erase(0, consumed);
        // The handler's providers make control-plane calls (Snapshot,
        // QueryInfos); serialize them under the control mutex like every
        // interpreter call. io_mu is not held, which is exactly the
        // contract they need.
        std::lock_guard<std::mutex> control(*control_mu_);
        response = http_handler_ != nullptr
                       ? http_handler_->Handle(request)
                       : HttpResponse{503, "text/plain; charset=utf-8",
                                      "no handler\n"};
        counters_->http_requests.fetch_add(1);
        respond = true;
        break;
      }
      case HttpParseResult::kNeedMore:
        if (conn->rbuf.size() > options_->max_line_bytes) {
          counters_->protocol_errors.fetch_add(1);
          response = HttpResponse{400, "text/plain; charset=utf-8",
                                  "request head too large\n"};
          respond = true;
        }
        break;
      case HttpParseResult::kBad:
        counters_->protocol_errors.fetch_add(1);
        response = HttpResponse{400, "text/plain; charset=utf-8",
                                "malformed request\n"};
        respond = true;
        break;
    }
  }
  bool failed;
  {
    std::lock_guard<std::mutex> lock(conn->io_mu);
    if (respond && conn->open) {
      conn->wbuf += EncodeHttpResponse(response);
      conn->closing = true;  // reuses the BYE drain-then-close machinery
    }
    if (conn->open) FlushWritesLocked(*conn);
    if (conn->closing && conn->wbuf.empty()) conn->open = false;
    // EOF before a complete request head: nothing to answer.
    if (conn->read_eof && conn->open && !conn->closing) conn->open = false;
    failed = !conn->open;
  }
  if (failed) CloseConnection(conn);
}

void EventLoop::ExecuteLine(const std::shared_ptr<ServerConnection>& conn,
                            std::string_view line) {
  const std::string_view stripped = StripWhitespace(line);
  if (stripped == "BYE") {
    counters_->lines_executed.fetch_add(1);
    std::lock_guard<std::mutex> lock(conn->io_mu);
    conn->wbuf += "OK bye\n";
    conn->wbuf += kTerminator;
    conn->closing = true;
    FlushWritesLocked(*conn);
    return;
  }

  // The interpreter (and through it every QueryService control-plane
  // call) runs under the control mutex — the serialization that keeps the
  // service's control plane single-file across loops — and without io_mu
  // held: FLUSH / kBlock deliveries may park this thread, and the pump
  // must still be able to drain this connection.
  conn->out->str("");
  Status status = OkStatus();
  {
    std::lock_guard<std::mutex> control(*control_mu_);
    status = conn->interpreter->ExecuteLine(line);
  }
  counters_->lines_executed.fetch_add(1);
  std::string payload = conn->out->str();

  std::lock_guard<std::mutex> lock(conn->io_mu);
  if (!conn->open) return;
  conn->wbuf += payload;
  if (!status.ok()) {
    // Unlike a scripted fixture, a network session survives its typos:
    // report and keep the connection (and its subscriptions) alive.
    counters_->protocol_errors.fetch_add(1);
    conn->wbuf += "ERR " + status.ToString() + "\n";
  }
  conn->wbuf += kTerminator;
  FlushWritesLocked(*conn);
}

void EventLoop::ExecuteFrame(const std::shared_ptr<ServerConnection>& conn,
                             const EdgeBatch& batch) {
  // Like ExecuteLine, the interpreter (and the backend FeedBatch under
  // it) runs under the control mutex and without io_mu held — a kBlock
  // delivery inside the batch may park this thread, and the pump must
  // still drain this connection.
  conn->out->str("");
  Status status = OkStatus();
  {
    std::lock_guard<std::mutex> control(*control_mu_);
    status = conn->interpreter->ExecuteBatch(batch);
  }
  counters_->frames_executed.fetch_add(1);
  counters_->batch_edges_in.fetch_add(batch.size());
  std::string payload = conn->out->str();

  std::lock_guard<std::mutex> lock(conn->io_mu);
  if (!conn->open) return;
  conn->wbuf += payload;
  if (!status.ok()) {
    counters_->protocol_errors.fetch_add(1);
    conn->wbuf += "ERR " + status.ToString() + "\n";
  }
  conn->wbuf += kTerminator;
  FlushWritesLocked(*conn);
}

Status EventLoop::HandleStream(const std::shared_ptr<ServerConnection>& conn,
                               bool enable, std::string_view session,
                               std::string_view sub, int session_id,
                               int subscription_id) {
  const std::string label = std::string(session) + "." + std::string(sub);
  if (!enable) {
    std::lock_guard<std::mutex> lock(conn->io_mu);
    for (size_t i = 0; i < conn->streams.size(); ++i) {
      if (conn->streams[i].label != label) continue;
      if (std::shared_ptr<ResultQueue> queue = conn->streams[i].queue.lock();
          queue != nullptr && queue->policy() == OverflowPolicy::kBlock &&
          !queue->closed()) {
        return Status::FailedPrecondition(
            "a block-policy subscription must stay streamed on the "
            "socket frontend (its producer would wedge the shared "
            "control thread with no consumer); DETACH it instead");
      }
      conn->streams.erase(conn->streams.begin() + i);
      active_streams_.fetch_sub(1);
      return OkStatus();
    }
    return Status::NotFound("not streaming: " + label);
  }
  std::shared_ptr<ResultQueue> handle =
      service_->queue_handle(session_id, subscription_id);
  if (handle == nullptr) {
    return Status::NotFound("subscription has no queue: " + label);
  }
  std::lock_guard<std::mutex> lock(conn->io_mu);
  for (ServerConnection::Stream& s : conn->streams) {
    if (s.label == label) {
      // Same name, possibly a new subscription (DETACH + re-SUBMIT frees
      // the name): point the stream at the current queue rather than
      // leaving a stale handle the pump is about to END.
      s.queue = handle;
      return OkStatus();
    }
  }
  conn->streams.push_back(ServerConnection::Stream{label, handle});
  active_streams_.fetch_add(1);
  {
    std::lock_guard<std::mutex> pump_lock(pump_mu_);
    pump_cv_.notify_all();
  }
  return OkStatus();
}

bool EventLoop::PumpConnection(
    const std::shared_ptr<ServerConnection>& conn) {
  PipelineMetrics* const pipeline = options_->pipeline;
  const uint64_t flush_t0 =
      pipeline != nullptr ? PipelineMetrics::NowMicros() : 0;
  std::lock_guard<std::mutex> lock(conn->io_mu);
  if (!conn->open) return false;
  std::vector<CompleteMatch> drained;
  bool pushed_any = false;
  for (size_t i = 0; i < conn->streams.size();) {
    ServerConnection::Stream& stream = conn->streams[i];
    bool ended = false;
    // Write-buffer high-water is the backpressure valve: above it we stop
    // draining, the ResultQueue fills, and its own overflow policy (block
    // the producer / drop oldest / drop newest) takes over upstream.
    // During shutdown the valve opens fully — a kBlock producer must be
    // freed even if its slow reader never collects the bytes.
    const size_t high_water = stopping_->load(std::memory_order_acquire)
                                  ? std::numeric_limits<size_t>::max()
                                  : options_->write_high_water;
    while (conn->wbuf.size() < high_water) {
      std::shared_ptr<ResultQueue> queue = stream.queue.lock();
      if (queue == nullptr) {  // reclaimed under us
        ended = true;
        break;
      }
      // Coalesced drain: one queue-lock round-trip pops a whole chunk,
      // which is then formatted into wbuf and flushed below in a single
      // write — not one lock and one send per EVENT line.
      drained.clear();
      const size_t n = queue->DrainUpTo(&drained, kPumpDrainChunk);
      if (n > 0) {
        for (const CompleteMatch& cm : drained) {
          conn->wbuf += "EVENT MATCH ";
          conn->wbuf += stream.label;
          conn->wbuf += " completed_at=";
          conn->wbuf += std::to_string(cm.completed_at);
          conn->wbuf += ' ';
          // External-id rendering, pre-computed by the delivery callback:
          // byte-identical for the same match whether the backend is one
          // engine, a sharded group, or a coordinator fronting worker
          // daemons — and no graph dereference on this thread, which
          // races live ingest.
          conn->wbuf += cm.rendered;
          conn->wbuf += '\n';
        }
        counters_->events_pushed.fetch_add(n);
        pushed_any = true;
        continue;
      }
      if (queue->closed() && queue->size() == 0) ended = true;
      break;
    }
    if (ended) {
      conn->wbuf += "EVENT END " + stream.label + "\n";
      conn->streams.erase(conn->streams.begin() + i);
      active_streams_.fetch_sub(1);
    } else {
      ++i;
    }
  }
  if (pushed_any) {
    counters_->pump_flushes.fetch_add(1);
    pump_flushes_.fetch_add(1, std::memory_order_relaxed);
    // Only drain passes that moved matches count as a flush; idle ticks
    // would drown the histogram in zeros.
    if (pipeline != nullptr) {
      pipeline->Record(PipelineStage::kDeliveryFlush,
                       PipelineMetrics::NowMicros() - flush_t0);
    }
  }
  if (!FlushWritesLocked(*conn)) return false;
  return conn->open;
}

bool EventLoop::FlushWritesLocked(ServerConnection& conn) {
  // Send from an offset and erase the consumed prefix once: one memmove
  // per flush, not one per partial send.
  size_t sent = 0;
  bool fatal = false;
  while (sent < conn.wbuf.size()) {
    const ssize_t n = ::send(conn.fd.get(), conn.wbuf.data() + sent,
                             conn.wbuf.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      counters_->bytes_out.fetch_add(static_cast<uint64_t>(n));
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    fatal = true;  // EPIPE / ECONNRESET / anything else
    break;
  }
  conn.wbuf.erase(0, sent);
  if (fatal) {
    conn.open = false;
    return false;
  }
  if (conn.wbuf.empty() && conn.closing) {  // BYE fully flushed
    conn.open = false;
    return false;
  }
  return true;
}

void EventLoop::CloseConnection(
    const std::shared_ptr<ServerConnection>& conn, bool preserve_sessions) {
  int fd_key = -1;
  {
    std::lock_guard<std::mutex> lock(conn->io_mu);
    if (!conn->fd.valid()) return;  // already torn down
    FlushWritesLocked(*conn);       // best effort (BYE responses etc.)
    conn->open = false;
    active_streams_.fetch_sub(static_cast<int>(conn->streams.size()));
    conn->streams.clear();
    fd_key = conn->fd.get();
    conn->fd.reset();  // closing the fd also drops its epoll registration
  }
  // Control-plane reclamation: a vanished tenant's sessions close, their
  // subscriptions detach (unblocking any kBlock producer), and the
  // service's tables compact — serialized under the control mutex like
  // every other control-plane call. Closed-session scope only: one
  // tenant's disconnect must never change what another tenant's open
  // session observes (a drained POLL stays "n=0"). A durable server's
  // *shutdown* teardown is the exception (preserve_sessions): those
  // tenants didn't leave, the process is — their sessions must survive
  // into the final snapshot so they can re-ATTACH after the restart,
  // exactly as they would after a kill -9.
  if (!preserve_sessions && conn->interpreter != nullptr) {
    std::lock_guard<std::mutex> control(*control_mu_);
    for (const auto& [name, session_id] : conn->interpreter->sessions()) {
      service_->CloseSession(session_id).ok();
    }
    counters_->subscriptions_reclaimed.fetch_add(
        service_->ReclaimDetached(/*drained_in_open_sessions=*/false));
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(fd_key);
  }
  counters_->connections_closed.fetch_add(1);
  counters_->live_connections.fetch_sub(1);
}

void EventLoop::PumpLoop() {
  std::unique_lock<std::mutex> lock(pump_mu_);
  while (!pump_stop_.load(std::memory_order_acquire)) {
    if (active_streams_.load(std::memory_order_acquire) == 0 &&
        !stopping_->load(std::memory_order_acquire)) {
      // Nothing to drain: park until STREAM registration or Stop (the IO
      // thread owns plain response writes on its own).
      pump_cv_.wait(lock, [this] {
        return stopping_->load(std::memory_order_acquire) ||
               pump_stop_.load(std::memory_order_acquire) ||
               active_streams_.load(std::memory_order_acquire) > 0;
      });
    } else {
      pump_cv_.wait_for(
          lock, std::chrono::milliseconds(options_->pump_interval_ms));
    }
    if (pump_stop_.load(std::memory_order_acquire)) break;
    lock.unlock();

    std::vector<std::shared_ptr<ServerConnection>> conns;
    {
      std::lock_guard<std::mutex> conns_lock(conns_mu_);
      conns.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) conns.push_back(conn);
    }
    bool wake = false;
    for (const auto& conn : conns) {
      bool attention = false;
      if (!PumpConnection(conn)) {
        attention = true;  // dead connection: the IO thread owns teardown
      } else {
        std::lock_guard<std::mutex> io_lock(conn->io_mu);
        // Bytes the socket would not take need the IO thread to arm
        // EPOLLOUT; a drained write buffer may also unpark input.
        if (!conn->wbuf.empty() ||
            (conn->input_parked &&
             conn->wbuf.size() < options_->write_high_water)) {
          attention = true;
        }
      }
      if (attention) {
        std::lock_guard<std::mutex> handoff(handoff_mu_);
        dirty_.push_back(conn);
        wake = true;
      }
    }
    if (wake) Wake();

    lock.lock();
  }
}

}  // namespace streamworks
