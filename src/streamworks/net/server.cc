#include "streamworks/net/server.h"

#include <unistd.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "streamworks/common/logging.h"

namespace streamworks {

namespace {

/// listen(2) backlog of every listener.
constexpr int kListenBacklog = 16;

}  // namespace

int ServerOptions::ResolvedIoLoops() const {
  if (io_loops > 0) return io_loops;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, std::min(4, static_cast<int>(hw)));
}

SocketServer::SocketServer(QueryService* service, Interner* interner,
                           ServerOptions options)
    : service_(service), interner_(interner), options_(std::move(options)) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (options_.tcp_port < 0 && options_.unix_path.empty()) {
    return Status::InvalidArgument(
        "no listener configured (need tcp_port >= 0 and/or unix_path)");
  }
  if (options_.tcp_port >= 0) {
    SW_ASSIGN_OR_RETURN(tcp_listener_,
                        ListenTcp(options_.tcp_host, options_.tcp_port,
                                  kListenBacklog));
    SW_ASSIGN_OR_RETURN(bound_tcp_port_, BoundTcpPort(tcp_listener_.get()));
  }
  if (!options_.unix_path.empty()) {
    SW_ASSIGN_OR_RETURN(unix_listener_,
                        ListenUnix(options_.unix_path, kListenBacklog));
  }
  if (options_.http_port >= 0) {
    SW_ASSIGN_OR_RETURN(http_listener_,
                        ListenTcp(options_.http_host, options_.http_port,
                                  kListenBacklog));
    SW_ASSIGN_OR_RETURN(bound_http_port_, BoundTcpPort(http_listener_.get()));
    HttpHandler::Providers providers;
    providers.registry = options_.registry;
    providers.pipeline = options_.pipeline;
    providers.stats = [this] { return service_->Snapshot(); };
    providers.queries = [this] { return service_->QueryInfos(); };
    providers.cluster = options_.cluster_provider;
    providers.epochs = options_.epochs_provider;
    providers.health = options_.health_provider;
    http_handler_ = std::make_unique<HttpHandler>(std::move(providers));
  }

  const int n_loops = options_.ResolvedIoLoops();
  loops_.reserve(static_cast<size_t>(n_loops));
  for (int i = 0; i < n_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(
        i, service_, interner_, &options_, &counters_, &control_mu_,
        http_handler_.get(), &stopping_));
  }

  // Fold this server's wire counters into the service snapshot, so STATS
  // and the streamworks_frontend_* / streamworks_io_loop_* metric
  // families show live activity. The probe reads atomics and leaf locks
  // only (never the control mutex), so it is safe from any thread —
  // including a loop thread already holding the control mutex inside
  // Snapshot(). Installed before the threads spawn and cleared in Stop
  // after they join.
  service_->set_frontend_probe([this] {
    const ServerStats s = stats();
    FrontendStatsSnapshot f;
    f.enabled = true;
    f.connections_accepted = s.connections_accepted;
    f.connections_refused = s.connections_refused;
    f.connections_closed = s.connections_closed;
    f.lines_executed = s.lines_executed;
    f.frames_executed = s.frames_executed;
    f.batch_edges_in = s.batch_edges_in;
    f.protocol_errors = s.protocol_errors;
    f.events_pushed = s.events_pushed;
    f.pump_flushes = s.pump_flushes;
    f.http_requests = s.http_requests;
    f.bytes_in = s.bytes_in;
    f.bytes_out = s.bytes_out;
    f.subscriptions_reclaimed = s.subscriptions_reclaimed;
    f.io_loops.reserve(loops_.size());
    for (const auto& loop : loops_) {
      IoLoopStatsSnapshot l;
      l.loop = loop->index();
      l.connections = loop->connection_count();
      l.pump_flushes = loop->pump_flushes();
      f.io_loops.push_back(l);
    }
    return f;
  });

  size_t started_loops = 0;
  Status status = OkStatus();
  for (auto& loop : loops_) {
    status = loop->Start();
    if (!status.ok()) break;
    ++started_loops;
  }
  if (status.ok()) {
    acceptor_ = std::make_unique<Acceptor>(
        tcp_listener_.valid() ? tcp_listener_.get() : -1,
        unix_listener_.valid() ? unix_listener_.get() : -1,
        http_listener_.valid() ? http_listener_.get() : -1, &options_,
        &counters_, &loops_);
    status = acceptor_->Start();
  }
  if (!status.ok()) {
    // Unwind the partial spawn so the failed Start leaves no threads.
    stopping_.store(true, std::memory_order_release);
    for (size_t i = 0; i < started_loops; ++i) {
      loops_[i]->Wake();
      loops_[i]->JoinIo();
      loops_[i]->StopPump();
    }
    loops_.clear();
    acceptor_.reset();
    service_->set_frontend_probe(nullptr);
    stopping_.store(false, std::memory_order_release);
    return status;
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
  return OkStatus();
}

void SocketServer::Stop() {
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  // No new connections while everything else drains.
  acceptor_->Stop();
  // Phase 1: retire the IO loops. The pumps keep running — if a loop
  // thread is parked in a backend Flush waiting on a worker blocked in a
  // kBlock Push, its pump's draining (now unthrottled, see
  // PumpConnection) unwedges streamed queues, and CloseAllQueues
  // unblocks every producer regardless of streaming (shutdown discards
  // undelivered matches by definition), so the joins below always
  // return. SIGTERM must land no matter what tenants are doing.
  stopping_.store(true, std::memory_order_release);
  service_->CloseAllQueues();
  for (auto& loop : loops_) {
    loop->Wake();
    loop->NotifyPump();
  }
  for (auto& loop : loops_) loop->JoinIo();
  // Phase 2: now the pumps can go.
  for (auto& loop : loops_) loop->StopPump();
  running_.store(false, std::memory_order_release);

  // Every loop thread is gone: this thread owns the teardown. Flush and
  // tear down every surviving connection (closing its sessions and
  // compacting the service — unless a durable deployment asked Stop to
  // preserve them for its shutdown snapshot), then retire the listeners.
  for (auto& loop : loops_) {
    for (const auto& conn : loop->TakeConnections()) {
      loop->CloseConnection(conn, options_.preserve_sessions_on_stop);
    }
  }
  service_->set_frontend_probe(nullptr);
  tcp_listener_.reset();
  unix_listener_.reset();
  http_listener_.reset();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

ServerStats SocketServer::stats() const {
  const ServerCounters& c = counters_;
  ServerStats s;
  s.connections_accepted = c.connections_accepted.load();
  s.connections_refused = c.connections_refused.load();
  s.connections_closed = c.connections_closed.load();
  s.lines_executed = c.lines_executed.load();
  s.frames_executed = c.frames_executed.load();
  s.batch_edges_in = c.batch_edges_in.load();
  s.protocol_errors = c.protocol_errors.load();
  s.events_pushed = c.events_pushed.load();
  s.pump_flushes = c.pump_flushes.load();
  s.http_requests = c.http_requests.load();
  s.bytes_in = c.bytes_in.load();
  s.bytes_out = c.bytes_out.load();
  s.subscriptions_reclaimed = c.subscriptions_reclaimed.load();
  return s;
}

size_t SocketServer::active_connections() const {
  size_t n = 0;
  for (const auto& loop : loops_) n += loop->connection_count();
  return n;
}

}  // namespace streamworks
