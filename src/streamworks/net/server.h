#ifndef STREAMWORKS_NET_SERVER_H_
#define STREAMWORKS_NET_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "streamworks/net/acceptor.h"
#include "streamworks/net/event_loop.h"
#include "streamworks/net/server_options.h"
#include "streamworks/net/socket.h"
#include "streamworks/obs/http_endpoint.h"
#include "streamworks/service/query_service.h"

namespace streamworks {

/// Network frontend for one QueryService: accepts TCP and unix-domain
/// connections and runs one CommandInterpreter session per connection, so
/// every tenant speaks the same line protocol scripts and fixtures use —
/// the server stays ignorant of whether the backend is a single engine or
/// a cluster (the QueryBackend seam).
///
/// Wire protocol, over the interpreter grammar (see interpreter.h):
///   * client sends one command per '\n'-terminated line;
///   * a binary FEEDB frame (lead byte 0xFB; layout in
///     stream/wire_format.h) may appear anywhere a command line could:
///     it carries a whole EdgeBatch onto the backend's batched fast path
///     and is answered with one "OK feedb <accepted> <rejected>" + "."
///     — per-frame cost where text FEED pays per edge. An oversized
///     frame is refused with ERR and skipped by its declared length (no
///     desync, no disconnect); a frame whose magic is corrupt
///     desynchronizes the stream and closes the connection;
///   * the server replies with the command's output lines followed by a
///     lone "." terminator line;
///   * a malformed command replies "ERR <status>" + "." and the connection
///     stays usable (a network tenant's typo must not tear the session
///     down the way a scripted fixture's should);
///   * STREAM <session> <sub> upgrades POLL to push: matches are written
///     as "EVENT MATCH <session>.<sub> ..." lines as they arrive, which
///     may interleave between responses (clients demux on the EVENT
///     prefix); "EVENT END <session>.<sub>" marks a streamed subscription
///     whose queue closed (detach / reclaim) after its last match;
///   * BYE replies "OK bye" + "." and half-closes: the server flushes and
///     disconnects.
///
/// Threading: one acceptor thread polls the listeners and deals accepted
/// fds round-robin across N epoll IO loops (ServerOptions::io_loops; see
/// event_loop.h). Each loop owns its connections end to end — read,
/// FEEDB/text demux, execute, write — with per-connection interpreter
/// state shared-nothing between loops, and runs its own stream-pump
/// thread draining only its connections' streamed ResultQueues, so a
/// slow consumer degrades delivery on its own loop only. The one shared
/// seam is the server's control mutex: every interpreter (and thus
/// QueryService control-plane) call from any loop serializes under it,
/// preserving the service's serialized-control-plane contract — io_loops
/// scales connection fan-out and delivery, not query execution. Pumps
/// never take the control mutex, so they keep draining even while a loop
/// thread is parked inside a backend Flush or a kBlock Push, which is
/// what turns the block policy into end-to-end throttling instead of a
/// deadlock. For that to hold, every kBlock queue needs its loop's pump
/// as its consumer: the server auto-upgrades block-policy submissions to
/// streaming and refuses to UNSTREAM them (a POLL-only kBlock queue's
/// sole drainer would be the very thread its producer blocks). A slow
/// kBlock tenant can still stall FLUSH/STATS for everyone until it reads
/// — block means block — but reading always unwedges, and Stop() always
/// completes (it force-closes every queue up front). IO thread and pump
/// serialize per-connection IO state on ServerConnection::io_mu.
///
/// Disconnect (client close, error, or Stop) closes every session the
/// connection opened through QueryService::CloseSession and then compacts
/// the service's subscription table via ReclaimDetached — a vanished
/// tenant's DeliveryState does not outlive its socket.
class SocketServer {
 public:
  /// `service` and `interner` must outlive the server. The interner is
  /// shared with the backend (FEED interns labels).
  SocketServer(QueryService* service, Interner* interner,
               ServerOptions options);

  /// Stops if still running.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds the listeners and spawns the acceptor and the IO loops (each
  /// an epoll thread + a pump thread). One-shot.
  Status Start();

  /// Graceful shutdown: flushes what it can, closes every connection
  /// (running the disconnect reclamation for each), closes listeners,
  /// unlinks the unix socket path, joins every thread. Idempotent.
  void Stop();

  /// The TCP port actually bound (resolves tcp_port=0), -1 when disabled.
  int tcp_port() const { return bound_tcp_port_; }
  /// The HTTP port actually bound (resolves http_port=0), -1 when
  /// disabled.
  int http_port() const { return bound_http_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  ServerStats stats() const;

  /// Live connection count across all loops (for tests and ops).
  size_t active_connections() const;

  /// IO loops actually running (options_.io_loops with auto resolved);
  /// 0 before Start.
  int io_loops() const { return static_cast<int>(loops_.size()); }

 private:
  QueryService* service_;
  Interner* interner_;
  ServerOptions options_;

  UniqueFd tcp_listener_;
  UniqueFd unix_listener_;
  UniqueFd http_listener_;
  int bound_tcp_port_ = -1;
  int bound_http_port_ = -1;
  std::unique_ptr<HttpHandler> http_handler_;

  /// The narrow locked handoff into the control plane: every
  /// interpreter / QueryService / HTTP-handler call from any loop
  /// serializes here (see event_loop.h).
  std::mutex control_mu_;

  ServerCounters counters_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::unique_ptr<Acceptor> acceptor_;

  std::atomic<bool> running_{false};
  /// Server-wide shutdown latch: retires the IO loops while the pumps
  /// keep draining (a loop thread parked in a backend Flush behind a
  /// kBlock queue needs its pump to free it); each loop's pump stops only
  /// after its IO thread joined.
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace streamworks

#endif  // STREAMWORKS_NET_SERVER_H_
