#ifndef STREAMWORKS_NET_SOCKET_H_
#define STREAMWORKS_NET_SOCKET_H_

#include <string>
#include <string_view>
#include <utility>

#include "streamworks/common/statusor.h"
#include "streamworks/common/unique_fd.h"

namespace streamworks {

/// Marks `fd` O_NONBLOCK (the poll loop must never be parked in read/write;
/// blocking is the ResultQueue's job, not the socket's).
Status SetNonBlocking(int fd);

/// Sets TCP_NODELAY on a TCP socket: small writes go out at once instead
/// of waiting, under Nagle's algorithm, for the peer to ACK earlier data.
Status SetNoDelay(int fd);

/// Listening TCP socket bound to `host:port` (SO_REUSEADDR, IPv4 dotted
/// quad or "0.0.0.0"). `port` 0 picks an ephemeral port — read it back
/// with BoundTcpPort.
StatusOr<UniqueFd> ListenTcp(const std::string& host, int port, int backlog);

/// The port a listening TCP socket actually bound (resolves port 0).
StatusOr<int> BoundTcpPort(int fd);

/// Listening unix-domain socket at `path`. A stale socket file from a
/// previous run is unlinked first; the caller owns unlinking on shutdown.
StatusOr<UniqueFd> ListenUnix(const std::string& path, int backlog);

/// Blocking client connects (the LineClient side).
StatusOr<UniqueFd> ConnectTcp(const std::string& host, int port);
StatusOr<UniqueFd> ConnectUnix(const std::string& path);

/// Self-pipe (read end, write end), both ends nonblocking — how Stop()
/// and the stream pump wake a poll loop parked in poll(2).
StatusOr<std::pair<UniqueFd, UniqueFd>> MakeWakePipe();

/// epoll(7) instance (EPOLL_CLOEXEC) — one per IO loop.
StatusOr<UniqueFd> CreateEpoll();

}  // namespace streamworks

#endif  // STREAMWORKS_NET_SOCKET_H_
