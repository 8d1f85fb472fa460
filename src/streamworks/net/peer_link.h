#ifndef STREAMWORKS_NET_PEER_LINK_H_
#define STREAMWORKS_NET_PEER_LINK_H_

#include <string>
#include <string_view>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/common/unique_fd.h"
#include "streamworks/stream/cluster_wire.h"

namespace streamworks {

/// One framed peer connection of the cluster control plane — the pipe a
/// coordinator holds to each worker daemon and a worker holds back to its
/// coordinator. Owns the fd, a receive buffer, and the frame codec; the
/// caller sees whole CtrlFrames in, whole encoded frames out.
///
/// Two personalities, picked at construction:
///
///   * duplex (coordinator side): the fd is nonblocking and SendFrame
///     drains inbound bytes into the receive buffer whenever a write
///     would park. This breaks the classic write-write deadlock — the
///     coordinator pushing a large Batch while the worker pushes
///     Exchange/Completion traffic back fills both socket buffers, and a
///     blocking writer on each end would wait forever. One nonblocking
///     side suffices: the coordinator keeps consuming, so the worker's
///     writes drain, so the worker returns to reading.
///   * blocking (worker side): plain blocking writes; reads still poll
///     with a timeout so the daemon loop can notice a stop flag.
///
/// Both personalities disable Nagle's algorithm (TCP_NODELAY), on both
/// ends of every link. The protocol is request/ack with multi-frame
/// replies: a worker answers a Barrier with Exchange or Completion
/// frames and then a BarrierAck, each its own small write. With Nagle
/// on, the ack would wait for the peer to ACK the earlier frames, and
/// the peer's delayed ACK holds that back for 40 ms or more, so every
/// epoch step would stall on a kernel timer.
///
/// Not thread-safe: one thread owns a link (the coordinator's cluster
/// mutex or the worker's single daemon thread).
class PeerLink {
 public:
  PeerLink() = default;

  /// Adopts a connected TCP socket and disables Nagle on it. `duplex`
  /// selects the nonblocking coordinator personality above.
  static StatusOr<PeerLink> Adopt(UniqueFd fd, bool duplex);

  /// Connects to `host:port` with the duplex personality, retrying until
  /// `deadline_ms` elapses (a worker daemon may still be starting, or
  /// restarting after a crash).
  static StatusOr<PeerLink> ConnectTcpRetry(const std::string& host, int port,
                                            int deadline_ms);

  /// Writes one already-encoded frame, fully. Duplex links spill inbound
  /// bytes into the receive buffer while waiting for writability; those
  /// frames surface on later ReadFrame calls in order.
  Status SendFrame(std::string_view frame);

  /// Returns the next whole control frame, reading from the socket as
  /// needed. `timeout_ms` < 0 waits forever; on expiry the result is
  /// a "link read timed out" Unavailable error. EOF and malformed bytes
  /// are errors too — the control plane has no resync story by design
  /// (a desynchronized peer must reconnect and handshake).
  StatusOr<CtrlFrame> ReadFrame(Interner* interner, int timeout_ms);

  /// True once a read has seen the peer close the link with no partial
  /// frame buffered: the peer ended the session between frames, which is
  /// how a coordinator stops. A close inside a frame leaves this false.
  bool closed_between_frames() const { return closed_between_frames_; }

  bool connected() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  void Close() { fd_.reset(); rbuf_.clear(); }

 private:
  Status FillFromSocket(int timeout_ms);

  UniqueFd fd_;
  bool duplex_ = false;
  bool closed_between_frames_ = false;
  std::string rbuf_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_NET_PEER_LINK_H_
