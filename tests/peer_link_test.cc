// Tests for streamworks/net/peer_link: the framed control link between a
// cluster coordinator and its workers. Both ends of a link are built the
// way the cluster builds them: the coordinator's through ConnectTcpRetry,
// the worker's by accepting and adopting the connection.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include "streamworks/common/interner.h"
#include "streamworks/net/peer_link.h"
#include "streamworks/net/socket.h"
#include "streamworks/stream/cluster_wire.h"

namespace streamworks {
namespace {

int NoDelayOption(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(PeerLinkTest, BothEndsOfALinkDisableNagle) {
  auto listener = ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto port = BoundTcpPort(listener->get());
  ASSERT_TRUE(port.ok());

  auto coordinator = PeerLink::ConnectTcpRetry("127.0.0.1", *port, 5000);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  // The listener is nonblocking: wait for the queued connection.
  struct pollfd pfd {};
  pfd.fd = listener->get();
  pfd.events = POLLIN;
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  const int cfd = ::accept(listener->get(), nullptr, nullptr);
  ASSERT_GE(cfd, 0);
  auto worker = PeerLink::Adopt(UniqueFd(cfd), /*duplex=*/false);
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();

  EXPECT_EQ(NoDelayOption(coordinator->fd()), 1);
  EXPECT_EQ(NoDelayOption(worker->fd()), 1);

  // The adopted ends still carry frames both ways.
  Interner interner;
  CtrlBarrier request;
  request.round = 3;
  ASSERT_TRUE(coordinator->SendFrame(EncodeBarrierFrame(request)).ok());
  auto barrier = worker->ReadFrame(&interner, 5000);
  ASSERT_TRUE(barrier.ok()) << barrier.status().ToString();
  EXPECT_EQ(barrier->type, CtrlType::kBarrier);
  EXPECT_EQ(barrier->barrier.round, 3u);
  CtrlBarrierAck reply;
  reply.round = 3;
  reply.applied_frames = 7;
  ASSERT_TRUE(worker->SendFrame(EncodeBarrierAckFrame(reply)).ok());
  auto ack = coordinator->ReadFrame(&interner, 5000);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->type, CtrlType::kBarrierAck);
  EXPECT_EQ(ack->barrier_ack.applied_frames, 7u);
}

}  // namespace
}  // namespace streamworks
