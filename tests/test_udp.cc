// Unit tests: the UDP engine (sockets, datagram delivery, recovery records).
#include <gtest/gtest.h>

#include <memory>

#include "src/net/udp.h"
#include "src/sim/sim.h"

using namespace newtos;
using namespace newtos::net;

namespace {

// Minimal in-process host for one UdpEngine: captures output segments and
// lets tests feed input datagrams.
struct Host {
  sim::Simulator sim;
  chan::PoolRegistry pools;
  chan::Pool* pool;
  chan::Pool* rx_pool;
  std::vector<TxSeg> sent;
  std::vector<std::uint64_t> cookies;
  std::vector<SockId> readable;
  std::unique_ptr<UdpEngine> udp;

  Host() {
    pool = &pools.create("udp", "buf", 4u << 20);
    rx_pool = &pools.create("ip", "rx", 4u << 20);
    UdpEngine::Env env;
    env.pools = &pools;
    env.buf_pool = pool;
    env.src_for = [](Ipv4Addr) { return Ipv4Addr(10, 0, 0, 1); };
    env.rx_done = [this](const chan::RichPtr& f) { rx_pool->release(f); };
    env.notify_readable = [this](SockId s) { readable.push_back(s); };
    env.output = [this](TxSeg&& seg, std::uint64_t cookie) {
      sent.push_back(std::move(seg));
      cookies.push_back(cookie);
      return chan::RichPtr{};
    };
    udp = std::make_unique<UdpEngine>(std::move(env));
  }

  // Injects a UDP datagram (hdr+payload) as if delivered by IP.
  void inject(Ipv4Addr src, std::uint16_t sport, std::uint16_t dport,
              std::uint32_t len) {
    chan::RichPtr frame = rx_pool->alloc(kUdpHeaderLen + len);
    auto view = rx_pool->write_view(frame);
    ByteWriter w{view};
    UdpHeader h;
    h.src_port = sport;
    h.dst_port = dport;
    h.length = static_cast<std::uint16_t>(kUdpHeaderLen + len);
    h.serialize(w);
    for (std::uint32_t i = 0; i < len; ++i) w.u8(static_cast<std::uint8_t>(i));
    L4Packet pkt;
    pkt.frame = frame;
    pkt.l4_offset = 0;
    pkt.l4_length = static_cast<std::uint16_t>(kUdpHeaderLen + len);
    pkt.src = src;
    pkt.dst = Ipv4Addr(10, 0, 0, 1);
    udp->input(std::move(pkt));
  }
};

}  // namespace

TEST(Udp, SendBuildsCorrectHeader) {
  Host h;
  SockId s = h.udp->open();
  ASSERT_TRUE(h.udp->bind(s, Ipv4Addr(10, 0, 0, 1), 5353));
  chan::RichPtr payload = h.udp->alloc_payload(64);
  ASSERT_TRUE(h.udp->sendto(s, payload, Ipv4Addr(10, 0, 0, 2), 53));
  ASSERT_EQ(h.sent.size(), 1u);
  const TxSeg& seg = h.sent[0];
  EXPECT_EQ(seg.protocol, kProtoUdp);
  EXPECT_EQ(seg.dst, Ipv4Addr(10, 0, 0, 2));
  auto hdr_bytes = h.pools.read(seg.l4_header);
  ByteReader r{hdr_bytes};
  auto uh = UdpHeader::parse(r);
  ASSERT_TRUE(uh.has_value());
  EXPECT_EQ(uh->src_port, 5353);
  EXPECT_EQ(uh->dst_port, 53);
  EXPECT_EQ(uh->length, kUdpHeaderLen + 64);
}

TEST(Udp, SegDoneFreesChunks) {
  Host h;
  SockId s = h.udp->open();
  h.udp->bind(s, Ipv4Addr{}, 1000);
  const std::size_t live_before = h.pool->chunks_live();
  chan::RichPtr payload = h.udp->alloc_payload(100);
  h.udp->sendto(s, payload, Ipv4Addr(10, 0, 0, 2), 53);
  h.udp->seg_done(h.cookies.at(0), true);
  EXPECT_EQ(h.pool->chunks_live(), live_before);
}

TEST(Udp, DeliveryToBoundSocket) {
  Host h;
  SockId s = h.udp->open();
  ASSERT_TRUE(h.udp->bind(s, Ipv4Addr{}, 53));
  h.inject(Ipv4Addr(10, 0, 0, 2), 40000, 53, 32);
  ASSERT_EQ(h.readable.size(), 1u);
  auto d = h.udp->recv(s);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->data.size(), 32u);
  EXPECT_EQ(d->src, Ipv4Addr(10, 0, 0, 2));
  EXPECT_EQ(d->sport, 40000);
  EXPECT_EQ(std::to_integer<int>(d->data[5]), 5);
  // The receive-pool chunk was released after the copy-out.
  EXPECT_EQ(h.rx_pool->chunks_live(), 0u);
}

TEST(Udp, UnboundPortDropsDatagram) {
  Host h;
  h.inject(Ipv4Addr(10, 0, 0, 2), 40000, 99, 32);
  EXPECT_EQ(h.udp->stats().dropped_no_socket, 1u);
  EXPECT_EQ(h.rx_pool->chunks_live(), 0u);  // frame still released
}

TEST(Udp, ConnectedSocketFiltersForeignSenders) {
  Host h;
  SockId s = h.udp->open();
  ASSERT_TRUE(h.udp->bind(s, Ipv4Addr{}, 53));
  ASSERT_TRUE(h.udp->connect(s, Ipv4Addr(10, 0, 0, 2), 40000));
  h.inject(Ipv4Addr(10, 0, 0, 9), 40000, 53, 16);  // wrong source
  EXPECT_FALSE(h.udp->readable(s));
  h.inject(Ipv4Addr(10, 0, 0, 2), 40000, 53, 16);  // the connected peer
  EXPECT_TRUE(h.udp->readable(s));
}

TEST(Udp, QueueBoundSheds) {
  Host h;
  SockId s = h.udp->open();
  h.udp->bind(s, Ipv4Addr{}, 53);
  for (int i = 0; i < 80; ++i) h.inject(Ipv4Addr(10, 0, 0, 2), 1, 53, 8);
  EXPECT_GT(h.udp->stats().dropped_queue_full, 0u);
  int drained = 0;
  while (h.udp->recv(s)) ++drained;
  EXPECT_EQ(drained, 64);  // kMaxRxQueue
}

TEST(Udp, BindConflictsRejected) {
  Host h;
  SockId a = h.udp->open();
  SockId b = h.udp->open();
  EXPECT_TRUE(h.udp->bind(a, Ipv4Addr{}, 53));
  EXPECT_FALSE(h.udp->bind(b, Ipv4Addr{}, 53));
  h.udp->close(a);
  EXPECT_TRUE(h.udp->bind(b, Ipv4Addr{}, 53));
}

TEST(Udp, SnapshotRestoreRoundTrip) {
  Host h;
  SockId a = h.udp->open();
  h.udp->bind(a, Ipv4Addr(10, 0, 0, 1), 53);
  SockId b = h.udp->open();
  h.udp->bind(b, Ipv4Addr{}, 5353);
  h.udp->connect(b, Ipv4Addr(10, 0, 0, 2), 53);

  const auto bytes = UdpEngine::serialize_socks(h.udp->snapshot());
  auto parsed = UdpEngine::parse_socks(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);

  // A fresh engine (the restarted server) restores them.
  Host h2;
  h2.udp->restore(*parsed);
  EXPECT_EQ(h2.udp->socket_count(), 2u);
  // The bound port works immediately (the paper's transparent UDP restart).
  h2.inject(Ipv4Addr(10, 0, 0, 2), 9000, 53, 8);
  EXPECT_TRUE(h2.udp->readable(a));
  // Connection keys for PF rebuild include only connected sockets.
  EXPECT_EQ(h2.udp->connection_keys().size(), 1u);
}

TEST(Udp, TruncatedDatagramRejected) {
  Host h;
  SockId s = h.udp->open();
  h.udp->bind(s, Ipv4Addr{}, 53);
  chan::RichPtr frame = h.rx_pool->alloc(4);  // shorter than a UDP header
  L4Packet pkt;
  pkt.frame = frame;
  pkt.l4_offset = 0;
  pkt.l4_length = 4;
  pkt.src = Ipv4Addr(10, 0, 0, 2);
  h.udp->input(std::move(pkt));
  EXPECT_EQ(h.udp->stats().dropped_malformed, 1u);
  EXPECT_FALSE(h.udp->readable(s));
}
