// Unit tests: the IP engine — routing, the PF T junction, ARP-gated
// transmission, ICMP echo, TX completion/resubmission and RX delivery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/checksum.h"
#include "src/net/ip.h"
#include "src/sim/sim.h"

using namespace newtos;
using namespace newtos::net;

namespace {

struct SentFrame {
  int ifindex;
  TxFrame frame;
  std::uint64_t cookie;
};

// Direct harness around one IpEngine: captures frames meant for drivers,
// exposes knobs for PF verdicts, and fabricates inbound frames.
struct Host {
  sim::Simulator sim;
  chan::PoolRegistry pools;
  chan::Pool* hdr_pool;
  chan::Pool* rx_pool;
  chan::Pool* l4_pool;  // plays the TCP/UDP server's pool
  std::vector<SentFrame> wire;
  std::vector<std::pair<PfQuery, std::uint64_t>> pf_queries;
  std::vector<std::pair<std::uint64_t, bool>> seg_done;
  std::vector<L4Packet> to_tcp, to_udp;
  bool pf_enabled;
  std::unique_ptr<IpEngine> ip;

  class Timers : public TimerService {
   public:
    explicit Timers(sim::Simulator* s) : sim_(s) {}
    TimerId schedule(sim::Time d, std::function<void()> fn) override {
      return sim_->after(d, std::move(fn));
    }
    void cancel(TimerId id) override { sim_->cancel(id); }
    sim::Simulator* sim_;
  } timers{&sim};
  class SimClock : public Clock {
   public:
    explicit SimClock(sim::Simulator* s) : sim_(s) {}
    sim::Time now() const override { return sim_->now(); }
    sim::Simulator* sim_;
  } clock{&sim};

  explicit Host(bool with_pf = false) : pf_enabled(with_pf) {
    hdr_pool = &pools.create("ip", "hdr", 4u << 20);
    rx_pool = &pools.create("ip", "rx", 4u << 20);
    l4_pool = &pools.create("tcp", "buf", 4u << 20);

    IpEngine::Env env;
    env.clock = &clock;
    env.timers = &timers;
    env.pools = &pools;
    env.hdr_pool = hdr_pool;
    env.rx_pool = rx_pool;
    env.csum_offload = false;  // software path: real checksums on the wire
    env.send_frame = [this](int ifindex, const TxFrame& f,
                            std::uint64_t cookie) {
      wire.push_back(SentFrame{ifindex, f, cookie});
      return chan::RichPtr{};
    };
    if (with_pf) {
      env.pf_check = [this](const PfQuery& q, std::uint64_t cookie) {
        pf_queries.push_back({q, cookie});
      };
    }
    env.deliver_tcp = [this](L4Packet&& p) { to_tcp.push_back(p); };
    env.deliver_udp = [this](L4Packet&& p) { to_udp.push_back(p); };
    env.seg_done = [this](const L4Req& req, bool ok) {
      seg_done.push_back({req.id, ok});
    };

    IpConfig cfg;
    Interface ifc;
    ifc.index = 0;
    ifc.mac = MacAddr::local(1);
    ifc.addr = Ipv4Addr(10, 1, 0, 1);
    ifc.subnet = Ipv4Net{Ipv4Addr(10, 1, 0, 0), 24};
    cfg.interfaces.push_back(ifc);
    Route def;
    def.dest = Ipv4Net{Ipv4Addr(0, 0, 0, 0), 0};
    def.gateway = Ipv4Addr(10, 1, 0, 254);
    def.ifindex = 0;
    cfg.routes.push_back(def);
    ip = std::make_unique<IpEngine>(std::move(env), cfg);
  }

  TxSeg make_seg(Ipv4Addr dst, std::uint16_t dport = 80,
                 std::uint32_t payload = 100) {
    TxSeg seg;
    seg.l4_header = l4_pool->alloc(kTcpHeaderLen);
    auto view = l4_pool->write_view(seg.l4_header);
    ByteWriter w{view};
    TcpHeader h;
    h.src_port = 30000;
    h.dst_port = dport;
    h.flags = tcpflag::kAck;
    h.serialize(w);
    if (payload > 0) seg.payload.push_back(l4_pool->alloc(payload));
    seg.src = Ipv4Addr(10, 1, 0, 1);
    seg.dst = dst;
    seg.protocol = kProtoTcp;
    return seg;
  }

  // Replies to the pending ARP request for `hop` so transmission proceeds.
  void answer_arp(Ipv4Addr hop, MacAddr mac) {
    ASSERT_FALSE(wire.empty());
    ArpPacket reply;
    reply.op = kArpOpReply;
    reply.sender_mac = mac;
    reply.sender_ip = hop;
    reply.target_mac = MacAddr::local(1);
    reply.target_ip = Ipv4Addr(10, 1, 0, 1);
    chan::RichPtr frame =
        rx_pool->alloc(kEthHeaderLen + kArpPacketLen);
    auto view = rx_pool->write_view(frame);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::local(1);
    eth.src = mac;
    eth.ethertype = kEtherTypeArp;
    eth.serialize(w);
    reply.serialize(w);
    ip->input(0, frame);
  }

  // The TCP destination port of a data frame sent to the driver.
  std::uint16_t dport_of(const SentFrame& f) const {
    auto bytes = pools.read(f.frame.header);
    ByteReader r{bytes.subspan(kEthHeaderLen + kIpHeaderLen)};
    r.u16();  // source port
    return r.u16();
  }

  // Builds an inbound ICMP echo request frame.
  chan::RichPtr make_ping(Ipv4Addr from, std::uint16_t id,
                          std::uint32_t payload_len) {
    const std::uint16_t icmp_len =
        static_cast<std::uint16_t>(kIcmpHeaderLen + payload_len);
    chan::RichPtr frame = rx_pool->alloc(
        static_cast<std::uint32_t>(kEthHeaderLen + kIpHeaderLen + icmp_len));
    auto view = rx_pool->write_view(frame);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::local(1);
    eth.src = MacAddr::local(9);
    eth.ethertype = kEtherTypeIpv4;
    eth.serialize(w);
    Ipv4Header iph;
    iph.total_length = static_cast<std::uint16_t>(kIpHeaderLen + icmp_len);
    iph.protocol = kProtoIcmp;
    iph.src = from;
    iph.dst = Ipv4Addr(10, 1, 0, 1);
    iph.serialize(w);
    IcmpHeader icmp;
    icmp.type = kIcmpEchoRequest;
    icmp.id = id;
    icmp.seq = 1;
    icmp.serialize(w);
    for (std::uint32_t i = 0; i < payload_len; ++i)
      w.u8(static_cast<std::uint8_t>(i));
    // Fix the ICMP checksum over header+payload.
    auto icmp_bytes = view.subspan(kEthHeaderLen + kIpHeaderLen);
    const std::uint16_t csum = checksum(icmp_bytes);
    icmp_bytes[2] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
    icmp_bytes[3] = std::byte{static_cast<std::uint8_t>(csum)};
    return frame;
  }
};

}  // namespace

TEST(Ip, OnLinkDestinationResolvedViaArpThenSent) {
  Host h;
  h.ip->output(h.make_seg(Ipv4Addr(10, 1, 0, 2)), L4Req{0, 1});
  // First thing on the wire: an ARP request (broadcast), not our data.
  ASSERT_EQ(h.wire.size(), 1u);
  auto bytes = h.pools.read(h.wire[0].frame.header);
  ByteReader r{bytes};
  auto eth = EthHeader::parse(r);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->ethertype, kEtherTypeArp);
  EXPECT_TRUE(eth->dst.is_broadcast());

  h.answer_arp(Ipv4Addr(10, 1, 0, 2), MacAddr::local(7));
  ASSERT_EQ(h.wire.size(), 2u);  // now the data frame went out
  auto data = h.pools.read(h.wire[1].frame.header);
  ByteReader r2{data};
  auto eth2 = EthHeader::parse(r2);
  ASSERT_TRUE(eth2.has_value());
  EXPECT_EQ(eth2->ethertype, kEtherTypeIpv4);
  EXPECT_EQ(eth2->dst, MacAddr::local(7));
  auto iph = Ipv4Header::parse(r2, /*verify=*/true);
  ASSERT_TRUE(iph.has_value());
  EXPECT_EQ(iph->dst, Ipv4Addr(10, 1, 0, 2));
  EXPECT_EQ(iph->protocol, kProtoTcp);
}

TEST(Ip, OffLinkDestinationUsesGatewayMac) {
  Host h;
  h.ip->output(h.make_seg(Ipv4Addr(192, 168, 7, 7)), L4Req{0, 1});
  h.answer_arp(Ipv4Addr(10, 1, 0, 254), MacAddr::local(42));
  ASSERT_EQ(h.wire.size(), 2u);
  auto data = h.pools.read(h.wire[1].frame.header);
  ByteReader r{data};
  auto eth = EthHeader::parse(r);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->dst, MacAddr::local(42));  // the gateway, not the dest
  auto iph = Ipv4Header::parse(r);
  EXPECT_EQ(iph->dst, Ipv4Addr(192, 168, 7, 7));  // but IP dst unchanged
}

TEST(Ip, NoRouteFailsSegment) {
  Host h;
  // Remove the default route by reconfiguring.
  IpConfig cfg = h.ip->config();
  cfg.routes.clear();
  h.ip->set_config(cfg);
  h.ip->output(h.make_seg(Ipv4Addr(192, 168, 7, 7)), L4Req{0, 55});
  ASSERT_EQ(h.seg_done.size(), 1u);
  EXPECT_EQ(h.seg_done[0].first, 55u);
  EXPECT_FALSE(h.seg_done[0].second);
  EXPECT_EQ(h.ip->stats().dropped_no_route, 1u);
}

TEST(Ip, SoftwareChecksumIsCorrectOnWire) {
  Host h;
  h.ip->output(h.make_seg(Ipv4Addr(10, 1, 0, 2), 80, 64), L4Req{0, 1});
  h.answer_arp(Ipv4Addr(10, 1, 0, 2), MacAddr::local(7));
  ASSERT_EQ(h.wire.size(), 2u);
  // Verify the TCP checksum over pseudo-header + header + payload is valid.
  auto flat = flatten(h.pools, h.wire[1].frame.header, h.wire[1].frame.payload);
  const std::uint16_t l4_len =
      static_cast<std::uint16_t>(flat.size() - kEthHeaderLen - kIpHeaderLen);
  std::uint32_t sum = pseudo_header_sum(Ipv4Addr(10, 1, 0, 1),
                                        Ipv4Addr(10, 1, 0, 2), kProtoTcp,
                                        l4_len);
  sum = checksum_partial(
      std::span<const std::byte>(flat).subspan(kEthHeaderLen + kIpHeaderLen),
      sum);
  EXPECT_EQ(checksum_finish(sum), 0);
}

TEST(Ip, TxDoneCompletesAndFreesHeader) {
  Host h;
  h.ip->output(h.make_seg(Ipv4Addr(10, 1, 0, 2)), L4Req{0, 9});
  h.answer_arp(Ipv4Addr(10, 1, 0, 2), MacAddr::local(7));
  const std::size_t live_before = h.hdr_pool->chunks_live();
  // Two pending: the ARP request (internal) and our data frame.
  ASSERT_EQ(h.ip->tx_pending(), 2u);
  h.ip->tx_done(h.wire[1].cookie, true);
  EXPECT_EQ(h.ip->tx_pending(), 1u);
  EXPECT_EQ(h.hdr_pool->chunks_live(), live_before - 1);
  ASSERT_EQ(h.seg_done.size(), 1u);
  EXPECT_EQ(h.seg_done[0].first, 9u);
  EXPECT_TRUE(h.seg_done[0].second);
  // A duplicate/stale completion is ignored.
  h.ip->tx_done(h.wire[1].cookie, true);
  EXPECT_EQ(h.seg_done.size(), 1u);
}

TEST(Ip, ResubmitTxAfterDriverCrash) {
  Host h;
  h.ip->output(h.make_seg(Ipv4Addr(10, 1, 0, 2), 1000), L4Req{0, 1});
  h.answer_arp(Ipv4Addr(10, 1, 0, 2), MacAddr::local(7));
  for (std::uint16_t i = 1; i < 8; ++i) {
    h.ip->output(h.make_seg(Ipv4Addr(10, 1, 0, 2), 1000 + i),
                 L4Req{0, 1u + i});
  }
  // The ARP request (internal) and eight data frames await the driver.
  ASSERT_EQ(h.wire.size(), 9u);
  // All nine un-acked frames are resubmitted with their original cookies,
  // oldest first ("in case of doubt, we prefer to send a few duplicates").
  EXPECT_EQ(h.ip->resubmit_tx(0), 9u);
  ASSERT_EQ(h.wire.size(), 18u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(h.wire[9 + i].cookie, h.wire[i].cookie) << "resend " << i;
  }
  // So the segments reach the wire again in the order they were sent.
  for (std::uint16_t i = 0; i < 8; ++i) {
    EXPECT_EQ(h.dport_of(h.wire[10 + i]), 1000 + i) << "resend " << i + 1;
  }
}

TEST(Ip, PfOutVerdictGatesTransmission) {
  Host h(/*with_pf=*/true);
  h.ip->output(h.make_seg(Ipv4Addr(10, 1, 0, 2), 8080), L4Req{0, 1});
  ASSERT_EQ(h.pf_queries.size(), 1u);
  EXPECT_EQ(h.pf_queries[0].first.dir, PfDir::Out);
  EXPECT_EQ(h.pf_queries[0].first.dport, 8080);
  EXPECT_TRUE(h.wire.empty());  // nothing sent before the verdict

  h.ip->pf_verdict(h.pf_queries[0].second, false);  // blocked
  EXPECT_TRUE(h.wire.empty());
  ASSERT_EQ(h.seg_done.size(), 1u);
  EXPECT_FALSE(h.seg_done[0].second);
  EXPECT_EQ(h.ip->stats().dropped_pf, 1u);
}

TEST(Ip, PfPendingResubmittedAfterPfCrash) {
  Host h(/*with_pf=*/true);
  for (std::uint16_t i = 0; i < 8; ++i) {
    h.ip->output(h.make_seg(Ipv4Addr(10, 1, 0, 2), 1000 + i),
                 L4Req{0, 1u + i});
  }
  ASSERT_EQ(h.pf_queries.size(), 8u);
  // PF died before answering; when it is back IP repeats every query with
  // its original cookie, oldest first.
  EXPECT_EQ(h.ip->resubmit_pf_pending(), 8u);
  ASSERT_EQ(h.pf_queries.size(), 16u);
  for (std::uint16_t i = 0; i < 8; ++i) {
    EXPECT_EQ(h.pf_queries[8 + i].second, h.pf_queries[i].second)
        << "resend " << i;
    EXPECT_EQ(h.pf_queries[8 + i].first.dport, 1000 + i) << "resend " << i;
  }
  // The new PF answers in the order it was asked; the answers to the lost
  // queries are stale duplicates and ignored.
  for (std::size_t i = 8; i < 16; ++i) {
    h.ip->pf_verdict(h.pf_queries[i].second, true);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    h.ip->pf_verdict(h.pf_queries[i].second, true);
  }
  // Every segment reaches the wire once, in the order it was sent.
  h.answer_arp(Ipv4Addr(10, 1, 0, 2), MacAddr::local(7));
  ASSERT_EQ(h.wire.size(), 9u);  // the ARP request, then the data
  for (std::uint16_t i = 0; i < 8; ++i) {
    EXPECT_EQ(h.dport_of(h.wire[1 + i]), 1000 + i) << "segment " << i;
  }
  EXPECT_TRUE(h.seg_done.empty());
}

TEST(Ip, IcmpEchoAnswered) {
  Host h;
  chan::RichPtr ping = h.make_ping(Ipv4Addr(10, 1, 0, 2), 0x77, 56);
  h.ip->input(0, ping);
  EXPECT_EQ(h.ip->stats().icmp_echo_replies, 1u);
  // The reply goes through ARP like any packet.
  h.answer_arp(Ipv4Addr(10, 1, 0, 2), MacAddr::local(7));
  ASSERT_GE(h.wire.size(), 2u);
  auto flat = flatten(h.pools, h.wire.back().frame.header,
                      h.wire.back().frame.payload);
  ByteReader r{flat};
  EthHeader::parse(r);
  auto iph = Ipv4Header::parse(r);
  ASSERT_TRUE(iph.has_value());
  EXPECT_EQ(iph->protocol, kProtoIcmp);
  EXPECT_EQ(iph->dst, Ipv4Addr(10, 1, 0, 2));
  auto icmp = IcmpHeader::parse(r);
  ASSERT_TRUE(icmp.has_value());
  EXPECT_EQ(icmp->type, kIcmpEchoReply);
  EXPECT_EQ(icmp->id, 0x77);
  // The echoed payload matches byte for byte.
  for (int i = 0; i < 56; ++i) {
    EXPECT_EQ(std::to_integer<int>(
                  flat[kEthHeaderLen + kIpHeaderLen + kIcmpHeaderLen + i]),
              i);
  }
  // The request frame chunk was released (IP consumed it itself).
  EXPECT_EQ(h.ip->stats().rx_frames, 2u);  // ping + arp reply
}

TEST(Ip, PingOfDeathDroppedNotCrashed) {
  Host h;
  // A garbage ICMP frame: valid IP header, corrupt ICMP checksum.
  chan::RichPtr ping = h.make_ping(Ipv4Addr(10, 1, 0, 2), 1, 32);
  auto view = h.rx_pool->write_view(ping);
  view[kEthHeaderLen + kIpHeaderLen + 2] ^= std::byte{0xff};
  h.ip->input(0, ping);
  EXPECT_EQ(h.ip->stats().icmp_echo_replies, 0u);
  EXPECT_EQ(h.ip->stats().dropped_malformed, 1u);
  EXPECT_EQ(h.rx_pool->chunks_live(), 0u);  // frame released, nothing leaks

  // Truncated / lying IP headers die in the parser.
  chan::RichPtr tiny = h.rx_pool->alloc(kEthHeaderLen + 4);
  auto tview = h.rx_pool->write_view(tiny);
  tview[12] = std::byte{0x08};  // ethertype IPv4, body 4 bytes of garbage
  tview[13] = std::byte{0x00};
  h.ip->input(0, tiny);
  EXPECT_EQ(h.ip->stats().dropped_malformed, 2u);
}

TEST(Ip, DeliversToTransportByProtocol) {
  Host h;
  // Fabricate a TCP frame to our address.
  chan::RichPtr frame =
      h.rx_pool->alloc(kEthHeaderLen + kIpHeaderLen + kTcpHeaderLen);
  auto view = h.rx_pool->write_view(frame);
  ByteWriter w{view};
  EthHeader eth;
  eth.dst = MacAddr::local(1);
  eth.src = MacAddr::local(9);
  eth.ethertype = kEtherTypeIpv4;
  eth.serialize(w);
  Ipv4Header iph;
  iph.total_length = kIpHeaderLen + kTcpHeaderLen;
  iph.protocol = kProtoTcp;
  iph.src = Ipv4Addr(10, 1, 0, 2);
  iph.dst = Ipv4Addr(10, 1, 0, 1);
  iph.serialize(w);
  TcpHeader tcp;
  tcp.src_port = 1;
  tcp.dst_port = 2;
  tcp.flags = tcpflag::kAck;
  tcp.serialize(w);

  h.ip->input(0, frame);
  ASSERT_EQ(h.to_tcp.size(), 1u);
  EXPECT_EQ(h.to_tcp[0].l4_offset, kEthHeaderLen + kIpHeaderLen);
  EXPECT_EQ(h.to_tcp[0].l4_length, kTcpHeaderLen);
  EXPECT_EQ(h.to_tcp[0].src, Ipv4Addr(10, 1, 0, 2));
  EXPECT_TRUE(h.to_udp.empty());
  // The transport owns the frame until rx_done.
  EXPECT_EQ(h.rx_pool->chunks_live(), 1u);
  h.ip->rx_done(h.to_tcp[0].frame);
  EXPECT_EQ(h.rx_pool->chunks_live(), 0u);
}

TEST(Ip, ForeignDestinationNotDelivered) {
  Host h;
  chan::RichPtr frame =
      h.rx_pool->alloc(kEthHeaderLen + kIpHeaderLen + kUdpHeaderLen);
  auto view = h.rx_pool->write_view(frame);
  ByteWriter w{view};
  EthHeader eth;
  eth.dst = MacAddr::local(1);
  eth.ethertype = kEtherTypeIpv4;
  eth.serialize(w);
  Ipv4Header iph;
  iph.total_length = kIpHeaderLen + kUdpHeaderLen;
  iph.protocol = kProtoUdp;
  iph.src = Ipv4Addr(10, 1, 0, 2);
  iph.dst = Ipv4Addr(10, 1, 0, 99);  // not us; no forwarding on the edge
  iph.serialize(w);
  UdpHeader udp;
  udp.length = kUdpHeaderLen;
  udp.serialize(w);
  h.ip->input(0, frame);
  EXPECT_TRUE(h.to_udp.empty());
  EXPECT_EQ(h.rx_pool->chunks_live(), 0u);
}

TEST(Ip, ConfigSerializationRoundTrip) {
  Host h;
  const IpConfig& cfg = h.ip->config();
  const auto bytes = cfg.serialize();
  auto parsed = IpConfig::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->interfaces.size(), 1u);
  EXPECT_EQ(parsed->interfaces[0].addr, Ipv4Addr(10, 1, 0, 1));
  EXPECT_EQ(parsed->interfaces[0].mac, MacAddr::local(1));
  EXPECT_EQ(parsed->interfaces[0].subnet.prefix_len, 24);
  ASSERT_EQ(parsed->routes.size(), 1u);
  EXPECT_EQ(parsed->routes[0].gateway, Ipv4Addr(10, 1, 0, 254));
  EXPECT_FALSE(
      IpConfig::parse(std::span(bytes).first(bytes.size() - 2)).has_value());
}
