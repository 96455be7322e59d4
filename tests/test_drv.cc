// Unit tests: simulated NIC (rings, DMA, TSO split, reset) and wire.
#include <gtest/gtest.h>

#include "src/drv/nic.h"
#include "src/drv/wire.h"
#include "src/net/checksum.h"
#include "src/net/headers.h"

using namespace newtos;
using namespace newtos::drv;

namespace {

struct Rig {
  sim::Simulator sim;
  chan::PoolRegistry pools;
  chan::Pool* pool;
  Wire wire;
  SimNic a;
  SimNic b;

  explicit Rig(Wire::Config wc = Wire::Config{},
               SimNic::Config nc = SimNic::Config{})
      : pool(&pools.create("t", "buf", 8u << 20)),
        wire(sim, wc),
        a(sim, pools, net::MacAddr::local(1), nc),
        b(sim, pools, net::MacAddr::local(2), nc) {
    a.attach_wire(&wire, 0);
    b.attach_wire(&wire, 1);
  }

  // Builds a valid ETH+IP+TCP frame header chunk addressed a -> b.
  chan::RichPtr make_frame_hdr(std::uint32_t payload_len,
                               std::uint32_t seq = 1000,
                               std::uint16_t sport = 1) {
    chan::RichPtr hdr = pool->alloc(
        net::kEthHeaderLen + net::kIpHeaderLen + net::kTcpHeaderLen);
    auto view = pool->write_view(hdr);
    net::ByteWriter w{view};
    net::EthHeader eth;
    eth.dst = b.mac();
    eth.src = a.mac();
    eth.ethertype = net::kEtherTypeIpv4;
    eth.serialize(w);
    net::Ipv4Header ip;
    ip.total_length = static_cast<std::uint16_t>(
        net::kIpHeaderLen + net::kTcpHeaderLen + payload_len);
    ip.id = 7;
    ip.protocol = net::kProtoTcp;
    ip.src = net::Ipv4Addr(10, 0, 0, 1);
    ip.dst = net::Ipv4Addr(10, 0, 0, 2);
    ip.serialize(w);
    net::TcpHeader tcp;
    tcp.src_port = sport;
    tcp.dst_port = 2;
    tcp.seq = seq;
    tcp.flags = net::tcpflag::kAck | net::tcpflag::kPsh;
    tcp.serialize(w);
    return hdr;
  }
};

}  // namespace

TEST(Wire, DeliversWithSerializationDelay) {
  sim::Simulator sim;
  Wire::Config wc;
  wc.bits_per_sec = 1e9;
  wc.propagation = 1000;
  Wire wire(sim, wc);
  sim::Time delivered_at = -1;
  wire.attach(1, [&](std::vector<std::byte>&&) { delivered_at = sim.now(); });
  std::vector<std::byte> frame(1514);
  const sim::Time done = wire.transmit(0, std::move(frame));
  // (1514 + 24 overhead) * 8 bits at 1 Gb/s = 12304 ns.
  EXPECT_EQ(done, 12304);
  sim.run_to_completion();
  EXPECT_EQ(delivered_at, done + 1000);
}

TEST(Wire, BackToBackFramesQueueAtLineRate) {
  sim::Simulator sim;
  Wire wire(sim, Wire::Config{});
  const sim::Time t1 = wire.transmit(0, std::vector<std::byte>(1514));
  const sim::Time t2 = wire.transmit(0, std::vector<std::byte>(1514));
  EXPECT_EQ(t2, 2 * t1);  // second frame waits for the first
}

TEST(Wire, LossDropsDeterministically) {
  sim::Simulator sim;
  Wire::Config wc;
  wc.loss = 0.5;
  wc.seed = 9;
  Wire wire(sim, wc);
  int got = 0;
  wire.attach(1, [&](std::vector<std::byte>&&) { ++got; });
  for (int i = 0; i < 1000; ++i)
    wire.transmit(0, std::vector<std::byte>(100));
  sim.run_to_completion();
  EXPECT_GT(got, 350);
  EXPECT_LT(got, 650);
  EXPECT_EQ(wire.frames_lost() + wire.frames_delivered(), 1000u);
}

TEST(Nic, TxRxRoundTripDma) {
  Rig rig;
  chan::RichPtr hdr = rig.make_frame_hdr(100);
  chan::RichPtr pay = rig.pool->alloc(100);
  auto pv = rig.pool->write_view(pay);
  std::fill(pv.begin(), pv.end(), std::byte{0x3c});

  chan::RichPtr rx_buf = rig.pool->alloc(2048);
  ASSERT_TRUE(rig.b.rx_post(rx_buf));

  chan::RichPtr got;
  std::uint32_t got_len = 0;
  rig.b.set_rx([&](int, std::vector<SimNic::RxCompletion>&& burst) {
    ASSERT_EQ(burst.size(), 1u);
    got = burst.front().buffer;
    got_len = burst.front().len;
  });
  bool tx_done = false;
  rig.a.set_tx_done([&](std::uint64_t cookie, bool ok) {
    EXPECT_EQ(cookie, 77u);
    EXPECT_TRUE(ok);
    tx_done = true;
  });

  net::TxFrame f;
  f.header = hdr;
  f.payload = {pay};
  ASSERT_TRUE(rig.a.tx_post(std::move(f), 77));
  rig.sim.run_to_completion();

  EXPECT_TRUE(tx_done);
  ASSERT_EQ(got_len, 54u + 100u);
  auto bytes = rig.pools.read(got);
  EXPECT_EQ(std::to_integer<int>(bytes[54]), 0x3c);  // payload DMA'd intact
}

TEST(Nic, MacFilterDropsForeignFrames) {
  Rig rig;
  chan::RichPtr hdr = rig.make_frame_hdr(0);
  // Rewrite dst MAC to someone else.
  auto view = rig.pool->write_view(hdr);
  view[0] = std::byte{0x02};
  view[5] = std::byte{0x99};
  chan::RichPtr rx_buf = rig.pool->alloc(2048);
  rig.b.rx_post(rx_buf);
  int got = 0;
  rig.b.set_rx([&](int, std::vector<SimNic::RxCompletion>&& burst) {
    got += static_cast<int>(burst.size());
  });
  net::TxFrame f;
  f.header = hdr;
  rig.a.tx_post(std::move(f), 1);
  rig.sim.run_to_completion();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(rig.b.rx_ring_level(), 1);  // buffer not consumed
}

TEST(Nic, NoBufferMeansDrop) {
  Rig rig;
  net::TxFrame f;
  f.header = rig.make_frame_hdr(0);
  rig.a.tx_post(std::move(f), 1);
  rig.sim.run_to_completion();
  EXPECT_EQ(rig.b.stats().rx_no_buffer, 1u);
}

TEST(Nic, TsoSplitsSuperframeCorrectly) {
  Rig rig;
  constexpr std::uint32_t kPayload = 4000;  // 3 frames at mss 1460
  chan::RichPtr hdr = rig.make_frame_hdr(kPayload, /*seq=*/5000);
  chan::RichPtr pay = rig.pool->alloc(kPayload);
  auto pv = rig.pool->write_view(pay);
  for (std::uint32_t i = 0; i < kPayload; ++i)
    pv[i] = std::byte{static_cast<std::uint8_t>(i)};

  for (int i = 0; i < 4; ++i) rig.b.rx_post(rig.pool->alloc(2048));
  std::vector<std::vector<std::byte>> frames;
  rig.b.set_rx([&](int, std::vector<SimNic::RxCompletion>&& burst) {
    for (const auto& c : burst) {
      auto bytes = rig.pools.read(chan::RichPtr{
          c.buffer.pool, c.buffer.offset, c.len, c.buffer.generation});
      frames.emplace_back(bytes.begin(), bytes.end());
    }
  });

  net::TxFrame f;
  f.header = hdr;
  f.payload = {pay};
  f.offload.tso = true;
  f.offload.mss = 1460;
  rig.a.tx_post(std::move(f), 1);
  rig.sim.run_to_completion();

  ASSERT_EQ(frames.size(), 3u);
  std::uint32_t expect_seq = 5000;
  std::uint32_t seen_payload = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& fr = frames[i];
    net::ByteReader r{fr};
    auto eth = net::EthHeader::parse(r);
    ASSERT_TRUE(eth.has_value());
    auto ip = net::Ipv4Header::parse(r, /*verify=*/true);  // csum re-done
    ASSERT_TRUE(ip.has_value()) << "bad IP checksum on piece " << i;
    auto tcp = net::TcpHeader::parse(r);
    ASSERT_TRUE(tcp.has_value());
    EXPECT_EQ(tcp->seq, expect_seq);
    const std::uint32_t piece =
        ip->total_length - net::kIpHeaderLen - net::kTcpHeaderLen;
    // PSH only on the last piece.
    EXPECT_EQ(tcp->has(net::tcpflag::kPsh), i == frames.size() - 1);
    // Payload bytes are the right slice of the original.
    for (std::uint32_t k = 0; k < piece; k += 131) {
      ASSERT_EQ(std::to_integer<std::uint8_t>(fr[54 + k]),
                static_cast<std::uint8_t>(seen_payload + k));
    }
    expect_seq += piece;
    seen_payload += piece;
  }
  EXPECT_EQ(seen_payload, kPayload);
  EXPECT_EQ(rig.a.stats().tx_frames, 3u);
  EXPECT_EQ(rig.a.stats().tx_descs, 1u);
}

TEST(Nic, ResetBouncesLinkAndClearsRings) {
  Rig rig;
  bool link_state = true;
  std::vector<bool> transitions;
  rig.a.set_link_change([&](bool up) {
    link_state = up;
    transitions.push_back(up);
  });
  net::TxFrame f;
  f.header = rig.make_frame_hdr(0);
  // Fill a few descriptors, then reset before they complete.
  rig.a.tx_post(std::move(f), 1);
  rig.a.reset();
  EXPECT_FALSE(rig.a.link_up());
  EXPECT_EQ(rig.a.tx_ring_free(), 256);
  rig.sim.run_to_completion();
  EXPECT_TRUE(rig.a.link_up());
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_FALSE(transitions[0]);
  EXPECT_TRUE(transitions[1]);
  EXPECT_EQ(rig.a.stats().resets, 1u);
}

TEST(Nic, WedgeDropsUntilReset) {
  Rig rig;
  rig.b.rx_post(rig.pool->alloc(2048));
  int got = 0;
  rig.b.set_rx([&](int, std::vector<SimNic::RxCompletion>&& burst) {
    got += static_cast<int>(burst.size());
  });
  rig.b.set_wedged(true);
  net::TxFrame f;
  f.header = rig.make_frame_hdr(0);
  rig.a.tx_post(std::move(f), 1);
  rig.sim.run_to_completion();
  EXPECT_EQ(got, 0);
  rig.b.reset();
  EXPECT_FALSE(rig.b.wedged());
}

TEST(Nic, RingFullRejectsDescriptors) {
  Rig rig;
  // Detach the wire so nothing drains.
  SimNic lone(rig.sim, rig.pools, net::MacAddr::local(9), SimNic::Config{});
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    net::TxFrame f;
    f.header = rig.make_frame_hdr(0);
    if (lone.tx_post(std::move(f), static_cast<std::uint64_t>(i)))
      ++accepted;
  }
  EXPECT_EQ(accepted, 256);
  EXPECT_GE(lone.stats().tx_ring_full, 44u);
}

// One receive interrupt per queue burst, on a 4-queue RSS device, with the
// device coalescing (4 frames) and not (0: one interrupt per frame).
class NicRssInterrupts : public ::testing::TestWithParam<int> {};

TEST_P(NicRssInterrupts, EachInterruptCarriesOneQueue) {
  constexpr int kQueues = 4;
  constexpr int kFrames = 64;
  SimNic::Config nc;
  nc.rx_queues = kQueues;
  nc.rx_coalesce_frames = GetParam();
  Rig rig(Wire::Config{}, nc);
  const bool coalescing = rig.b.coalescing();
  EXPECT_EQ(coalescing, GetParam() > 1);
  for (int q = 0; q < kQueues; ++q) {
    for (int i = 0; i < kFrames; ++i)
      ASSERT_TRUE(rig.b.rx_post(q, rig.pool->alloc(2048)));
  }

  int interrupts = 0;
  int frames = 0;
  std::vector<int> per_queue(kQueues, 0);
  rig.b.set_rx([&](int queue, std::vector<SimNic::RxCompletion>&& burst) {
    ++interrupts;
    ASSERT_FALSE(burst.empty());
    if (!coalescing) {
      EXPECT_EQ(burst.size(), 1u);
    }
    for (const auto& c : burst) {
      EXPECT_EQ(c.queue, queue);
      ASSERT_TRUE(c.steerable);
      EXPECT_EQ(static_cast<int>(c.rss_hash % kQueues), queue);
      ++frames;
      ++per_queue[queue];
    }
  });

  // One frame per flow: the source port varies the 4-tuple hash.
  for (int i = 0; i < kFrames; ++i) {
    net::TxFrame f;
    f.header = rig.make_frame_hdr(0, 1000, static_cast<std::uint16_t>(
                                               1000 + i));
    ASSERT_TRUE(rig.a.tx_post(std::move(f), static_cast<std::uint64_t>(i)));
  }
  rig.sim.run_to_completion();

  EXPECT_EQ(frames, kFrames);
  for (int q = 0; q < kQueues; ++q) EXPECT_GT(per_queue[q], 0) << "queue " << q;
  const auto& st = rig.b.stats();
  if (coalescing) {
    EXPECT_EQ(st.rx_bursts, static_cast<std::uint64_t>(interrupts));
    EXPECT_LT(interrupts, kFrames);
  } else {
    EXPECT_EQ(interrupts, kFrames);
    EXPECT_EQ(st.rx_bursts, 0u);
    EXPECT_EQ(st.rx_timer_flushes, 0u);
  }
  std::uint64_t queue_bursts = 0;
  for (int q = 0; q < kQueues; ++q) queue_bursts += rig.b.queue_stats(q).rx_bursts;
  EXPECT_EQ(queue_bursts, st.rx_bursts);
}

INSTANTIATE_TEST_SUITE_P(Coalescing, NicRssInterrupts,
                         ::testing::Values(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param > 1 ? "Coalesced" : "PerFrame";
                         });
