// Multi-queue NIC RSS and the per-shard RX fast path.
//
// Unit level: the NIC's RSS hash unit must agree with the transport plane's
// steer_shard for every steerable frame (that agreement is the whole design
// — it makes a queue a shard's private inbox) and refuse everything else;
// a direct IpFastPath harness checks PF verdict caching, the
// pending-before-cache ordering discipline, cache invalidation and the
// fallback of odd traffic.  System level: the full testbed checks that
// rx_queues = 1 (the default) never arms the machinery, that with
// rx_queues == tcp_shards the fast path actually carries the inbound load,
// that a PF rule change invalidates every shard's cached verdicts end to
// end (blocked flows start, unblocked flows resume), and that killing one
// replica drains its queue without leaking a single loaned buffer.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/apps.h"
#include "src/core/testbed.h"
#include "src/drv/nic.h"
#include "src/net/ip.h"
#include "src/net/ip_fastpath.h"
#include "src/net/steering.h"
#include "src/servers/driver_server.h"
#include "src/servers/ip_server.h"
#include "src/servers/pf_server.h"
#include "src/servers/tcp_server.h"
#include "src/sim/sim.h"

using namespace newtos;
using namespace newtos::net;

namespace {

constexpr Ipv4Addr kOurAddr{0x0a010001};   // 10.1.0.1
constexpr Ipv4Addr kRemoteA{0x0a010002};   // 10.1.0.2
constexpr Ipv4Addr kRemoteB{0x0a010003};   // 10.1.0.3

// One inbound TCP/UDP frame from src:sport to dst:dport with `payload`
// bytes after the L4 header, written into `pool`.
chan::RichPtr make_l4(chan::Pool& pool, std::uint8_t proto, Ipv4Addr src,
                      Ipv4Addr dst, std::uint16_t sport, std::uint16_t dport,
                      std::uint16_t payload = 100, std::uint32_t seq = 0,
                      std::uint8_t flags = tcpflag::kAck) {
  const std::size_t l4_hdr =
      proto == kProtoTcp ? kTcpHeaderLen : kUdpHeaderLen;
  const std::uint16_t l4_len = static_cast<std::uint16_t>(l4_hdr + payload);
  chan::RichPtr frame = pool.alloc(
      static_cast<std::uint32_t>(kEthHeaderLen + kIpHeaderLen + l4_len));
  auto view = pool.write_view(frame);
  ByteWriter w{view};
  EthHeader eth;
  eth.dst = MacAddr::local(1);
  eth.src = MacAddr::local(9);
  eth.ethertype = kEtherTypeIpv4;
  eth.serialize(w);
  Ipv4Header iph;
  iph.total_length = static_cast<std::uint16_t>(kIpHeaderLen + l4_len);
  iph.protocol = proto;
  iph.src = src;
  iph.dst = dst;
  iph.serialize(w);
  if (proto == kProtoTcp) {
    TcpHeader h;
    h.src_port = sport;
    h.dst_port = dport;
    h.seq = seq;
    h.flags = flags;
    h.window = 1000;
    h.serialize(w);
  } else {
    UdpHeader h;
    h.src_port = sport;
    h.dst_port = dport;
    h.length = l4_len;
    h.serialize(w);
  }
  for (std::uint16_t i = 0; i < payload; ++i)
    w.u8(static_cast<std::uint8_t>(i));
  return frame;
}

}  // namespace

// --- unit: the RSS hash unit -------------------------------------------------------

TEST(RssClassify, AgreesWithTransportSteeringForRandomTuples) {
  chan::PoolRegistry pools;
  chan::Pool& pool = pools.create("t", "rx", 4u << 20);
  // Deterministic LCG: the point is tuple variety, not randomness.
  std::uint64_t rng = 0x243f6a8885a308d3ull;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 32);
  };
  for (int i = 0; i < 256; ++i) {
    const Ipv4Addr src{next()};
    const Ipv4Addr dst{next()};
    const auto sport = static_cast<std::uint16_t>(next());
    const auto dport = static_cast<std::uint16_t>(next());
    const std::uint8_t proto = (i % 2 == 0) ? kProtoTcp : kProtoUdp;
    chan::RichPtr f = make_l4(pool, proto, src, dst, sport, dport);
    const auto rss = drv::SimNic::rss_classify(pools.read(f));
    ASSERT_TRUE(rss.steerable);
    EXPECT_EQ(rss.proto, proto);
    EXPECT_EQ(rss.hash, flow_hash(src, dst, sport, dport));
    // queue = hash % N must be the same replica steer_shard picks: the
    // queue really is the shard's private inbox.
    for (int shards : {1, 2, 4, 8}) {
      EXPECT_EQ(
          static_cast<int>(rss.hash % static_cast<std::uint32_t>(shards)),
          steer_shard(src, dst, sport, dport, shards));
    }
    pool.release(f);
  }
}

TEST(RssClassify, NonSteerableFramesStayOnQueueZero) {
  chan::PoolRegistry pools;
  chan::Pool& pool = pools.create("t", "rx", 1u << 20);

  // ARP: wrong ethertype.
  {
    chan::RichPtr f = pool.alloc(kEthHeaderLen + kArpPacketLen);
    auto view = pool.write_view(f);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::broadcast();
    eth.src = MacAddr::local(9);
    eth.ethertype = kEtherTypeArp;
    eth.serialize(w);
    ArpPacket arp;
    arp.op = kArpOpRequest;
    arp.serialize(w);
    EXPECT_FALSE(drv::SimNic::rss_classify(pools.read(f)).steerable);
    pool.release(f);
  }
  // ICMP: not a steerable protocol.
  {
    chan::RichPtr f =
        pool.alloc(kEthHeaderLen + kIpHeaderLen + kIcmpHeaderLen);
    auto view = pool.write_view(f);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::local(1);
    eth.src = MacAddr::local(9);
    eth.ethertype = kEtherTypeIpv4;
    eth.serialize(w);
    Ipv4Header iph;
    iph.total_length = kIpHeaderLen + kIcmpHeaderLen;
    iph.protocol = kProtoIcmp;
    iph.src = kRemoteA;
    iph.dst = kOurAddr;
    iph.serialize(w);
    IcmpHeader icmp;
    icmp.type = kIcmpEchoRequest;
    icmp.serialize(w);
    EXPECT_FALSE(drv::SimNic::rss_classify(pools.read(f)).steerable);
    pool.release(f);
  }
  // A TCP claim whose total_length cannot cover the ports (fragment-like
  // truncation): the hash unit refuses rather than hashing garbage.
  {
    chan::RichPtr f = pool.alloc(kEthHeaderLen + kIpHeaderLen + 2);
    auto view = pool.write_view(f);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::local(1);
    eth.src = MacAddr::local(9);
    eth.ethertype = kEtherTypeIpv4;
    eth.serialize(w);
    Ipv4Header iph;
    iph.total_length = kIpHeaderLen + 2;  // < header + 4 port bytes
    iph.protocol = kProtoTcp;
    iph.src = kRemoteA;
    iph.dst = kOurAddr;
    iph.serialize(w);
    w.u16(0xdead);
    EXPECT_FALSE(drv::SimNic::rss_classify(pools.read(f)).steerable);
    pool.release(f);
  }
  // A frame too short to even hold the L4 ports.
  {
    chan::RichPtr f = pool.alloc(kEthHeaderLen + 4);
    EXPECT_FALSE(drv::SimNic::rss_classify(pools.read(f)).steerable);
    pool.release(f);
  }
}

// --- unit: the per-shard fast path -------------------------------------------------

namespace {

// Direct harness around one IpFastPath with every hook recorded.
struct FastHost {
  chan::PoolRegistry pools;
  chan::Pool* rx_pool;
  std::vector<std::pair<std::uint8_t, L4Packet>> delivered;
  std::vector<L4AggPacket> aggs;
  std::vector<std::pair<PfQuery, std::uint64_t>> pf_queries;
  std::vector<std::pair<int, chan::RichPtr>> fallbacks;
  std::unique_ptr<IpFastPath> fp;

  explicit FastHost(bool use_pf = true, bool gro = false) {
    rx_pool = &pools.create("ip", "rx", 4u << 20);
    IpFastPath::Env env;
    env.pools = &pools;
    env.deliver = [this](std::uint8_t proto, L4Packet&& pkt) {
      delivered.emplace_back(proto, pkt);
    };
    env.deliver_agg = [this](L4AggPacket&& agg) {
      aggs.push_back(std::move(agg));
    };
    env.pf_check = [this](const PfQuery& q, std::uint64_t cookie) {
      pf_queries.emplace_back(q, cookie);
    };
    env.fallback = [this](int ifindex, const chan::RichPtr& frame) {
      fallbacks.emplace_back(ifindex, frame);
    };
    env.release = [this](const chan::RichPtr& frame) {
      rx_pool->release(frame);
    };
    IpFastPath::Config cfg;
    Interface ifc;
    ifc.index = 0;
    ifc.mac = MacAddr::local(1);
    ifc.addr = kOurAddr;
    ifc.subnet = Ipv4Net{Ipv4Addr(10, 1, 0, 0), 24};
    cfg.interfaces.push_back(ifc);
    cfg.use_pf = use_pf;
    cfg.gro = gro;
    fp = std::make_unique<IpFastPath>(std::move(env), cfg);
  }

  void feed(const chan::RichPtr& frame) {
    fp->input_burst(0, std::span<const chan::RichPtr>{&frame, 1});
  }
};

}  // namespace

TEST(FastPath, HoldsFramesUntilPassVerdictThenCaches) {
  FastHost h;
  chan::RichPtr f = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                            40000, 80);
  h.feed(f);
  ASSERT_EQ(h.pf_queries.size(), 1u);
  EXPECT_EQ(h.pf_queries[0].first.dir, PfDir::In);
  EXPECT_EQ(h.pf_queries[0].first.dport, 80);
  EXPECT_TRUE(h.delivered.empty());  // held until the verdict
  EXPECT_EQ(h.fp->pending_flows(), 1u);

  h.fp->pf_verdict(h.pf_queries[0].second, true);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].first, kProtoTcp);
  EXPECT_EQ(h.fp->cache_size(), 1u);
  EXPECT_EQ(h.fp->stats().fast_frames, 1u);

  // Second frame of the flow: cache hit, no new query.
  chan::RichPtr f2 = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                             40000, 80, 100, 100);
  h.feed(f2);
  EXPECT_EQ(h.pf_queries.size(), 1u);
  EXPECT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.fp->stats().cache_hits, 1u);
}

TEST(FastPath, BlockVerdictDropsAndKeepsBlockingCheaply) {
  FastHost h;
  const std::size_t live_before = h.rx_pool->chunks_live();
  chan::RichPtr f = make_l4(*h.rx_pool, kProtoTcp, kRemoteB, kOurAddr,
                            41000, 23);
  h.feed(f);
  ASSERT_EQ(h.pf_queries.size(), 1u);
  h.fp->pf_verdict(h.pf_queries[0].second, false);
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_EQ(h.fp->stats().dropped_pf, 1u);
  EXPECT_EQ(h.rx_pool->chunks_live(), live_before);  // released, not leaked

  // The block verdict is cached too: the next frame dies without a query.
  chan::RichPtr f2 = make_l4(*h.rx_pool, kProtoTcp, kRemoteB, kOurAddr,
                             41000, 23);
  h.feed(f2);
  EXPECT_EQ(h.pf_queries.size(), 1u);
  EXPECT_EQ(h.fp->stats().cache_hits, 1u);
  EXPECT_EQ(h.fp->stats().dropped_pf, 2u);
  EXPECT_EQ(h.rx_pool->chunks_live(), live_before);
}

TEST(FastPath, PendingFlowHoldsLaterFramesAndDrainsInOrder) {
  FastHost h;
  chan::RichPtr a1 = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                             40000, 80, /*payload=*/10);
  chan::RichPtr a2 = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                             40000, 80, /*payload=*/20);
  h.feed(a1);
  h.feed(a2);  // same flow, verdict still in flight: must queue behind it
  ASSERT_EQ(h.pf_queries.size(), 1u);
  EXPECT_TRUE(h.delivered.empty());

  h.fp->pf_verdict(h.pf_queries[0].second, true);
  ASSERT_EQ(h.delivered.size(), 2u);
  // Arrival order survives the hold: payload 10 first, then 20.
  EXPECT_EQ(h.delivered[0].second.l4_length, kTcpHeaderLen + 10);
  EXPECT_EQ(h.delivered[1].second.l4_length, kTcpHeaderLen + 20);
}

TEST(FastPath, InvalidateCacheForcesRequery) {
  FastHost h;
  chan::RichPtr f = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                            40000, 80);
  h.feed(f);
  h.fp->pf_verdict(h.pf_queries[0].second, true);
  ASSERT_EQ(h.fp->cache_size(), 1u);

  h.fp->invalidate_cache();  // what kPfCacheInval does in the shard
  EXPECT_EQ(h.fp->cache_size(), 0u);

  chan::RichPtr f2 = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                             40000, 80);
  h.feed(f2);
  EXPECT_EQ(h.pf_queries.size(), 2u);  // re-judged, not served from cache
}

TEST(FastPath, NonIpv4AndNotOursFallBackToClassicPath) {
  FastHost h;
  // ARP frame: wrong ethertype.
  chan::RichPtr arp = h.rx_pool->alloc(kEthHeaderLen + kArpPacketLen);
  {
    auto view = h.rx_pool->write_view(arp);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::broadcast();
    eth.src = MacAddr::local(9);
    eth.ethertype = kEtherTypeArp;
    eth.serialize(w);
    ArpPacket p;
    p.op = kArpOpRequest;
    p.serialize(w);
  }
  h.feed(arp);
  EXPECT_EQ(h.fallbacks.size(), 1u);

  // TCP frame addressed to someone else: slow-path material too.
  chan::RichPtr other = make_l4(*h.rx_pool, kProtoTcp, kRemoteA,
                                Ipv4Addr(10, 1, 0, 9), 40000, 80);
  h.feed(other);
  EXPECT_EQ(h.fallbacks.size(), 2u);
  EXPECT_EQ(h.fp->stats().fallback_frames, 2u);
  EXPECT_TRUE(h.pf_queries.empty());  // the slow path judges them itself
  for (auto& [ifindex, frame] : h.fallbacks) h.rx_pool->release(frame);
}

TEST(FastPath, SlowPathFrameQueuesBehindVerdictAndFlushesTheCache) {
  FastHost h;
  // Frame 1 of the flow files a query.  A same-flow frame that is
  // slow-path material (here: it arrived on an interface this shard does
  // not know, the simplest way to keep the 4-tuple identical) must NOT
  // overtake the verdict — it queues behind it and drains as a fallback.
  chan::RichPtr f1 = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                             40000, 80, /*payload=*/10);
  h.fp->input_burst(0, std::span<const chan::RichPtr>{&f1, 1});
  ASSERT_EQ(h.pf_queries.size(), 1u);

  chan::RichPtr f2 = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                             40000, 80, /*payload=*/20);
  h.fp->input_burst(99, std::span<const chan::RichPtr>{&f2, 1});
  EXPECT_TRUE(h.fallbacks.empty());  // held, not handed over early
  EXPECT_TRUE(h.delivered.empty());

  // The verdict drains both in arrival order: deliver f1, then hand f2 to
  // the slow path — and the handoff erases the just-cached verdict, so
  // the slow path's judgement cannot be shadowed by a stale fast-path
  // cache entry (flush-before-fallback, the satellite ordering fix).
  h.fp->pf_verdict(h.pf_queries[0].second, true);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].second.l4_length, kTcpHeaderLen + 10);
  ASSERT_EQ(h.fallbacks.size(), 1u);
  EXPECT_EQ(h.fallbacks[0].first, 99);
  EXPECT_EQ(h.fp->cache_size(), 0u);

  // With the cache flushed, the next same-flow frame re-judges.
  chan::RichPtr f3 = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                             40000, 80);
  h.feed(f3);
  EXPECT_EQ(h.pf_queries.size(), 2u);
  for (auto& [ifindex, frame] : h.fallbacks) h.rx_pool->release(frame);
}

TEST(FastPath, MalformedFrameDroppedNotForwarded) {
  FastHost h;
  const std::size_t live_before = h.rx_pool->chunks_live();
  // total_length claims more bytes than the frame holds.
  chan::RichPtr f = h.rx_pool->alloc(kEthHeaderLen + kIpHeaderLen + 8);
  {
    auto view = h.rx_pool->write_view(f);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::local(1);
    eth.src = MacAddr::local(9);
    eth.ethertype = kEtherTypeIpv4;
    eth.serialize(w);
    Ipv4Header iph;
    iph.total_length = 4000;  // lies
    iph.protocol = kProtoTcp;
    iph.src = kRemoteA;
    iph.dst = kOurAddr;
    iph.serialize(w);
    w.u32(0);
    w.u32(0);
  }
  h.feed(f);
  EXPECT_EQ(h.fp->stats().dropped_malformed, 1u);
  EXPECT_TRUE(h.fallbacks.empty());
  EXPECT_EQ(h.rx_pool->chunks_live(), live_before);
}

TEST(FastPath, ResubmitRepeatsPendingQueriesAfterPfRestart) {
  FastHost h;
  chan::RichPtr f = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                            40000, 80);
  h.feed(f);
  ASSERT_EQ(h.pf_queries.size(), 1u);
  const std::uint64_t cookie = h.pf_queries[0].second;

  EXPECT_EQ(h.fp->resubmit_pf(), 1u);
  ASSERT_EQ(h.pf_queries.size(), 2u);
  EXPECT_EQ(h.pf_queries[1].second, cookie);  // same cookie, same query

  h.fp->pf_verdict(cookie, true);
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(FastPath, GroAggregatesWithinBurstAndQueriesOnce) {
  FastHost h(/*use_pf=*/true, /*gro=*/true);
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                            40000, 80, 100, 1000 + 100 * i));
  }
  h.fp->input_burst(0, burst);
  ASSERT_EQ(h.pf_queries.size(), 1u);  // one query for the whole aggregate
  EXPECT_TRUE(h.aggs.empty());

  h.fp->pf_verdict(h.pf_queries[0].second, true);
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 4u);
  EXPECT_EQ(h.fp->stats().gro_aggs, 1u);
  EXPECT_EQ(h.fp->stats().gro_frames, 4u);
  EXPECT_EQ(h.fp->stats().fast_frames, 4u);
}

TEST(FastPath, ReleaseAllReturnsEveryHeldFrame) {
  FastHost h;
  const std::size_t live_before = h.rx_pool->chunks_live();
  for (int i = 0; i < 3; ++i) {
    chan::RichPtr f = make_l4(*h.rx_pool, kProtoTcp, kRemoteA, kOurAddr,
                              40000, 80, 100, 100 * i);
    h.feed(f);
  }
  ASSERT_EQ(h.pf_queries.size(), 1u);  // one pending flow holding 3 frames
  h.fp->release_all();  // what a replica's teardown does
  EXPECT_EQ(h.rx_pool->chunks_live(), live_before);
  EXPECT_EQ(h.fp->pending_flows(), 0u);
  EXPECT_EQ(h.fp->cache_size(), 0u);
}

// --- system: the full testbed ------------------------------------------------------

namespace {

TestbedOptions rss_opts(int rx_queues, int tcp_shards) {
  TestbedOptions o;
  o.mode = StackMode::kSplitSyscall;
  o.nics = 1;
  o.tcp_shards = tcp_shards;
  o.rx_queues = rx_queues;
  o.app_write_size = 65536;
  return o;
}

// Bulk traffic INTO the system under test: receiver on newtos, sender on
// the ideal peer.
struct BulkIn {
  std::unique_ptr<apps::BulkReceiver> rx;
  std::unique_ptr<apps::BulkSender> tx;

  BulkIn(Testbed& tb, std::uint16_t port) {
    AppActor* rx_app = tb.newtos().add_app("rx" + std::to_string(port));
    apps::BulkReceiver::Config rc;
    rc.port = port;
    rc.record_series = false;
    rx = std::make_unique<apps::BulkReceiver>(tb.newtos(), rx_app, rc);
    rx->start();
    AppActor* tx_app = tb.peer().add_app("tx" + std::to_string(port));
    apps::BulkSender::Config sc;
    sc.dst = tb.peer().peer_addr(0);
    sc.port = port;
    sc.write_size = 65536;
    tx = std::make_unique<apps::BulkSender>(tb.peer(), tx_app, sc);
    tx->start();
  }
};

std::uint64_t total_fast_frames(Testbed& tb) {
  std::uint64_t fast = 0;
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    auto* srv = dynamic_cast<servers::TcpServer*>(
        tb.newtos().transport_server('T', s));
    if (srv != nullptr && srv->fastpath() != nullptr)
      fast += srv->fastpath()->stats().fast_frames;
  }
  return fast;
}

}  // namespace

TEST(Rss, SingleQueueDefaultNeverArmsTheMachinery) {
  Testbed tb(rss_opts(/*rx_queues=*/1, /*tcp_shards=*/4));
  BulkIn flow(tb, 5001);
  tb.run_until(300 * sim::kMillisecond);

  EXPECT_GT(flow.rx->bytes(), 1u << 20);
  EXPECT_EQ(tb.newtos().nic(0)->rx_queue_count(), 1);
  auto* drv = dynamic_cast<servers::DriverServer*>(
      tb.newtos().server(servers::driver_name(0)));
  ASSERT_NE(drv, nullptr);
  EXPECT_EQ(drv->rx_fast_frames(), 0u);
  // No shard grew a fast path.
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    auto* srv = dynamic_cast<servers::TcpServer*>(
        tb.newtos().transport_server('T', s));
    ASSERT_NE(srv, nullptr);
    EXPECT_EQ(srv->fastpath(), nullptr);
  }
}

TEST(Rss, FastPathCarriesInboundLoadWithMatchedQueues) {
  Testbed tb(rss_opts(/*rx_queues=*/4, /*tcp_shards=*/4));
  std::vector<std::unique_ptr<BulkIn>> flows;
  for (int f = 0; f < 6; ++f) {
    flows.push_back(std::make_unique<BulkIn>(
        tb, static_cast<std::uint16_t>(6001 + f)));
  }
  tb.run_until(500 * sim::kMillisecond);

  std::uint64_t bytes = 0;
  for (auto& f : flows) bytes += f->rx->bytes();
  EXPECT_GT(bytes, 4u << 20);

  // The NIC really spread the load across queues...
  EXPECT_EQ(tb.newtos().nic(0)->rx_queue_count(), 4);
  int busy_queues = 0;
  for (int q = 0; q < 4; ++q) {
    if (tb.newtos().nic(0)->queue_stats(q).rx_frames > 0) ++busy_queues;
  }
  EXPECT_GE(busy_queues, 2);

  // ...and with queues == shards nearly every steerable frame took the
  // fast path straight into its home replica.
  auto* drv = dynamic_cast<servers::DriverServer*>(
      tb.newtos().server(servers::driver_name(0)));
  ASSERT_NE(drv, nullptr);
  EXPECT_GT(drv->rx_fast_frames(), drv->rx_frames() / 2);
  EXPECT_GT(total_fast_frames(tb), 0u);

  // Every connection still lives on the replica its tuple hashes to.
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    for (const auto& key : tb.newtos().tcp_engine(s)->connection_keys()) {
      EXPECT_EQ(steer_shard(key.dst, key.src, key.dport, key.sport,
                            tb.newtos().tcp_shard_count()),
                s);
    }
  }
}

TEST(Rss, PfRuleChangeInvalidatesEveryShardCacheEndToEnd) {
  Testbed tb(rss_opts(/*rx_queues=*/2, /*tcp_shards=*/2));
  BulkIn flow_a(tb, 5001);
  tb.run_until(400 * sim::kMillisecond);
  EXPECT_GT(flow_a.rx->bytes(), 1u << 20);

  // The running flow filled the shard caches.
  std::uint64_t hits = 0;
  std::size_t cached = 0;
  for (int s = 0; s < 2; ++s) {
    auto* srv = dynamic_cast<servers::TcpServer*>(
        tb.newtos().transport_server('T', s));
    ASSERT_NE(srv, nullptr);
    ASSERT_NE(srv->fastpath(), nullptr);
    hits += srv->fastpath()->stats().cache_hits;
    cached += srv->fastpath()->cache_size();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(cached, 0u);

  // Push a new rule set: block inbound TCP to port 6002 (nothing uses it
  // yet) and keep the stateful outbound pass.
  auto* pf = dynamic_cast<servers::PfServer*>(
      tb.newtos().server(servers::kPfName));
  ASSERT_NE(pf, nullptr);
  auto make_rules = [](bool block_6002) {
    std::vector<net::PfRule> rules;
    if (block_6002) {
      net::PfRule block;
      block.action = net::PfAction::Block;
      block.dir = net::PfDir::In;
      block.protocol = net::kProtoTcp;
      block.dport = net::PortRange{6002, 6002};
      rules.push_back(block);
    }
    net::PfRule keep;
    keep.action = net::PfAction::Pass;
    keep.dir = net::PfDir::Out;
    keep.keep_state = true;
    rules.push_back(keep);
    return rules;
  };
  // In steady state the established flow runs entirely from the caches:
  // no new queries.  After the rule push the kPfCacheInval broadcast must
  // flush every shard, so the very next frame of the ESTABLISHED flow
  // files a fresh query — the query counter moving is the proof the
  // invalidation reached the shards (the cache refills immediately under
  // live traffic, so its size proves nothing).
  std::uint64_t queries_before = 0;
  for (int s = 0; s < 2; ++s) {
    auto* srv = dynamic_cast<servers::TcpServer*>(
        tb.newtos().transport_server('T', s));
    queries_before += srv->fastpath()->stats().pf_queries;
  }
  pf->apply_rules(make_rules(/*block_6002=*/true));
  tb.run_until(tb.sim().now() + 10 * sim::kMillisecond);
  std::uint64_t queries_after = 0;
  for (int s = 0; s < 2; ++s) {
    auto* srv = dynamic_cast<servers::TcpServer*>(
        tb.newtos().transport_server('T', s));
    queries_after += srv->fastpath()->stats().pf_queries;
  }
  EXPECT_GT(queries_after, queries_before);

  // A new inbound flow to the blocked port cannot establish: the SYN is
  // judged on the fast path and the block verdict sticks (and is cached).
  BulkIn flow_b(tb, 6002);
  tb.run_until(tb.sim().now() + 300 * sim::kMillisecond);
  EXPECT_EQ(flow_b.rx->bytes(), 0u);
  std::uint64_t dropped = 0;
  for (int s = 0; s < 2; ++s) {
    auto* srv = dynamic_cast<servers::TcpServer*>(
        tb.newtos().transport_server('T', s));
    dropped += srv->fastpath()->stats().dropped_pf;
  }
  EXPECT_GT(dropped, 0u);
  // Flow A sails on: its verdicts were re-judged pass after the flush.
  const std::uint64_t a_bytes_mid = flow_a.rx->bytes();
  EXPECT_GT(a_bytes_mid, 1u << 20);

  // Unblock.  The cached block verdict for flow B's tuple MUST be flushed
  // by the second broadcast, or the retransmitted SYN would be dropped
  // from the stale cache forever — the exact bug satellite 2 exists for.
  pf->apply_rules(make_rules(/*block_6002=*/false));
  tb.run_until(tb.sim().now() + 2 * sim::kSecond);
  EXPECT_GT(flow_b.rx->bytes(), 0u);
  EXPECT_GT(flow_a.rx->bytes(), a_bytes_mid);
}

TEST(Rss, KilledReplicaQueueDrainsWithoutLeakingLoans) {
  Testbed tb(rss_opts(/*rx_queues=*/4, /*tcp_shards=*/4));
  std::vector<std::unique_ptr<BulkIn>> flows;
  for (int f = 0; f < 6; ++f) {
    flows.push_back(std::make_unique<BulkIn>(
        tb, static_cast<std::uint16_t>(6001 + f)));
  }
  tb.run_until(400 * sim::kMillisecond);
  ASSERT_GT(total_fast_frames(tb), 0u);

  // Kill a replica that is actively receiving fast-path frames.
  int victim = 0;
  for (int s = 0; s < 4; ++s) {
    auto* srv = dynamic_cast<servers::TcpServer*>(
        tb.newtos().transport_server('T', s));
    if (srv->fastpath() != nullptr &&
        srv->fastpath()->stats().fast_frames > 0) {
      victim = s;
      break;
    }
  }
  tb.sim().at(tb.sim().now() + sim::kMicrosecond, [&] {
    tb.newtos().server(servers::tcp_shard_name(victim))->kill();
  });
  tb.run_until(1200 * sim::kMillisecond);

  // The replica is back and not one loaned RX buffer leaked: frames in
  // the dead incarnation's queue were reclaimed by IP's ledger sweep,
  // frames held by its fast path were released by teardown.
  EXPECT_TRUE(
      tb.newtos().server(servers::tcp_shard_name(victim))->alive());
  chan::Pool* rx_pool = tb.newtos().pools().find_by_name("ip.rx");
  ASSERT_NE(rx_pool, nullptr);
  EXPECT_EQ(rx_pool->borrows_outstanding(), 0u);

  // And traffic on the surviving replicas never stopped.
  std::uint64_t bytes = 0;
  for (auto& f : flows) bytes += f->rx->bytes();
  EXPECT_GT(bytes, 4u << 20);
  // ~Testbed's abort-on-loan-leak backstop also covers this test.
}
