// Receive-side batching: NIC interrupt coalescing, the kDrvRxBurst wire
// format, and GRO aggregation at the IP -> TCP boundary.
//
// Unit level: a direct harness feeds crafted bursts to the central IpEngine
// and to a shard's IpFastPath — both run the shared GRO merge loop — and
// checks the merge/flush rules (flow change, out-of-order, flag boundaries)
// on both, plus the engine's PF batching.  System level: the full testbed
// runs bulk TCP into the system under test with coalescing + GRO on and
// checks amortization (messages per frame, ACKs per aggregate), sharded
// steering, timer flushes, and the loan ledger covering a TCP crash
// mid-aggregate.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/apps.h"
#include "src/core/testbed.h"
#include "src/net/ip.h"
#include "src/net/ip_fastpath.h"
#include "src/net/steering.h"
#include "src/servers/driver_server.h"
#include "src/servers/ip_server.h"
#include "src/sim/sim.h"

using namespace newtos;
using namespace newtos::net;

namespace {

// Which receive path runs the GRO merge loop (net/gro.h gro_merge): the
// central IP engine, or a shard's RX fast path.
enum class GroPath { kEngine, kFastPath };

// PF behind the path under test.  kRecord files queries and leaves them
// unanswered (the test answers); kPassAtOnce answers every query with a
// pass inside the call and forgets the verdict, so every aggregate and
// every per-frame frame files a query of its own on both paths.
enum class PfMode { kNone, kRecord, kPassAtOnce };

// Direct harness around one IpEngine or one IpFastPath with the GRO hooks
// installed.  Both paths report into the same vectors.
struct GroHost {
  sim::Simulator sim;
  chan::PoolRegistry pools;
  chan::Pool* hdr_pool;
  chan::Pool* rx_pool;
  std::vector<L4AggPacket> aggs;
  std::vector<L4Packet> to_tcp;
  // Every hand-up in order: the first member's seq and the member count
  // (1 for a per-frame delivery).
  std::vector<std::pair<std::uint32_t, std::size_t>> delivered;
  std::vector<std::vector<std::pair<PfQuery, std::uint64_t>>> pf_batches;
  std::vector<std::pair<PfQuery, std::uint64_t>> pf_queries;
  std::vector<std::uint8_t> pf_flags;  // tcp_flags of every query, in order
  GroPath path;
  std::unique_ptr<IpEngine> ip;
  std::unique_ptr<IpFastPath> fast;

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

  explicit GroHost(GroPath p, PfMode pf = PfMode::kNone) : path(p) {
    hdr_pool = &pools.create("ip", "hdr", 4u << 20);
    rx_pool = &pools.create("ip", "rx", 4u << 20);

    Interface ifc;
    ifc.index = 0;
    ifc.mac = MacAddr::local(1);
    ifc.addr = Ipv4Addr(10, 1, 0, 1);
    ifc.subnet = Ipv4Net{Ipv4Addr(10, 1, 0, 0), 24};

    if (path == GroPath::kFastPath) {
      IpFastPath::Env env;
      env.pools = &pools;
      env.deliver = [this](std::uint8_t, L4Packet&& pkt) { up(pkt); };
      env.deliver_agg = [this](L4AggPacket&& a) { up(std::move(a)); };
      env.release = [this](const chan::RichPtr& f) { rx_pool->release(f); };
      if (pf == PfMode::kPassAtOnce) {
        env.pf_check = [this](const PfQuery& q, std::uint64_t cookie) {
          pf_flags.push_back(q.tcp_flags);
          fast->pf_verdict(cookie, true);
          fast->invalidate_cache();
        };
      }
      IpFastPath::Config cfg;
      cfg.interfaces.push_back(ifc);
      cfg.use_pf = pf != PfMode::kNone;
      cfg.gro = true;
      fast = std::make_unique<IpFastPath>(std::move(env), std::move(cfg));
      return;
    }

    IpEngine::Env env;
    env.clock = &clock;
    env.timers = &timers;
    env.pools = &pools;
    env.hdr_pool = hdr_pool;
    env.rx_pool = rx_pool;
    env.send_frame = [](int, const TxFrame&, std::uint64_t) {
      return chan::RichPtr{};
    };
    env.deliver_tcp = [this](L4Packet&& pkt) { up(pkt); };
    env.deliver_udp = [](L4Packet&&) {};
    env.deliver_tcp_agg = [this](L4AggPacket&& a) { up(std::move(a)); };
    env.seg_done = [](const L4Req&, bool) {};
    if (pf == PfMode::kRecord) {
      env.pf_check = [this](const PfQuery& q, std::uint64_t cookie) {
        pf_queries.push_back({q, cookie});
      };
      env.pf_check_batch =
          [this](std::span<const std::pair<PfQuery, std::uint64_t>> qs) {
            pf_batches.emplace_back(qs.begin(), qs.end());
          };
    } else if (pf == PfMode::kPassAtOnce) {
      env.pf_check = [this](const PfQuery& q, std::uint64_t cookie) {
        pf_flags.push_back(q.tcp_flags);
        ip->pf_verdict(cookie, true);
      };
      env.pf_check_batch =
          [this](std::span<const std::pair<PfQuery, std::uint64_t>> qs) {
            for (const auto& [q, cookie] : qs) {
              pf_flags.push_back(q.tcp_flags);
              ip->pf_verdict(cookie, true);
            }
          };
    }

    IpConfig cfg;
    cfg.interfaces.push_back(ifc);
    ip = std::make_unique<IpEngine>(std::move(env), cfg);
  }

  void input_burst(std::span<const chan::RichPtr> burst) {
    if (path == GroPath::kFastPath) {
      fast->input_burst(0, burst);
    } else {
      ip->input_burst(0, burst);
    }
  }
  std::uint64_t gro_aggs() const {
    return fast ? fast->stats().gro_aggs : ip->stats().gro_aggs;
  }
  std::uint64_t gro_frames() const {
    return fast ? fast->stats().gro_frames : ip->stats().gro_frames;
  }

  std::uint32_t seq_of(const L4Packet& pkt) const {
    ByteReader r{pools.read(pkt.frame).subspan(pkt.l4_offset, kTcpHeaderLen)};
    return TcpHeader::parse(r)->seq;
  }
  void up(const L4Packet& pkt) {
    delivered.emplace_back(seq_of(pkt), 1);
    to_tcp.push_back(pkt);
  }
  void up(L4AggPacket&& agg) {
    delivered.emplace_back(seq_of(agg.segs.front()), agg.segs.size());
    aggs.push_back(std::move(agg));
  }

  // One inbound TCP data frame from `src`:`sport` to us:`dport`.
  chan::RichPtr make_tcp(Ipv4Addr src, std::uint16_t sport,
                         std::uint16_t dport, std::uint32_t seq,
                         std::uint16_t payload,
                         std::uint8_t flags = tcpflag::kAck) {
    const std::uint16_t l4_len =
        static_cast<std::uint16_t>(kTcpHeaderLen + payload);
    chan::RichPtr frame = rx_pool->alloc(
        static_cast<std::uint32_t>(kEthHeaderLen + kIpHeaderLen + l4_len));
    auto view = rx_pool->write_view(frame);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::local(1);
    eth.src = MacAddr::local(9);
    eth.ethertype = kEtherTypeIpv4;
    eth.serialize(w);
    Ipv4Header iph;
    iph.total_length = static_cast<std::uint16_t>(kIpHeaderLen + l4_len);
    iph.protocol = kProtoTcp;
    iph.src = src;
    iph.dst = Ipv4Addr(10, 1, 0, 1);
    iph.serialize(w);
    TcpHeader h;
    h.src_port = sport;
    h.dst_port = dport;
    h.seq = seq;
    h.flags = flags;
    h.window = 1000;
    h.serialize(w);
    for (std::uint16_t i = 0; i < payload; ++i)
      w.u8(static_cast<std::uint8_t>(i));
    return frame;
  }
};

constexpr Ipv4Addr kRemoteA{0x0a010002};  // 10.1.0.2
constexpr Ipv4Addr kRemoteB{0x0a010003};  // 10.1.0.3

constexpr std::uint8_t kAckPsh =
    static_cast<std::uint8_t>(tcpflag::kAck | tcpflag::kPsh);
constexpr std::uint8_t kAckFin =
    static_cast<std::uint8_t>(tcpflag::kAck | tcpflag::kFin);

using Delivered = std::vector<std::pair<std::uint32_t, std::size_t>>;

}  // namespace

// --- unit: the merge/flush rules, on both paths ----------------------------------
//
// Every burst shape runs through the central engine and a shard's fast path;
// each must give the same aggregate boundaries, flags and delivery order.

class GroShape : public ::testing::TestWithParam<GroPath> {};

INSTANTIATE_TEST_SUITE_P(
    BothPaths, GroShape,
    ::testing::Values(GroPath::kEngine, GroPath::kFastPath),
    [](const ::testing::TestParamInfo<GroPath>& info) {
      return info.param == GroPath::kEngine ? "IpEngine" : "IpFastPath";
    });

TEST_P(GroShape, MergesConsecutiveSameFlowSegments) {
  GroHost h(GetParam());
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(
        h.make_tcp(kRemoteA, 40000, 80, 1000 + 100 * i, 100));
  }
  h.input_burst(burst);
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 4u);
  EXPECT_EQ(h.aggs[0].sport, 40000);
  EXPECT_EQ(h.aggs[0].dport, 80);
  EXPECT_TRUE(h.to_tcp.empty());
  EXPECT_EQ(h.gro_aggs(), 1u);
  EXPECT_EQ(h.gro_frames(), 4u);
}

TEST_P(GroShape, FlowChangeFlushesAggregate) {
  GroHost h(GetParam());
  std::vector<chan::RichPtr> burst;
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100, 100));
  burst.push_back(h.make_tcp(kRemoteB, 41000, 80, 500, 100));  // other flow
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 200, 100));
  h.input_burst(burst);
  // [A0 A1] merge; B and the now-isolated A2 take the classic path.
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 2u);
  EXPECT_EQ(h.to_tcp.size(), 2u);
  EXPECT_EQ(h.delivered, (Delivered{{0, 2}, {500, 1}, {200, 1}}));
}

TEST_P(GroShape, OutOfOrderSeqFlushesAggregate) {
  GroHost h(GetParam(), PfMode::kPassAtOnce);
  std::vector<chan::RichPtr> burst;
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 5000, 100));  // gap
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 5100, 100));
  h.input_burst(burst);
  // Two aggregates: the gap broke the run but both halves still merge.
  ASSERT_EQ(h.aggs.size(), 2u);
  EXPECT_EQ(h.aggs[0].segs.size(), 2u);
  EXPECT_EQ(h.aggs[1].segs.size(), 2u);
  EXPECT_TRUE(h.to_tcp.empty());
  EXPECT_EQ(h.delivered, (Delivered{{0, 2}, {5000, 2}}));
  // Neither half pushed: both queries carry a plain ACK.
  EXPECT_EQ(h.pf_flags,
            (std::vector<std::uint8_t>{tcpflag::kAck, tcpflag::kAck}));
}

TEST_P(GroShape, FlagBoundariesFlushAggregate) {
  // With a PF that passes at once, every hand-up files its own query, so
  // the query flags show what each aggregate carried.
  GroHost h(GetParam(), PfMode::kPassAtOnce);
  std::vector<chan::RichPtr> burst;
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100, 100, kAckPsh));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 200, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 300, 100, kAckFin));
  h.input_burst(burst);
  // PSH closes the first aggregate (and is its last member); the lone
  // segment after it and the FIN both take the classic per-frame path.
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 2u);
  EXPECT_EQ(h.to_tcp.size(), 2u);
  EXPECT_EQ(h.delivered, (Delivered{{0, 2}, {200, 1}, {300, 1}}));
  EXPECT_EQ(h.pf_flags,
            (std::vector<std::uint8_t>{kAckPsh, tcpflag::kAck, kAckFin}));
}

TEST_P(GroShape, PureAcksAreNeverAggregated) {
  GroHost h(GetParam());
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 1000, 0));
  }
  h.input_burst(burst);
  EXPECT_TRUE(h.aggs.empty());
  EXPECT_EQ(h.to_tcp.size(), 4u);  // each ACK clocks the sender separately
}

TEST_P(GroShape, AggregateNeverSpansShards) {
  GroHost h(GetParam());
  // Interleave two flows; whatever aggregates form, every member of one
  // aggregate must steer to the same replica as the aggregate's own tuple.
  std::vector<chan::RichPtr> burst;
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100, 100));
  burst.push_back(h.make_tcp(kRemoteB, 41000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 200, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 300, 100));
  h.input_burst(burst);
  ASSERT_GE(h.aggs.size(), 1u);
  for (const auto& agg : h.aggs) {
    const int shard = steer_shard(agg.src, agg.dst, agg.sport, agg.dport, 4);
    for (const auto& seg : agg.segs) {
      // All members share the aggregate's 4-tuple by construction...
      EXPECT_EQ(seg.src, agg.src);
      // ...so they hash to the same shard as the aggregate.
      EXPECT_EQ(steer_shard(seg.src, seg.dst, agg.sport, agg.dport, 4),
                shard);
    }
  }
  EXPECT_EQ(h.delivered, (Delivered{{0, 2}, {0, 1}, {200, 2}}));
}

// --- unit: the central engine's batched PF queries ----------------------------------

TEST(Gro, OneBatchedPfQueryPerAggregate) {
  GroHost h(GroPath::kEngine, PfMode::kRecord);
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 6; ++i) {
    burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100 * i, 100));
  }
  h.input_burst(burst);
  // One aggregate -> one query, and it travelled as one batch.
  ASSERT_EQ(h.pf_batches.size(), 1u);
  ASSERT_EQ(h.pf_batches[0].size(), 1u);
  EXPECT_TRUE(h.aggs.empty());  // held until the verdict
  h.ip->pf_verdict(h.pf_batches[0][0].second, true);
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 6u);
}

TEST(Gro, BlockedVerdictReleasesEveryFrameOfTheAggregate) {
  GroHost h(GroPath::kEngine, PfMode::kRecord);
  const std::size_t live_before = h.rx_pool->chunks_live();
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100 * i, 100));
  }
  h.input_burst(burst);
  ASSERT_EQ(h.pf_batches.size(), 1u);
  h.ip->pf_verdict(h.pf_batches[0][0].second, false);
  EXPECT_TRUE(h.aggs.empty());
  EXPECT_EQ(h.ip->stats().dropped_pf, 4u);
  EXPECT_EQ(h.rx_pool->chunks_live(), live_before);  // all four released
}

// --- system: coalescing, amortization, sharding, crash recovery --------------------

namespace {

TestbedOptions rx_opts(int coalesce, bool gro, int tcp_shards = 1) {
  TestbedOptions o;
  o.mode = StackMode::kSplitSyscall;
  o.nics = 1;
  o.rx_coalesce_frames = coalesce;
  o.rx_coalesce_usecs = 50;
  o.gro = gro;
  o.tcp_shards = tcp_shards;
  o.app_write_size = 65536;
  return o;
}

// Bulk traffic INTO the system under test: receiver on newtos, sender on
// the ideal peer.
struct BulkIn {
  std::unique_ptr<apps::BulkReceiver> rx;
  std::unique_ptr<apps::BulkSender> tx;

  BulkIn(Testbed& tb, std::uint16_t port, int nic = 0) {
    AppActor* rx_app = tb.newtos().add_app("rx" + std::to_string(port));
    apps::BulkReceiver::Config rc;
    rc.port = port;
    rc.record_series = false;
    rx = std::make_unique<apps::BulkReceiver>(tb.newtos(), rx_app, rc);
    rx->start();
    AppActor* tx_app = tb.peer().add_app("tx" + std::to_string(port));
    apps::BulkSender::Config sc;
    sc.dst = tb.peer().peer_addr(nic);
    sc.port = port;
    sc.write_size = 65536;
    tx = std::make_unique<apps::BulkSender>(tb.peer(), tx_app, sc);
    tx->start();
  }
};

}  // namespace

TEST(RxBatch, FrameThresholdFormsBurstsAndAmortizesMessages) {
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/false));
  BulkIn flow(tb, 5001);
  tb.run_until(500 * sim::kMillisecond);

  EXPECT_GT(flow.rx->bytes(), 1u << 20);
  const auto& nic = tb.newtos().nic(0)->stats();
  EXPECT_GT(nic.rx_bursts, 0u);
  auto* drv = dynamic_cast<servers::DriverServer*>(
      tb.newtos().server(servers::driver_name(0)));
  ASSERT_NE(drv, nullptr);
  EXPECT_GT(drv->rx_frames(), 0u);
  // The whole point: well under one driver->IP message per frame.
  EXPECT_LT(drv->rx_msgs() * 2, drv->rx_frames());
}

TEST(RxBatch, HoldoffTimerFlushesSparseTraffic) {
  // A high frame threshold with sparse echo traffic: only the RADV-style
  // timer can deliver the frames.
  TestbedOptions o = rx_opts(/*coalesce=*/64, /*gro=*/false);
  Testbed tb(o);

  AppActor* srv_app = tb.newtos().add_app("sshd");
  apps::EchoServer srv(tb.newtos(), srv_app, {});
  srv.start();
  AppActor* cli_app = tb.peer().add_app("ssh");
  apps::EchoClient::Config ec;
  ec.dst = tb.peer().peer_addr(0);
  apps::EchoClient cli(tb.peer(), cli_app, ec);
  cli.start();

  tb.run_until(1 * sim::kSecond);
  EXPECT_GT(cli.ok(), 0u);  // echoes went round despite the 64-frame bound
  EXPECT_GT(tb.newtos().nic(0)->stats().rx_timer_flushes, 0u);
}

TEST(RxBatch, GroChargesOncePerAggregateAndStretchAcks) {
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/true));
  BulkIn flow(tb, 5001);
  tb.run_until(500 * sim::kMillisecond);

  EXPECT_GT(flow.rx->bytes(), 1u << 20);
  const auto& ip = tb.newtos().ip_engine()->stats();
  EXPECT_GT(ip.gro_aggs, 0u);
  EXPECT_GT(ip.gro_frames, 2 * ip.gro_aggs);  // real merging, not pairs
  const auto& tcp = tb.newtos().tcp_engine()->stats();
  EXPECT_GT(tcp.aggs_in, 0u);
  // One stretch ACK per aggregate instead of one per two frames.
  EXPECT_LT(tcp.acks_out * 3, tcp.segs_in);
  // And under one IP->TCP message per frame.
  auto* ips = dynamic_cast<servers::IpServer*>(
      tb.newtos().server(servers::kIpName));
  ASSERT_NE(ips, nullptr);
  EXPECT_LT(ips->l4_msgs() * 2, ips->l4_frames());
}

TEST(RxBatch, GroRespectsShardSteering) {
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/true, /*tcp_shards=*/2));
  std::vector<std::unique_ptr<BulkIn>> flows;
  for (int f = 0; f < 6; ++f) {
    flows.push_back(std::make_unique<BulkIn>(
        tb, static_cast<std::uint16_t>(6001 + f)));
  }
  tb.run_until(500 * sim::kMillisecond);

  std::uint64_t bytes = 0;
  for (auto& f : flows) bytes += f->rx->bytes();
  EXPECT_GT(bytes, 4u << 20);

  // Every connection lives on the replica its inbound 4-tuple hashes to,
  // so any aggregate a replica accepted was steered correctly.
  std::uint64_t aggs = 0;
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    const auto* eng = tb.newtos().tcp_engine(s);
    for (const auto& key : eng->connection_keys()) {
      // connection_keys() records {local, peer, lport, pport}; steering
      // hashes the inbound orientation (remote end first).
      EXPECT_EQ(steer_shard(key.dst, key.src, key.dport, key.sport,
                            tb.newtos().tcp_shard_count()),
                s);
    }
    aggs += eng->stats().aggs_in;
  }
  EXPECT_GT(aggs, 0u);
}

TEST(RxBatch, CoalescingOffIsByteIdenticalCounters) {
  // The default arrangement must not even arm the burst machinery.
  Testbed tb(rx_opts(/*coalesce=*/0, /*gro=*/false));
  BulkIn flow(tb, 5001);
  tb.run_until(300 * sim::kMillisecond);
  EXPECT_GT(flow.rx->bytes(), 1u << 20);
  const auto& nic = tb.newtos().nic(0)->stats();
  EXPECT_EQ(nic.rx_bursts, 0u);
  EXPECT_EQ(nic.rx_timer_flushes, 0u);
  const auto& ip = tb.newtos().ip_engine()->stats();
  EXPECT_EQ(ip.gro_aggs, 0u);
  EXPECT_EQ(tb.newtos().tcp_engine()->stats().aggs_in, 0u);
}

TEST(RxBatch, LoanLedgerRecoversBurstChunksWhenTcpDiesMidAggregate) {
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/true));
  BulkIn flow(tb, 5001);

  // Let the flow ramp, then kill TCP while aggregates are in flight.
  tb.run_until(400 * sim::kMillisecond);
  EXPECT_GT(tb.newtos().tcp_engine()->stats().aggs_in, 0u);
  tb.sim().at(tb.sim().now() + sim::kMicrosecond, [&] {
    tb.newtos().server(servers::kTcpName)->kill();
  });
  tb.run_until(1 * sim::kSecond);

  // The replica is back and every loan its dead incarnation held was
  // reclaimed (frames in dead queue slots were recovered by IP; frames the
  // engine had accepted were released by its teardown path).
  EXPECT_TRUE(tb.newtos().server(servers::kTcpName)->alive());
  chan::Pool* rx_pool = tb.newtos().pools().find_by_name("ip.rx");
  ASSERT_NE(rx_pool, nullptr);
  EXPECT_EQ(rx_pool->borrows_outstanding(), 0u);
  // ~Testbed's abort-on-loan-leak backstop also covers this test.
}
