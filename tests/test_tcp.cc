// Unit tests: the TCP engine over a lossless / lossy in-process "wire".
//
// Two TcpEngines are wired back to back through a tiny harness that plays
// IP + wire: TxSegs become L4Packets delivered to the other side, with
// optional drops.  This exercises the state machine, data transfer,
// retransmission and teardown without the multiserver machinery.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "src/net/tcp.h"
#include "src/sim/rng.h"
#include "src/sim/sim.h"

using namespace newtos;
using namespace newtos::net;

namespace {

class Harness {
 public:
  explicit Harness(TcpOptions opts = TcpOptions{}, double loss_a_to_b = 0.0)
      : loss_(loss_a_to_b), rng_(1234) {
    pool_a_ = &pools_.create("a", "buf", 8u << 20);
    pool_b_ = &pools_.create("b", "buf", 8u << 20);
    rx_pool_ = &pools_.create("wire", "rx", 32u << 20);
    a_ = make_engine(pool_a_, addr_a_, addr_b_, opts, /*to_b=*/true);
    b_ = make_engine(pool_b_, addr_b_, addr_a_, opts, /*to_b=*/false);
  }

  TcpEngine& a() { return *a_; }
  TcpEngine& b() { return *b_; }
  sim::Simulator& sim() { return sim_; }
  std::vector<std::pair<SockId, TcpEvent>> a_events, b_events;
  int dropped = 0;

  void run(sim::Time t) { sim_.run_until(sim_.now() + t); }

  // App helpers.
  bool send_bytes(TcpEngine& e, SockId s, std::uint32_t n,
                  std::uint8_t fill = 0x5a) {
    chan::RichPtr p = e.alloc_payload(n);
    if (!p.valid()) return false;
    chan::Pool* pool = &e == a_.get() ? pool_a_ : pool_b_;
    auto view = pool->write_view(p);
    std::fill(view.begin(), view.end(), std::byte{fill});
    return e.send(s, p);
  }
  std::vector<std::byte> recv_all(TcpEngine& e, SockId s) {
    std::vector<std::byte> out(e.recv_available(s));
    e.recv(s, out);
    return out;
  }

 private:
  class Timers : public TimerService {
   public:
    explicit Timers(sim::Simulator* s) : sim_(s) {}
    TimerId schedule(sim::Time d, std::function<void()> fn) override {
      return sim_->after(d, std::move(fn));
    }
    void cancel(TimerId id) override { sim_->cancel(id); }

   private:
    sim::Simulator* sim_;
  };
  class SimClock : public Clock {
   public:
    explicit SimClock(sim::Simulator* s) : sim_(s) {}
    sim::Time now() const override { return sim_->now(); }

   private:
    sim::Simulator* sim_;
  };

  std::unique_ptr<TcpEngine> make_engine(chan::Pool* pool, Ipv4Addr self,
                                         Ipv4Addr peer, TcpOptions opts,
                                         bool to_b) {
    TcpEngine::Env env;
    env.clock = &clock_;
    env.timers = &timers_;
    env.pools = &pools_;
    env.buf_pool = pool;
    env.src_for = [self](Ipv4Addr) { return self; };
    env.rx_done = [this](const chan::RichPtr& f) { rx_pool_->release(f); };
    env.notify = [this, to_b](SockId s, TcpEvent ev) {
      (to_b ? a_events : b_events).push_back({s, ev});
    };
    auto wire = [this, to_b, self, peer](TxSeg&& seg, std::uint64_t cookie) {
      // "IP": build the L4 bytes into one rx chunk and deliver after a
      // short wire delay.  Sender header freed immediately via seg_done.
      TcpEngine& sender = to_b ? *a_ : *b_;
      TcpEngine& receiver = to_b ? *b_ : *a_;
      const bool drop = to_b && loss_ > 0.0 && rng_.chance(loss_);
      auto flat = flatten(pools_, seg.l4_header, seg.payload);
      sender.seg_done(cookie, !drop);
      if (drop) {
        ++dropped;
        return;
      }
      chan::RichPtr frame =
          rx_pool_->alloc(static_cast<std::uint32_t>(flat.size()));
      ASSERT_TRUE(frame.valid());
      rx_pool_->dma_write(frame, flat);
      sim_.after(50 * sim::kMicrosecond,
                 [this, &receiver, frame, self, peer, len = flat.size()] {
                   L4Packet pkt;
                   pkt.frame = frame;
                   pkt.l4_offset = 0;
                   pkt.l4_length = static_cast<std::uint16_t>(len);
                   pkt.src = self;
                   pkt.dst = peer;
                   receiver.input(std::move(pkt));
                 });
    };
    // Completed before returning: no descriptor to hand back.
    env.output = [wire](TxSeg&& seg, std::uint64_t cookie) {
      wire(std::move(seg), cookie);
      return chan::RichPtr{};
    };
    return std::make_unique<TcpEngine>(std::move(env), opts);
  }

  sim::Simulator sim_;
  SimClock clock_{&sim_};
  Timers timers_{&sim_};
  chan::PoolRegistry pools_;
  chan::Pool* pool_a_;
  chan::Pool* pool_b_;
  chan::Pool* rx_pool_;
  Ipv4Addr addr_a_{Ipv4Addr(10, 0, 0, 1)};
  Ipv4Addr addr_b_{Ipv4Addr(10, 0, 0, 2)};
  double loss_;
  sim::Rng rng_;
  std::unique_ptr<TcpEngine> a_;
  std::unique_ptr<TcpEngine> b_;
};

// Establishes a connection a->b:80 and returns {client, server} sock ids.
std::pair<SockId, SockId> establish(Harness& h) {
  SockId ls = h.b().open();
  EXPECT_TRUE(h.b().bind(ls, Ipv4Addr{}, 80));
  EXPECT_TRUE(h.b().listen(ls, 8));
  SockId cs = h.a().open();
  EXPECT_TRUE(h.a().connect(cs, Ipv4Addr(10, 0, 0, 2), 80));
  // Handshake segments may be lost in lossy harnesses; SYN retransmission
  // needs up to a few seconds.
  std::optional<SockId> child;
  for (int spin = 0; spin < 1000 && !child; ++spin) {
    h.run(10 * sim::kMillisecond);
    child = h.b().accept(ls);
  }
  EXPECT_TRUE(child.has_value());
  EXPECT_EQ(h.a().state(cs), TcpState::Established);
  EXPECT_EQ(h.b().state(*child), TcpState::Established);
  return {cs, child.value_or(0)};
}

}  // namespace

TEST(Tcp, ThreeWayHandshake) {
  Harness h;
  auto [cs, ss] = establish(h);
  bool connected = false;
  for (auto& [s, ev] : h.a_events) {
    if (s == cs && ev == TcpEvent::Connected) connected = true;
  }
  EXPECT_TRUE(connected);
  EXPECT_EQ(h.a().stats().conns_established, 1u);
}

TEST(Tcp, ConnectToClosedPortGetsReset) {
  Harness h;
  SockId cs = h.a().open();
  EXPECT_TRUE(h.a().connect(cs, Ipv4Addr(10, 0, 0, 2), 81));
  h.run(10 * sim::kMillisecond);
  bool reset = false;
  for (auto& [s, ev] : h.a_events) {
    if (s == cs && ev == TcpEvent::Reset) reset = true;
  }
  EXPECT_TRUE(reset);
  EXPECT_EQ(h.a().connection_count(), 0u);
}

TEST(Tcp, DataTransferPreservesBytes) {
  Harness h;
  auto [cs, ss] = establish(h);
  ASSERT_TRUE(h.send_bytes(h.a(), cs, 10000, 0x77));
  h.run(50 * sim::kMillisecond);
  auto data = h.recv_all(h.b(), ss);
  ASSERT_EQ(data.size(), 10000u);
  for (auto b : data) ASSERT_EQ(std::to_integer<int>(b), 0x77);
}

TEST(Tcp, BidirectionalTransfer) {
  Harness h;
  auto [cs, ss] = establish(h);
  ASSERT_TRUE(h.send_bytes(h.a(), cs, 5000, 1));
  ASSERT_TRUE(h.send_bytes(h.b(), ss, 7000, 2));
  h.run(50 * sim::kMillisecond);
  EXPECT_EQ(h.recv_all(h.b(), ss).size(), 5000u);
  EXPECT_EQ(h.recv_all(h.a(), cs).size(), 7000u);
}

TEST(Tcp, SendBufferLimitsEnforced) {
  TcpOptions opts;
  opts.sndbuf_max = 16384;
  Harness h(opts);
  auto [cs, ss] = establish(h);
  // Peer consumes nothing; the advertised-window/sndbuf caps the queue.
  EXPECT_TRUE(h.send_bytes(h.a(), cs, 16384));
  EXPECT_FALSE(h.send_bytes(h.a(), cs, 1));  // full
  EXPECT_EQ(h.a().send_space(cs), 0u);
}

TEST(Tcp, GracefulCloseBothDirections) {
  Harness h;
  auto [cs, ss] = establish(h);
  ASSERT_TRUE(h.send_bytes(h.a(), cs, 1000));
  h.run(20 * sim::kMillisecond);
  h.recv_all(h.b(), ss);
  EXPECT_TRUE(h.a().close(cs));
  h.run(20 * sim::kMillisecond);
  EXPECT_EQ(h.b().state(ss), TcpState::CloseWait);
  EXPECT_TRUE(h.b().close(ss));
  h.run(20 * sim::kMillisecond);
  // Client lingers in TIME_WAIT then evaporates; server side is gone.
  EXPECT_EQ(h.b().connection_count(), 0u);
  h.run(2 * sim::kSecond);
  EXPECT_EQ(h.a().connection_count(), 0u);
}

TEST(Tcp, AbortSendsRst) {
  Harness h;
  auto [cs, ss] = establish(h);
  h.a().abort(cs);
  h.run(10 * sim::kMillisecond);
  bool reset = false;
  for (auto& [s, ev] : h.b_events) {
    if (s == ss && ev == TcpEvent::Reset) reset = true;
  }
  EXPECT_TRUE(reset);
  EXPECT_EQ(h.a().connection_count(), 0u);
  EXPECT_EQ(h.b().connection_count(), 0u);
}

// Property sweep: transfers complete intact across a range of loss rates
// (retransmission, fast retransmit, NewReno, RTO all get exercised).
class TcpLoss : public ::testing::TestWithParam<double> {};

TEST_P(TcpLoss, TransferSurvivesLoss) {
  TcpOptions opts;
  opts.rto_min = 50 * sim::kMillisecond;  // speed up recovery in this test
  Harness h(opts, GetParam());
  auto [cs, ss] = establish(h);
  std::uint32_t total = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.send_bytes(h.a(), cs, 8000, static_cast<std::uint8_t>(i)));
    total += 8000;
  }
  std::vector<std::byte> got;
  for (int spins = 0; spins < 600 && got.size() < total; ++spins) {
    h.run(50 * sim::kMillisecond);
    auto part = h.recv_all(h.b(), ss);
    got.insert(got.end(), part.begin(), part.end());
  }
  ASSERT_EQ(got.size(), total);
  // Verify content ordering: byte k belongs to write k/8000.
  for (std::size_t k = 0; k < got.size(); k += 997) {
    ASSERT_EQ(std::to_integer<std::uint8_t>(got[k]),
              static_cast<std::uint8_t>(k / 8000));
  }
  if (GetParam() > 0.0) {
    EXPECT_GT(h.dropped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLoss,
                         ::testing::Values(0.0, 0.01, 0.05, 0.15));

TEST(Tcp, ListenerRecoveryRoundTrip) {
  Harness h;
  SockId ls = h.b().open();
  ASSERT_TRUE(h.b().bind(ls, Ipv4Addr(10, 0, 0, 2), 22));
  ASSERT_TRUE(h.b().listen(ls, 4));
  const auto recs = h.b().listeners();
  ASSERT_EQ(recs.size(), 1u);
  const auto bytes = TcpEngine::serialize_listeners(recs);
  auto parsed = TcpEngine::parse_listeners(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].port, 22);
  EXPECT_EQ((*parsed)[0].addr, Ipv4Addr(10, 0, 0, 2));
}

TEST(Tcp, ConnectionKeysForPfRebuild) {
  Harness h;
  establish(h);
  const auto keys = h.a().connection_keys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].protocol, kProtoTcp);
  EXPECT_EQ(keys[0].dst, Ipv4Addr(10, 0, 0, 2));
  EXPECT_EQ(keys[0].dport, 80);
}

TEST(Tcp, TsoEmitsSuperframes) {
  TcpOptions opts;
  opts.tso = true;
  Harness h(opts);
  auto [cs, ss] = establish(h);
  ASSERT_TRUE(h.send_bytes(h.a(), cs, 120000));
  std::vector<std::byte> got;
  for (int spin = 0; spin < 50 && got.size() < 120000u; ++spin) {
    h.run(50 * sim::kMillisecond);
    auto part = h.recv_all(h.b(), ss);
    got.insert(got.end(), part.begin(), part.end());
  }
  // Without TSO 120000/1460 = 83 data segments; with TSO far fewer suffice
  // (slow start still paces the first few).  The harness "wire" carries
  // superframes whole; NIC segmentation is tested separately.
  EXPECT_LT(h.a().stats().segs_out, 40u);
  EXPECT_EQ(got.size(), 120000u);
}

TEST(Tcp, EphemeralPortsDoNotCollide) {
  Harness h;
  SockId ls = h.b().open();
  ASSERT_TRUE(h.b().bind(ls, Ipv4Addr{}, 80));
  ASSERT_TRUE(h.b().listen(ls, 64));
  std::set<std::uint16_t> ports;
  for (int i = 0; i < 20; ++i) {
    SockId s = h.a().open();
    ASSERT_TRUE(h.a().connect(s, Ipv4Addr(10, 0, 0, 2), 80));
    auto t = h.a().tuple(s);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(ports.insert(t->lport).second) << "duplicate port";
  }
  h.run(50 * sim::kMillisecond);
  EXPECT_EQ(h.a().stats().conns_established, 20u);
}
