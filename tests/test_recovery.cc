// Crash-recovery integration tests (Section V-D, Section VI-B/C).
//
// Each test injects a fault into one component while traffic flows and
// checks the recovery semantics the paper claims for it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/apps.h"
#include "src/core/fault_injection.h"
#include "src/core/testbed.h"

using namespace newtos;

namespace {

// Full workload rig: bulk TCP out, ssh-like echo in, periodic DNS out.
struct Rig {
  Testbed tb;
  AppActor* tx_app;
  AppActor* rx_app;
  apps::BulkReceiver receiver;
  apps::BulkSender sender;
  AppActor* sshd_app;
  apps::EchoServer sshd;
  AppActor* ssh_app;
  apps::EchoClient ssh;
  AppActor* named_app;
  apps::DnsServer named;
  AppActor* resolver_app;
  apps::DnsClient resolver;
  FaultInjector faults;

  static apps::BulkReceiver::Config rx_cfg() {
    apps::BulkReceiver::Config c;
    c.record_series = false;
    return c;
  }
  static apps::BulkSender::Config tx_cfg(Testbed& tb) {
    apps::BulkSender::Config c;
    c.dst = tb.newtos().peer_addr(0);
    return c;
  }
  static apps::EchoClient::Config ssh_cfg(Testbed& tb) {
    apps::EchoClient::Config c;
    c.dst = tb.peer().peer_addr(0);
    return c;
  }
  static apps::DnsClient::Config dns_cfg(Testbed& tb) {
    apps::DnsClient::Config c;
    c.dst = tb.newtos().peer_addr(0);
    return c;
  }

  explicit Rig(const TestbedOptions& opts)
      : tb(opts),
        tx_app(tb.newtos().add_app("iperf_tx")),
        rx_app(tb.peer().add_app("iperf_rx")),
        receiver(tb.peer(), rx_app, rx_cfg()),
        sender(tb.newtos(), tx_app, tx_cfg(tb)),
        sshd_app(tb.newtos().add_app("sshd")),
        sshd(tb.newtos(), sshd_app, {}),
        ssh_app(tb.peer().add_app("ssh")),
        ssh(tb.peer(), ssh_app, ssh_cfg(tb)),
        named_app(tb.peer().add_app("named")),
        named(tb.peer(), named_app),
        resolver_app(tb.newtos().add_app("resolver")),
        resolver(tb.newtos(), resolver_app, dns_cfg(tb)),
        faults(tb.newtos(), /*seed=*/7) {
    receiver.start();
    sender.start();
    sshd.start();
    ssh.start();
    named.start();
    resolver.start();
  }

  std::uint64_t rx_bytes() const { return receiver.bytes(); }
};

TestbedOptions default_opts() {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  opts.pf_filler_rules = 64;
  return opts;
}

// Opens and closes a UDP socket, then a TCP listener, then re-applies the
// PF rule set, `rounds` times in a row.  Every step stores state: three UDP
// socket-table puts, two listener-set puts and one rule-set put per round.
struct StateChurn {
  AppActor* app;
  servers::PfServer* pf;
  int rounds;
  int done = 0;
  std::unique_ptr<UdpSocket> udp;
  std::unique_ptr<TcpListener> listener;

  StateChurn(AppActor* a, servers::PfServer* p, int n)
      : app(a), pf(p), rounds(n) {}

  void start() {
    app->call([this](sim::Context&) { udp_round(); });
  }
  void udp_round() {
    udp = std::make_unique<UdpSocket>(*app);
    udp->bind(net::Ipv4Addr{}, 7000, [this](bool) {
      udp->close([this](bool) { tcp_round(); });
    });
  }
  void tcp_round() {
    listener = std::make_unique<TcpListener>(*app);
    listener->bind_listen(net::Ipv4Addr{}, 7001, 16, [this](bool) {
      listener->close([this](bool) {
        pf->apply_rules(pf->engine()->rules());
        if (++done < rounds) udp_round();
      });
    });
  }
};

// Connects to the peer's bulk receiver, writes exactly `bytes` and closes.
struct SendAndClose {
  AppActor* app;
  net::Ipv4Addr dst;
  std::uint64_t bytes;
  static constexpr std::uint32_t kWrite = 8192;

  std::unique_ptr<TcpSocket> sock;
  std::uint64_t queued = 0;  // bytes whose writes completed ok
  int outstanding = 0;
  bool closed = false;

  SendAndClose(AppActor* a, net::Ipv4Addr d, std::uint64_t n)
      : app(a), dst(d), bytes(n) {}

  void start() {
    app->call([this](sim::Context&) {
      sock = std::make_unique<TcpSocket>(*app);
      sock->on_event([this](net::TcpEvent ev) {
        if (ev == net::TcpEvent::Connected || ev == net::TcpEvent::Writable)
          pump();
      });
      sock->connect(dst, 5001, [](bool) {});
    });
  }
  void pump() {
    while (!closed && queued + kWrite * outstanding < bytes &&
           outstanding < 4 && sock->send_space() >= kWrite) {
      ++outstanding;
      sock->send(kWrite, [this](bool ok) {
        --outstanding;
        if (ok) {
          queued += kWrite;
          pump();
        } else {  // never executed: retry later
          app->call_after(10 * sim::kMillisecond,
                          [this](sim::Context&) { pump(); });
        }
      });
    }
    if (!closed && queued >= bytes && outstanding == 0) {
      closed = true;
      sock->close();
    }
  }
};

}  // namespace

TEST(Recovery, PfCrashIsLossless) {
  Rig rig(default_opts());
  rig.faults.inject_at(2 * sim::kSecond, servers::kPfName, FaultType::Crash);
  rig.tb.run_until(2500 * sim::kMillisecond);
  // PF restarted and recovered its rules from storage.
  auto* pf = static_cast<servers::PfServer*>(
      rig.tb.newtos().server(servers::kPfName));
  ASSERT_TRUE(pf->alive());
  ASSERT_NE(pf->engine(), nullptr);
  EXPECT_EQ(pf->engine()->rules().size(), 65u);  // 64 filler + keep-state

  const std::uint64_t before = rig.rx_bytes();
  rig.tb.run_until(5 * sim::kSecond);
  // Transfer kept running at a healthy rate across the crash.
  const double mbps = (rig.rx_bytes() - before) * 8.0 / 2.5 / 1e6;
  EXPECT_GT(mbps, 500.0);
  // No broken connections anywhere.
  EXPECT_EQ(rig.ssh.resets(), 0u);
  EXPECT_TRUE(rig.ssh.connected());
}

// One bulk flow INTO the system under test across a PF crash, with a short
// and a long rule set.  The frames whose verdicts died with PF wait in IP,
// and IP sends their queries again once the new PF announces, oldest first
// and ahead of any query raised meanwhile.  The receiver has no reassembly,
// so a frame released out of order would cost the rest of the window: the
// flow must see no out-of-order drop, no retransmission and no RTO.
class PfCrashIsLosslessInbound : public ::testing::TestWithParam<int> {};

TEST_P(PfCrashIsLosslessInbound, NothingReordered) {
  TestbedOptions opts = default_opts();
  opts.pf_filler_rules = GetParam();
  Testbed tb(opts);
  apps::BulkReceiver::Config rx_cfg;
  rx_cfg.record_series = false;
  apps::BulkReceiver receiver(tb.newtos(), tb.newtos().add_app("iperf_rx"),
                              rx_cfg);
  apps::BulkSender::Config tx_cfg;
  tx_cfg.dst = tb.peer().peer_addr(0);
  apps::BulkSender sender(tb.peer(), tb.peer().add_app("iperf_tx"), tx_cfg);
  receiver.start();
  sender.start();
  FaultInjector faults(tb.newtos(), /*seed=*/7);
  faults.inject_at(2 * sim::kSecond, servers::kPfName, FaultType::Crash);

  tb.run_until(2 * sim::kSecond);
  const std::uint64_t before = receiver.bytes();
  tb.run_until(3 * sim::kSecond);
  auto* pf = static_cast<servers::PfServer*>(
      tb.newtos().server(servers::kPfName));
  ASSERT_TRUE(pf->alive());
  EXPECT_GT(receiver.bytes(), before);  // the flow ran across the crash

  auto* tcp = static_cast<servers::TcpServer*>(
      tb.newtos().server(servers::kTcpName));
  EXPECT_EQ(tcp->engine()->stats().ooo_dropped, 0u);
  const auto& peer = tb.peer().stack_server()->tcp_engine()->stats();
  EXPECT_EQ(peer.bytes_retx, 0u);
  EXPECT_EQ(peer.rtos, 0u);
}

INSTANTIATE_TEST_SUITE_P(Recovery, PfCrashIsLosslessInbound,
                         ::testing::Values(64, 1024),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "rules" + std::to_string(info.param);
                         });

TEST(Recovery, IpCrashRecoversTransparently) {
  Rig rig(default_opts());
  rig.faults.inject_at(2 * sim::kSecond, servers::kIpName, FaultType::Crash);
  // The NIC must be reset (Section V-D): link bounces ~1.5 s, then traffic
  // resumes on the same connections.
  rig.tb.run_until(10 * sim::kSecond);
  auto* ip = static_cast<servers::IpServer*>(
      rig.tb.newtos().server(servers::kIpName));
  ASSERT_TRUE(ip->alive());
  ASSERT_NE(ip->engine(), nullptr);
  // Config recovered from the storage server.
  EXPECT_EQ(ip->engine()->config().interfaces.size(), 1u);
  EXPECT_GE(rig.tb.newtos().nic(0)->stats().resets, 1u);

  // Existing TCP connections survived and recovered their bitrate.
  EXPECT_EQ(rig.ssh.resets(), 0u);
  EXPECT_TRUE(rig.ssh.connected());
  const std::uint64_t before = rig.rx_bytes();
  rig.tb.run_until(12 * sim::kSecond);
  const double mbps = (rig.rx_bytes() - before) * 8.0 / 2.0 / 1e6;
  EXPECT_GT(mbps, 500.0);
}

TEST(Recovery, DriverCrashRecovers) {
  Rig rig(default_opts());
  rig.faults.inject_at(2 * sim::kSecond, servers::driver_name(0),
                       FaultType::Crash);
  rig.tb.run_until(10 * sim::kSecond);
  EXPECT_GE(rig.tb.newtos().nic(0)->stats().resets, 1u);
  EXPECT_EQ(rig.ssh.resets(), 0u);
  EXPECT_TRUE(rig.ssh.connected());
  const std::uint64_t before = rig.rx_bytes();
  rig.tb.run_until(12 * sim::kSecond);
  const double mbps = (rig.rx_bytes() - before) * 8.0 / 2.0 / 1e6;
  EXPECT_GT(mbps, 500.0);
}

TEST(Recovery, UdpCrashIsTransparentToSockets) {
  Rig rig(default_opts());
  rig.tb.run_until(2 * sim::kSecond);
  const std::uint64_t answered_before = rig.resolver.answered();
  rig.faults.inject(servers::kUdpName, FaultType::Crash);
  rig.tb.run_until(6 * sim::kSecond);
  // The resolver's socket was recreated from the storage server: queries
  // keep being answered without the app reopening anything.
  EXPECT_GT(rig.resolver.answered(), answered_before + 10);
}

TEST(Recovery, TcpCrashBreaksConnectionsButListenersRecover) {
  Rig rig(default_opts());
  rig.tb.run_until(2 * sim::kSecond);
  EXPECT_TRUE(rig.ssh.connected());
  rig.faults.inject(servers::kTcpName, FaultType::Crash);
  rig.tb.run_until(8 * sim::kSecond);
  // Established connections are gone (Table I), but the listening socket
  // was restored, so the client reconnected.
  EXPECT_TRUE(rig.ssh.connected());
  EXPECT_GE(rig.ssh.reconnects(), 2u);  // initial connect + post-crash
  // And the DNS path (UDP) was untouched.
  EXPECT_GT(rig.resolver.answered(), 20u);
}

TEST(Recovery, HangIsCaughtByHeartbeats) {
  Rig rig(default_opts());
  rig.faults.inject_at(2 * sim::kSecond, servers::kPfName, FaultType::Hang);
  rig.tb.run_until(6 * sim::kSecond);
  auto* rs = rig.tb.newtos().reincarnation();
  EXPECT_GE(rs->child_stats().at(servers::kPfName).hang_resets, 1u);
  // After the reset the system works again.
  const std::uint64_t before = rig.rx_bytes();
  rig.tb.run_until(8 * sim::kSecond);
  const double mbps = (rig.rx_bytes() - before) * 8.0 / 2.0 / 1e6;
  EXPECT_GT(mbps, 500.0);
}

TEST(Recovery, TcpCrashTransparentWithCheckpointing) {
  // The checkpointing-on twin of the test above: same rig, same crash, but
  // the established connections survive — zero reconnects (the Table I
  // limitation, removed).  tests/test_checkpoint.cc drills into the
  // mechanism; this twin pins the contrast next to the classic behaviour.
  TestbedOptions opts = default_opts();
  opts.tcp_checkpoint = true;
  Rig rig(opts);
  rig.tb.run_until(2 * sim::kSecond);
  EXPECT_TRUE(rig.ssh.connected());
  rig.faults.inject(servers::kTcpName, FaultType::Crash);
  rig.tb.run_until(8 * sim::kSecond);
  EXPECT_TRUE(rig.ssh.connected());
  EXPECT_EQ(rig.ssh.resets(), 0u);
  EXPECT_EQ(rig.ssh.reconnects(), 1u);  // the initial connect only
  EXPECT_GE(rig.tb.newtos().tcp_engine()->stats().conns_restored, 1u);
  EXPECT_GT(rig.resolver.answered(), 20u);
}

TEST(Recovery, SilentWedgeNeedsManualRestart) {
  Rig rig(default_opts());
  rig.faults.inject_at(2 * sim::kSecond, servers::kTcpName,
                       FaultType::SilentWedge);
  rig.tb.run_until(5 * sim::kSecond);
  // Heartbeats still answered: the reincarnation server saw nothing.
  auto* rs = rig.tb.newtos().reincarnation();
  EXPECT_EQ(rs->child_stats().at(servers::kTcpName).hang_resets, 0u);
  // But TCP is not doing its job any more.
  const std::uint64_t stalled = rig.rx_bytes();
  rig.tb.run_until(6 * sim::kSecond);
  EXPECT_LT((rig.rx_bytes() - stalled) * 8.0 / 1e6, 50.0);
  // Manual restart fixes it (paper: "we had to manually restart the TCP
  // component to be able to reconnect").
  rig.tb.newtos().manual_restart(servers::kTcpName);
  rig.tb.run_until(10 * sim::kSecond);
  EXPECT_TRUE(rig.ssh.connected());
}

TEST(Recovery, SilentWedgeAutoDetectedBySupervision) {
  // With supervision on, the reincarnation server's work probes notice that
  // TCP answers heartbeats but drops its work (the probe echo through IP/PF
  // never acks) and restart it without operator help.  With checkpointing
  // also on, even the established connections survive the automatic
  // restart.
  TestbedOptions opts = default_opts();
  opts.supervision = true;
  opts.tcp_checkpoint = true;
  Rig rig(opts);
  rig.faults.inject_at(2 * sim::kSecond, servers::kTcpName,
                       FaultType::SilentWedge);
  rig.tb.run_until(5 * sim::kSecond);
  auto* rs = rig.tb.newtos().reincarnation();
  EXPECT_GE(rs->child_stats().at(servers::kTcpName).probe_resets, 1u);
  EXPECT_EQ(rs->child_stats().at(servers::kTcpName).hang_resets, 0u);
  // No manual restart — and the connections survived the reset.
  EXPECT_TRUE(rig.ssh.connected());
  EXPECT_EQ(rig.ssh.reconnects(), 1u);
  const std::uint64_t before = rig.rx_bytes();
  rig.tb.run_until(8 * sim::kSecond);
  const double mbps = (rig.rx_bytes() - before) * 8.0 / 3.0 / 1e6;
  EXPECT_GT(mbps, 500.0);
}

TEST(Recovery, StorageCrashStateIsRestoredByPeers) {
  Rig rig(default_opts());
  rig.tb.run_until(2 * sim::kSecond);
  rig.faults.inject(servers::kStoreName, FaultType::Crash);
  rig.tb.run_until(3 * sim::kSecond);
  // Everyone re-stored; a subsequent TCP crash still recovers listeners.
  rig.faults.inject(servers::kTcpName, FaultType::Crash);
  rig.tb.run_until(8 * sim::kSecond);
  EXPECT_TRUE(rig.ssh.connected());
}

TEST(Recovery, DeviceWedgeClearedByDriverRestart) {
  Rig rig(default_opts());
  rig.faults.inject_at(2 * sim::kSecond, servers::driver_name(0),
                       FaultType::DeviceWedge);
  rig.tb.run_until(4 * sim::kSecond);
  EXPECT_TRUE(rig.tb.newtos().nic(0)->wedged());
  rig.tb.newtos().manual_restart(servers::driver_name(0));
  rig.tb.run_until(8 * sim::kSecond);
  EXPECT_FALSE(rig.tb.newtos().nic(0)->wedged());
  EXPECT_TRUE(rig.ssh.connected());
}

TEST(Recovery, CombinedStackCrashRestoresState) {
  // The combined stack stores its listener set and UDP socket table when
  // they change, as the split transports do, so a crash of the one server
  // brings back every socket that can be recovered (Table I) along with
  // the IP configuration and the PF rules.
  TestbedOptions opts = default_opts();
  opts.mode = StackMode::kSingleServer;
  Rig rig(opts);
  rig.faults.inject_at(2 * sim::kSecond, servers::kStackName,
                       FaultType::Crash);
  rig.tb.run_until(4 * sim::kSecond);
  servers::StackServer* stack = rig.tb.newtos().stack_server();
  ASSERT_TRUE(stack->ready());
  EXPECT_EQ(stack->tcp_engine()->listeners().size(), 1u);  // sshd
  EXPECT_EQ(stack->udp_engine()->snapshot().size(), 1u);   // the resolver
  EXPECT_EQ(stack->pf_engine()->rules().size(), 65u);
  EXPECT_EQ(stack->ip_engine()->config().interfaces.size(), 1u);

  const std::uint64_t answered = rig.resolver.answered();
  rig.tb.run_until(8 * sim::kSecond);
  // The established connection died with the server; the restored
  // listener took the reconnect.
  EXPECT_TRUE(rig.ssh.connected());
  EXPECT_GE(rig.ssh.reconnects(), 2u);
  // The restored resolver socket keeps getting answers.
  EXPECT_GT(rig.resolver.answered(), answered + 10);
}

TEST(Recovery, StoredValuesReturnTheirChunks) {
  // Every put copies the value into a chunk of the storing server's pool;
  // the storage server's ack hands it back.  State that changes over and
  // over must not grow the pools.
  {
    Testbed tb(default_opts());
    tb.run_until(100 * sim::kMillisecond);
    chan::PoolRegistry& pools = tb.newtos().pools();
    auto live = [&pools](const char* name) {
      return pools.find_by_name(name)->chunks_live();
    };
    const std::size_t udp_before = live("newtos/udp.buf");
    const std::size_t tcp_before = live("newtos/tcp.buf");
    const std::size_t pf_before = live("newtos/pf.buf");

    constexpr int kRounds = 200;
    StateChurn churn(tb.newtos().add_app("churn"),
                     static_cast<servers::PfServer*>(
                         tb.newtos().server(servers::kPfName)),
                     kRounds);
    churn.start();
    while (churn.done < kRounds && tb.sim().now() < 10 * sim::kSecond) {
      tb.run_until(tb.sim().now() + 10 * sim::kMillisecond);
    }
    ASSERT_EQ(churn.done, kRounds);
    tb.run_until(tb.sim().now() + 100 * sim::kMillisecond);  // no traffic
    EXPECT_EQ(live("newtos/udp.buf"), udp_before);
    EXPECT_EQ(live("newtos/tcp.buf"), tcp_before);
    EXPECT_EQ(live("newtos/pf.buf"), pf_before);
  }

  // The checkpoint journal puts a record per connection on every
  // watermark's worth of progress: none of them may outlive its ack.
  TestbedOptions opts = default_opts();
  opts.tcp_checkpoint = true;
  Testbed tb(opts);
  AppActor* rx_app = tb.peer().add_app("iperf_rx");
  apps::BulkReceiver::Config rx_cfg;
  rx_cfg.record_series = false;
  apps::BulkReceiver receiver(tb.peer(), rx_app, rx_cfg);
  receiver.start();
  constexpr int kConns = 5;
  constexpr std::uint64_t kBytes = 2u << 20;
  AppActor* tx_app = tb.newtos().add_app("iperf_tx");
  std::vector<std::unique_ptr<SendAndClose>> senders;
  for (int i = 0; i < kConns; ++i) {
    senders.push_back(std::make_unique<SendAndClose>(
        tx_app, tb.newtos().peer_addr(0), kBytes));
    senders.back()->start();
  }
  // Transfers and closes take well under a second; then TIME_WAIT expires.
  tb.run_until(4 * sim::kSecond);
  for (const auto& s : senders) EXPECT_TRUE(s->closed);
  EXPECT_EQ(receiver.bytes(), kConns * kBytes);
  auto* tcp = static_cast<servers::TcpServer*>(
      tb.newtos().server(servers::kTcpName));
  EXPECT_GT(tcp->ckpt_puts(), 0u);
  EXPECT_EQ(tb.newtos().pools().find_by_name("newtos/tcp.buf")->chunks_live(),
            0u);
}
