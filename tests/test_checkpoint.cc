// Transparent TCP recovery: the connection-checkpoint subsystem.
//
// The paper's Table I declares established TCP connections unrecoverable;
// with NodeConfig::tcp_checkpoint on they survive a TCP server crash with
// only a throughput dip.  These tests pin the claim down: zero application
// reconnects, byte-exact streams, composition with the zero-copy splice
// path, RX aggregation and the sharded transport plane, and survival of a
// crash storm.  Every test also rides the Testbed teardown loan-leak check:
// a checkpoint that strands a chunk aborts the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/core/apps.h"
#include "src/core/fault_injection.h"
#include "src/core/testbed.h"

using namespace newtos;

namespace {

TestbedOptions ckpt_opts() {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  opts.pf_filler_rules = 64;
  opts.tcp_checkpoint = true;
  return opts;
}

// A checkpoint counter summed over the node's TCP replicas.
using TcpCounter = std::uint64_t (servers::TcpServer::*)() const;
std::uint64_t sum_over_replicas(Node& node, TcpCounter counter) {
  std::uint64_t total = 0;
  for (int s = 0; s < node.tcp_shard_count(); ++s) {
    const auto* tcp =
        dynamic_cast<servers::TcpServer*>(node.transport_server('T', s));
    if (tcp != nullptr) total += (tcp->*counter)();
  }
  return total;
}

// The recovery rig: ssh-like echo in, bulk TCP out, periodic DNS out.
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
  std::uint64_t restored() {
    std::uint64_t n = 0;
    for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
      if (auto* eng = tb.newtos().tcp_engine(s)) {
        n += eng->stats().conns_restored;
      }
    }
    return n;
  }
};

// A sender that pushes exactly `target` bytes with at-most-once accounting:
// a write only counts when its completion reports ok, and a failed write
// (transport mid-restart, backpressure) is retried.  Receiver-side byte
// counts must then match exactly — crash or no crash.
struct ExactSender {
  Node& node;
  AppActor* app;
  net::Ipv4Addr dst;
  std::uint16_t port;
  std::uint64_t target;
  static constexpr std::uint32_t kWrite = 8192;

  std::unique_ptr<TcpSocket> sock;
  bool connected = false;
  std::uint64_t queued = 0;  // bytes whose writes completed ok
  int outstanding = 0;
  int connects = 0;
  int resets = 0;
  bool poll_scheduled = false;

  ExactSender(Node& n, AppActor* a, net::Ipv4Addr d, std::uint16_t p,
              std::uint64_t t)
      : node(n), app(a), dst(d), port(p), target(t) {}

  void start() {
    app->call([this](sim::Context&) { connect(); });
  }

  void connect() {
    sock = std::make_unique<TcpSocket>(*app);
    sock->on_event([this](net::TcpEvent ev) {
      if (ev == net::TcpEvent::Connected) {
        connected = true;
        ++connects;
        pump();
      } else if (ev == net::TcpEvent::Writable) {
        pump();
      } else if (ev == net::TcpEvent::Reset || ev == net::TcpEvent::Closed) {
        ++resets;
        connected = false;
      }
    });
    sock->connect(dst, port, [this](bool ok) {
      if (!ok) {
        sock.reset();
        app->call_after(100 * sim::kMillisecond,
                        [this](sim::Context&) { connect(); });
      }
    });
  }

  void pump() {
    while (connected && sock && queued + kWrite * outstanding < target &&
           outstanding < 4 && sock->send_space() >= kWrite) {
      ++outstanding;
      sock->send(kWrite, [this](bool ok) {
        --outstanding;
        if (ok) {
          queued += kWrite;
          pump();
        } else {
          poll();  // never executed: safe to retry without duplication
        }
      });
    }
    if (queued + kWrite * outstanding < target) poll();
  }

  void poll() {
    if (poll_scheduled) return;
    poll_scheduled = true;
    app->call_after(10 * sim::kMillisecond, [this](sim::Context&) {
      poll_scheduled = false;
      pump();
    });
  }
};

// A flood-echo client: streams writes at the echo server and drains the
// echoed bytes, so the server's zero-copy splice (recv_zc -> forward) is
// continuously mid-flight — receive-queue frames and forwarded sub-range
// chunks are both on loan when the crash hits.
struct FloodEcho {
  Node& node;
  AppActor* app;
  net::Ipv4Addr dst;
  static constexpr std::uint32_t kWrite = 8192;

  std::unique_ptr<TcpSocket> sock;
  bool connected = false;
  int outstanding = 0;
  int connects = 0;
  int resets = 0;
  std::uint64_t echoed = 0;
  bool poll_scheduled = false;

  FloodEcho(Node& n, AppActor* a, net::Ipv4Addr d) : node(n), app(a), dst(d) {}

  void start() {
    app->call([this](sim::Context&) { connect(); });
  }
  void connect() {
    sock = std::make_unique<TcpSocket>(*app);
    sock->on_event([this](net::TcpEvent ev) {
      switch (ev) {
        case net::TcpEvent::Connected:
          connected = true;
          ++connects;
          pump();
          break;
        case net::TcpEvent::Writable:
          pump();
          break;
        case net::TcpEvent::Readable:
          while (sock) {
            const RecvView v = sock->recv_zc();
            if (v.empty()) break;
            echoed += v.bytes;
            sock->consume(v.bytes);
          }
          pump();
          break;
        case net::TcpEvent::Reset:
        case net::TcpEvent::Closed:
          ++resets;
          connected = false;
          break;
        default:
          break;
      }
    });
    sock->connect(dst, 22, [this](bool ok) {
      if (!ok) {
        sock.reset();
        app->call_after(100 * sim::kMillisecond,
                        [this](sim::Context&) { connect(); });
      }
    });
  }
  void pump() {
    while (connected && sock && outstanding < 4 &&
           sock->send_space() >= kWrite) {
      ++outstanding;
      sock->send(kWrite, [this](bool ok) {
        --outstanding;
        if (ok) pump();
      });
    }
    if (!poll_scheduled) {
      poll_scheduled = true;
      app->call_after(20 * sim::kMillisecond, [this](sim::Context&) {
        poll_scheduled = false;
        pump();
      });
    }
  }
};

// A fleet of idle-but-established connections from one application actor:
// enough distinct sockets to push the checkpoint directory past one storage
// value without the traffic cost of 1500 live streams.
struct ConnFleet {
  AppActor* app;
  net::Ipv4Addr dst;
  int target;
  std::vector<std::unique_ptr<TcpSocket>> socks;
  int connected = 0;
  int resets = 0;
  int failures = 0;

  ConnFleet(AppActor* a, net::Ipv4Addr d, int t)
      : app(a), dst(d), target(t) {}

  void start() {
    app->call([this](sim::Context&) { kick(); });
  }
  void kick() {
    // Batched dial-out: a single SYN flood of 1500 would overflow the
    // accept backlog; 25 every 10 ms settles in well under a second.
    for (int burst = 0; static_cast<int>(socks.size()) < target && burst < 25;
         ++burst) {
      open();
    }
    if (static_cast<int>(socks.size()) < target) {
      app->call_after(10 * sim::kMillisecond,
                      [this](sim::Context&) { kick(); });
    }
  }
  void open() {
    socks.push_back(std::make_unique<TcpSocket>(*app));
    TcpSocket* s = socks.back().get();
    s->on_event([this](net::TcpEvent ev) {
      if (ev == net::TcpEvent::Connected) ++connected;
      else if (ev == net::TcpEvent::Reset || ev == net::TcpEvent::Closed)
        ++resets;
    });
    s->connect(dst, 22, [this](bool ok) {
      if (!ok) ++failures;
    });
  }
};

}  // namespace

// The headline: the checkpointing-on twin of
// Recovery.TcpCrashBreaksConnectionsButListenersRecover.  Same rig, same
// crash — but the established connections survive with ZERO reconnects.
TEST(Checkpoint, TcpCrashKeepsEstablishedConnections) {
  Rig rig(ckpt_opts());
  rig.tb.run_until(2 * sim::kSecond);
  EXPECT_TRUE(rig.ssh.connected());
  const std::uint64_t reconnects_before = rig.ssh.reconnects();
  EXPECT_EQ(reconnects_before, 1u);  // the initial connect, nothing else

  rig.faults.inject(servers::kTcpName, FaultType::Crash);
  rig.tb.run_until(8 * sim::kSecond);

  // Connections were rebuilt from their checkpoints, not re-established.
  EXPECT_GE(rig.restored(), 1u);
  EXPECT_TRUE(rig.ssh.connected());
  EXPECT_EQ(rig.ssh.resets(), 0u);
  EXPECT_EQ(rig.ssh.reconnects(), 1u);  // still only the initial connect
  // The echo session kept making progress after the crash.
  const std::uint64_t ok_at_8s = rig.ssh.ok();
  EXPECT_GT(ok_at_8s, 30u);
  // The bulk transfer recovered its bitrate.
  const std::uint64_t before = rig.rx_bytes();
  rig.tb.run_until(10 * sim::kSecond);
  const double mbps = (rig.rx_bytes() - before) * 8.0 / 2.0 / 1e6;
  EXPECT_GT(mbps, 500.0);
  // And UDP/DNS was untouched, as always.
  EXPECT_GT(rig.resolver.answered(), 20u);
}

// Byte-exactness: a crash mid-bulk-transfer must not lose or duplicate a
// single byte of the stream the application was told was accepted.
TEST(Checkpoint, ByteExactStreamAcrossCrash) {
  TestbedOptions opts = ckpt_opts();
  Testbed tb(opts);
  AppActor* rx_app = tb.peer().add_app("exact_rx");
  apps::BulkReceiver::Config rc;
  rc.record_series = false;
  apps::BulkReceiver receiver(tb.peer(), rx_app, rc);
  receiver.start();

  constexpr std::uint64_t kTarget = 48ull << 20;  // ~0.4 s at 1 GbE
  AppActor* tx_app = tb.newtos().add_app("exact_tx");
  ExactSender sender(tb.newtos(), tx_app, tb.newtos().peer_addr(0), 5001,
                     kTarget);
  sender.start();

  FaultInjector faults(tb.newtos(), 7);
  faults.inject_at(300 * sim::kMillisecond, servers::kTcpName,
                   FaultType::Crash);
  tb.run_until(6 * sim::kSecond);

  EXPECT_EQ(sender.connects, 1);
  EXPECT_EQ(sender.resets, 0);
  EXPECT_EQ(sender.queued, kTarget);
  EXPECT_EQ(sender.outstanding, 0);
  // Every accepted byte arrived exactly once: no loss, no duplication.
  EXPECT_EQ(receiver.bytes(), kTarget);
  EXPECT_GE(tb.newtos().tcp_engine()->stats().conns_restored, 1u);
}

// Crash while the zero-copy splice path is mid-flight: the echo server's
// receive queue holds borrowed frames and its send queue holds forwarded
// sub-range chunks into IP's receive pool.  Both must survive the crash
// through the loan ledger (the teardown leak check enforces the ledger
// half).
TEST(Checkpoint, CrashMidZeroCopySplice) {
  Testbed tb(ckpt_opts());
  AppActor* sshd_app = tb.newtos().add_app("sshd");
  apps::EchoServer sshd(tb.newtos(), sshd_app, {});
  sshd.start();
  AppActor* flood_app = tb.peer().add_app("flood");
  FloodEcho flood(tb.peer(), flood_app, tb.peer().peer_addr(0));
  flood.start();

  FaultInjector faults(tb.newtos(), 7);
  tb.run_until(2 * sim::kSecond);
  const std::uint64_t echoed_before = flood.echoed;
  EXPECT_GT(echoed_before, 0u);
  faults.inject(servers::kTcpName, FaultType::Crash);
  tb.run_until(5 * sim::kSecond);

  EXPECT_EQ(flood.connects, 1);
  EXPECT_EQ(flood.resets, 0);
  // The splice resumed and kept echoing after the crash.
  EXPECT_GT(flood.echoed, echoed_before + (4u << 20));
  EXPECT_GE(tb.newtos().tcp_engine()->stats().conns_restored, 1u);
}

// Crash while receive-side batching is aggregating inbound segments: the
// kL4RxAgg loan machinery (transport borrowers) and the checkpoint parking
// must compose — frames in dead aggregates are reclaimed by IP, frames the
// engine had accepted ride the checkpoint.
TEST(Checkpoint, CrashMidRxAggregate) {
  TestbedOptions opts = ckpt_opts();
  opts.rx_coalesce_frames = 8;
  opts.gro = true;
  Testbed tb(opts);
  AppActor* rx_app = tb.newtos().add_app("iperf_rx");
  apps::BulkReceiver::Config rc;
  rc.record_series = false;
  apps::BulkReceiver receiver(tb.newtos(), rx_app, rc);
  receiver.start();
  AppActor* tx_app = tb.peer().add_app("iperf_tx");
  apps::BulkSender::Config sc;
  sc.dst = tb.peer().peer_addr(0);
  apps::BulkSender sender(tb.peer(), tx_app, sc);
  sender.start();

  FaultInjector faults(tb.newtos(), 7);
  tb.run_until(2 * sim::kSecond);
  const std::uint64_t bytes_before = receiver.bytes();
  EXPECT_GT(bytes_before, 0u);
  EXPECT_GT(tb.newtos().tcp_engine()->stats().aggs_in, 0u);
  faults.inject(servers::kTcpName, FaultType::Crash);
  tb.run_until(6 * sim::kSecond);

  EXPECT_EQ(tb.peer().stats().get("iperf_tx.resets"), 0u);
  EXPECT_EQ(tb.peer().stats().get("iperf_tx.connects"), 1u);
  EXPECT_GT(receiver.bytes(), bytes_before + (16u << 20));
  EXPECT_GE(tb.newtos().tcp_engine()->stats().conns_restored, 1u);
}

// A crash storm: the same replica dies four times in two seconds.  Each
// incarnation re-checkpoints, so every crash is survived — still zero
// reconnects.
TEST(Checkpoint, RepeatedCrashStorm) {
  Rig rig(ckpt_opts());
  for (int k = 0; k < 4; ++k) {
    rig.faults.inject_at((2000 + 500 * k) * sim::kMillisecond,
                         servers::kTcpName, FaultType::Crash);
  }
  rig.tb.run_until(9 * sim::kSecond);

  // conns_restored is per incarnation: the LAST restart alone rebuilt the
  // rig's established connections (echo + bulk).
  EXPECT_GE(rig.restored(), 2u);
  EXPECT_TRUE(rig.ssh.connected());
  EXPECT_EQ(rig.ssh.resets(), 0u);
  EXPECT_EQ(rig.ssh.reconnects(), 1u);
  const std::uint64_t before = rig.rx_bytes();
  rig.tb.run_until(11 * sim::kSecond);
  const double mbps = (rig.rx_bytes() - before) * 8.0 / 2.0 / 1e6;
  EXPECT_GT(mbps, 500.0);
}

// Sharded transport plane: killing one replica restores exactly its own
// flows from its own namespace; every client of every shard survives with
// zero reconnects.
TEST(Checkpoint, ShardedReplicaCrashRestoresItsOwnFlows) {
  TestbedOptions opts = ckpt_opts();
  opts.tcp_shards = 2;
  Testbed tb(opts);
  AppActor* sshd_app = tb.newtos().add_app("sshd");
  apps::EchoServer sshd(tb.newtos(), sshd_app, {});
  sshd.start();

  std::vector<std::unique_ptr<apps::EchoClient>> clients;
  std::vector<AppActor*> client_apps;
  for (int i = 0; i < 4; ++i) {
    client_apps.push_back(
        tb.peer().add_app("ssh" + std::to_string(i)));
    apps::EchoClient::Config cc;
    cc.dst = tb.peer().peer_addr(0);
    cc.prefix = "echo" + std::to_string(i);
    clients.push_back(std::make_unique<apps::EchoClient>(
        tb.peer(), client_apps.back(), cc));
    clients.back()->start();
  }

  FaultInjector faults(tb.newtos(), 7);
  tb.run_until(2 * sim::kSecond);
  for (auto& c : clients) EXPECT_TRUE(c->connected());
  // With four distinct 4-tuples both replicas carry flows; kill replica 1.
  faults.inject("tcp1", FaultType::Crash);
  tb.run_until(6 * sim::kSecond);

  std::uint64_t restored = 0;
  for (int s = 0; s < 2; ++s) {
    restored += tb.newtos().tcp_engine(s)->stats().conns_restored;
  }
  EXPECT_GE(restored, 1u);
  for (auto& c : clients) {
    EXPECT_TRUE(c->connected());
    EXPECT_EQ(c->resets(), 0u);
    EXPECT_EQ(c->reconnects(), 1u);
    EXPECT_GT(c->ok(), 30u);
  }
}

// The storage server crashing does not undermine a later TCP crash: TCP
// re-stores its whole checkpoint namespace when the storage server comes
// back (the same obligation every server has for its state).
TEST(Checkpoint, StorageCrashThenTcpCrash) {
  Rig rig(ckpt_opts());
  rig.tb.run_until(2 * sim::kSecond);
  rig.faults.inject(servers::kStoreName, FaultType::Crash);
  rig.tb.run_until(3 * sim::kSecond);
  rig.faults.inject(servers::kTcpName, FaultType::Crash);
  rig.tb.run_until(8 * sim::kSecond);

  EXPECT_GE(rig.restored(), 1u);
  EXPECT_TRUE(rig.ssh.connected());
  EXPECT_EQ(rig.ssh.resets(), 0u);
  EXPECT_EQ(rig.ssh.reconnects(), 1u);
}

// Past 1024 tracked connections the checkpoint directory no longer fits the
// single storage value the first cut assumed: it must page into chained
// directory keys (CheckpointWriter::kCkptDirPageSocks), count the spill in
// TcpServer::ckpt_overflows, and a restore must walk the whole chain — every
// one of 1500 connections comes back, none is reset.
TEST(Checkpoint, DirectoryOverflowPagesAndRecoversAll) {
  Testbed tb(ckpt_opts());
  AppActor* sshd_app = tb.newtos().add_app("sshd");
  apps::EchoServer sshd(tb.newtos(), sshd_app, {});
  sshd.start();
  AppActor* fleet_app = tb.peer().add_app("fleet");
  ConnFleet fleet(fleet_app, tb.peer().peer_addr(0), 1500);
  fleet.start();

  FaultInjector faults(tb.newtos(), 7);
  tb.run_until(4 * sim::kSecond);
  ASSERT_EQ(fleet.failures, 0);
  ASSERT_EQ(fleet.connected, 1500);
  const std::uint64_t overflows =
      sum_over_replicas(tb.newtos(), &servers::TcpServer::ckpt_overflows);
  EXPECT_GE(overflows, 1u) << "1500 connections never spilled the directory";

  faults.inject(servers::kTcpName, FaultType::Crash);
  tb.run_until(10 * sim::kSecond);

  std::uint64_t restored = 0;
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    restored += tb.newtos().tcp_engine(s)->stats().conns_restored;
  }
  EXPECT_GE(restored, 1500u);
  EXPECT_EQ(fleet.resets, 0);
  EXPECT_EQ(fleet.connected, 1500);
}

// Checkpoint overhead is visible, bounded, and attributed: journal puts
// happen on transitions and watermarks — not per segment.
TEST(Checkpoint, OverheadSurfacesInReplicaCounters) {
  Rig rig(ckpt_opts());
  rig.tb.run_until(3 * sim::kSecond);
  Node& node = rig.tb.newtos();
  const std::uint64_t puts =
      sum_over_replicas(node, &servers::TcpServer::ckpt_puts);
  EXPECT_GT(puts, 0u);
  EXPECT_GT(sum_over_replicas(node, &servers::TcpServer::ckpt_bytes), 0u);
  // Far fewer journal puts than segments processed: the scalars ride the
  // pool-resident page, not IPC.
  const auto& es = rig.tb.newtos().tcp_engine()->stats();
  EXPECT_LT(puts, (es.segs_in + es.segs_out) / 20);
}
