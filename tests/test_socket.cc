// The object-oriented async socket API (TcpSocket/UdpSocket/TcpListener)
// and the per-app submission/completion rings underneath it.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/socket.h"
#include "src/core/socket_ring.h"
#include "src/core/testbed.h"
#include "src/servers/proto.h"
#include "src/servers/storage.h"

using namespace newtos;

namespace {

TestbedOptions options(StackMode mode) {
  TestbedOptions opts;
  opts.mode = mode;
  return opts;
}

// Every arrangement runs the socket-op executors on a different host: the
// split replicas behind SYSCALL and through direct traps, and the combined
// stack behind SYSCALL, over synchronous kernel IPC and inline.
const StackMode kAllModes[] = {StackMode::kMinixSync, StackMode::kSplit,
                               StackMode::kSplitSyscall,
                               StackMode::kSingleServer,
                               StackMode::kIdealMonolithic};

}  // namespace

// Open/connect/close lifecycle, across every stack arrangement: the
// SYSCALL-server path (packed kSockBatch channel messages), the combined
// stack, and the direct-trap split stack all route the same SQ flush.
TEST(SocketObjects, TcpLifecycleAllModes) {
  for (StackMode mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    Testbed tb(options(mode));

    AppActor* srv_app = tb.peer().add_app("srv");
    TcpListener listener(*srv_app);
    std::vector<std::unique_ptr<TcpSocket>> accepted;
    listener.on_event([&](net::TcpEvent ev) {
      if (ev != net::TcpEvent::AcceptReady) return;
      while (auto c = listener.accept()) accepted.push_back(std::move(c));
    });
    bool listen_ok = false;
    listener.bind_listen(net::Ipv4Addr{}, 7000, 4,
                         [&](bool ok) { listen_ok = ok; });

    AppActor* cli_app = tb.newtos().add_app("cli");
    auto sock = std::make_unique<TcpSocket>(*cli_app);
    bool connected = false;
    sock->on_event([&](net::TcpEvent ev) {
      if (ev == net::TcpEvent::Connected) connected = true;
    });
    bool call_ok = false;
    sock->connect(tb.newtos().peer_addr(0), 7000,
                  [&](bool ok) { call_ok = ok; });

    tb.run_until(500 * sim::kMillisecond);
    EXPECT_TRUE(listen_ok);
    EXPECT_TRUE(call_ok);
    EXPECT_TRUE(connected);
    EXPECT_TRUE(sock->valid());
    ASSERT_EQ(accepted.size(), 1u);
    EXPECT_TRUE(accepted[0]->valid());

    bool close_ok = false;
    sock->close([&](bool ok) { close_ok = ok; });
    tb.run_until(1 * sim::kSecond);
    EXPECT_TRUE(close_ok);
    EXPECT_FALSE(sock->valid());
  }
}

// A connect to a port nobody listens on completes with a Reset event, not
// a Connected one — the error completion surfaces through the same ring.
TEST(SocketObjects, ConnectRefusedDeliversReset) {
  Testbed tb(options(StackMode::kSplitSyscall));
  AppActor* cli_app = tb.newtos().add_app("cli");
  TcpSocket sock(*cli_app);
  bool connected = false;
  bool reset = false;
  sock.on_event([&](net::TcpEvent ev) {
    if (ev == net::TcpEvent::Connected) connected = true;
    if (ev == net::TcpEvent::Reset) reset = true;
  });
  bool call_ok = false;
  sock.connect(tb.newtos().peer_addr(0), 9999,
               [&](bool ok) { call_ok = ok; });
  tb.run_until(1 * sim::kSecond);
  EXPECT_TRUE(call_ok);  // the SYN was submitted fine
  EXPECT_FALSE(connected);
  EXPECT_TRUE(reset);
}

// Binding a port that is already taken fails the second bind_listen — the
// in-batch open sentinel resolves each listener to its own fresh socket.
TEST(SocketObjects, BindConflictFails) {
  for (StackMode mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    Testbed tb(options(mode));
    AppActor* app = tb.newtos().add_app("srv");
    TcpListener first(*app);
    TcpListener second(*app);
    bool first_ok = false;
    bool second_ok = true;
    first.bind_listen(net::Ipv4Addr{}, 8080, 4,
                      [&](bool ok) { first_ok = ok; });
    second.bind_listen(net::Ipv4Addr{}, 8080, 4,
                       [&](bool ok) { second_ok = ok; });
    tb.run_until(200 * sim::kMillisecond);
    EXPECT_TRUE(first_ok);
    EXPECT_FALSE(second_ok);
  }
}

// UDP datagram flow: recvfrom reports the sender's address and port, and
// a reply sent to them arrives back.
TEST(SocketObjects, UdpRecvfromAndReply) {
  Testbed tb(options(StackMode::kSplitSyscall));

  AppActor* srv_app = tb.peer().add_app("named");
  UdpSocket server(*srv_app);
  net::Ipv4Addr seen_src;
  std::uint16_t seen_sport = 0;
  std::size_t seen_len = 0;
  server.on_event([&](net::TcpEvent) {
    while (auto d = server.recvfrom()) {
      seen_src = d->src;
      seen_sport = d->sport;
      seen_len = d->data.size();
      server.sendto(static_cast<std::uint32_t>(d->data.size()), d->src,
                    d->sport, {});
    }
  });
  server.bind(net::Ipv4Addr{}, 5353, [](bool) {});

  AppActor* cli_app = tb.newtos().add_app("res");
  UdpSocket client(*cli_app);
  std::size_t replies = 0;
  client.on_event([&](net::TcpEvent) {
    while (client.recvfrom()) ++replies;
  });
  bool ready = false;
  client.connect(tb.newtos().peer_addr(0), 5353,
                 [&](bool ok) { ready = ok; });
  tb.run_until(100 * sim::kMillisecond);
  ASSERT_TRUE(ready);
  cli_app->call([&](sim::Context&) {
    client.sendto(64, net::Ipv4Addr{}, 0, [](bool) {});
  });

  tb.run_until(600 * sim::kMillisecond);
  EXPECT_EQ(seen_len, 64u);
  EXPECT_EQ(seen_src.value, tb.newtos().addr(0).value);
  EXPECT_NE(seen_sport, 0);
  EXPECT_EQ(replies, 1u);
}

// Connections queue in the listener's backlog until the application gets
// around to accepting them.
TEST(SocketObjects, ListenerBacklogHoldsPendingAccepts) {
  Testbed tb(options(StackMode::kSplitSyscall));

  AppActor* srv_app = tb.peer().add_app("srv");
  TcpListener listener(*srv_app);
  // No AcceptReady handling yet: connections must wait in the backlog.
  listener.bind_listen(net::Ipv4Addr{}, 7100, 4, [](bool) {});

  std::vector<std::unique_ptr<TcpSocket>> clients;
  int connected = 0;
  for (int i = 0; i < 3; ++i) {
    AppActor* cli_app = tb.newtos().add_app("cli" + std::to_string(i));
    auto sock = std::make_unique<TcpSocket>(*cli_app);
    sock->on_event([&](net::TcpEvent ev) {
      if (ev == net::TcpEvent::Connected) ++connected;
    });
    sock->connect(tb.newtos().peer_addr(0), 7100, [](bool) {});
    clients.push_back(std::move(sock));
  }

  tb.run_until(500 * sim::kMillisecond);
  EXPECT_EQ(connected, 3);

  // Now drain the backlog in one go.
  std::vector<std::unique_ptr<TcpSocket>> accepted;
  srv_app->call([&](sim::Context&) {
    while (auto c = listener.accept()) accepted.push_back(std::move(c));
  });
  tb.run_until(600 * sim::kMillisecond);
  EXPECT_EQ(accepted.size(), 3u);
}

// Completions of one SQ flush arrive in submission order, under a single
// doorbell: open -> bind -> connect, where the later ops name the socket
// the open creates (kSockFromBatchOpen).
TEST(SocketRingBatching, CompletionsArriveInSubmissionOrder) {
  for (StackMode mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    Testbed tb(options(mode));
    AppActor* app = tb.newtos().add_app("app");
    SocketRing& ring = app->ring();

    std::vector<std::uint16_t> order;
    std::vector<bool> oks;
    auto record = [&](const SockCqe& c) {
      order.push_back(c.opcode);
      oks.push_back(c.ok);
    };

    SockSqe open;
    open.opcode = servers::kSockOpen;
    open.proto = 'U';
    ring.enqueue(open, record);
    SockSqe bind;
    bind.opcode = servers::kSockBind;
    bind.proto = 'U';
    bind.sock = servers::kSockFromBatchOpen;
    bind.arg1 = 5454;
    ring.enqueue(bind, record);
    SockSqe conn;
    conn.opcode = servers::kSockConnect;
    conn.proto = 'U';
    conn.sock = servers::kSockFromBatchOpen;
    conn.arg0 = tb.newtos().peer_addr(0).value;
    conn.arg1 = 53;
    ring.enqueue(conn, record);

    tb.run_until(100 * sim::kMillisecond);

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], servers::kSockOpen);
    EXPECT_EQ(order[1], servers::kSockBind);
    EXPECT_EQ(order[2], servers::kSockConnect);
    EXPECT_TRUE(oks[0]);
    EXPECT_TRUE(oks[1]);  // the sentinel resolved to the socket just opened
    EXPECT_TRUE(oks[2]);

    // All three ops rode one doorbell — the amortization the rings exist
    // for.
    EXPECT_EQ(ring.ops(), 3u);
    EXPECT_EQ(ring.doorbells(), 1u);
    EXPECT_EQ(ring.completions(), 3u);
  }
}

// Two sockets of the same protocol opening in one flush must not alias:
// an op chained onto the FIRST socket after the SECOND's open was queued
// cannot use the nearest-preceding-open sentinel — it is held back and
// replayed with the real id instead.
TEST(SocketRingBatching, TwoOpensInOneFlushDoNotAlias) {
  for (StackMode mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    Testbed tb(options(mode));
    AppActor* app = tb.newtos().add_app("app");
    UdpSocket u1(*app);
    UdpSocket u2(*app);

    bool u1_bind = false;
    bool u2_bind = false;
    bool u1_conn = false;
    u1.bind(net::Ipv4Addr{}, 6001, [&](bool ok) { u1_bind = ok; });
    u2.bind(net::Ipv4Addr{}, 6002, [&](bool ok) { u2_bind = ok; });
    // Queued after u2's open: must bind to u1, not the nearest open (u2).
    u1.connect(tb.newtos().peer_addr(0), 53, [&](bool ok) { u1_conn = ok; });

    tb.run_until(200 * sim::kMillisecond);
    EXPECT_TRUE(u1_bind);
    EXPECT_TRUE(u2_bind);
    EXPECT_TRUE(u1_conn);
    ASSERT_TRUE(u1.valid());
    ASSERT_TRUE(u2.valid());
    EXPECT_NE(u1.id(), u2.id());

    // The connect must have landed on the socket bound to 6001.
    for (const auto& rec : tb.newtos().udp_engine()->snapshot()) {
      if (rec.lport == 6001) {
        EXPECT_EQ(rec.pport, 53);
      }
      if (rec.lport == 6002) {
        EXPECT_EQ(rec.pport, 0);
      }
    }
  }
}

// The listener set is stored when it changes, on a listen and on a
// listener's close, and not on a refused listen or the close of a connected
// socket.  The split TCP server and the combined stack apply the same rule.
TEST(SocketControl, ListenerSetIsStoredOnlyWhenItChanges) {
  for (StackMode mode : {StackMode::kSplitSyscall, StackMode::kSingleServer}) {
    SCOPED_TRACE(to_string(mode));
    Testbed tb(options(mode));
    const servers::StorageServer& store = *tb.newtos().storage();
    tb.run_until(50 * sim::kMillisecond);  // the boot-time puts are done

    AppActor* srv_app = tb.newtos().add_app("srv");
    TcpListener listener(*srv_app);
    std::vector<std::unique_ptr<TcpSocket>> accepted;
    listener.on_event([&](net::TcpEvent ev) {
      if (ev != net::TcpEvent::AcceptReady) return;
      while (auto c = listener.accept()) accepted.push_back(std::move(c));
    });
    std::uint64_t puts = store.puts();
    bool listen_ok = false;
    listener.bind_listen(net::Ipv4Addr{}, 7000, 4,
                         [&](bool ok) { listen_ok = ok; });
    tb.run_until(100 * sim::kMillisecond);
    ASSERT_TRUE(listen_ok);
    EXPECT_EQ(store.puts(), puts + 1) << "a listen";

    TcpListener taken(*srv_app);
    bool taken_ok = true;
    taken.bind_listen(net::Ipv4Addr{}, 7000, 4,
                      [&](bool ok) { taken_ok = ok; });
    tb.run_until(150 * sim::kMillisecond);
    EXPECT_FALSE(taken_ok);
    EXPECT_EQ(store.puts(), puts + 1) << "a listen on a taken port";

    AppActor* cli_app = tb.peer().add_app("cli");
    TcpSocket client(*cli_app);
    client.connect(tb.peer().peer_addr(0), 7000, [](bool) {});
    tb.run_until(300 * sim::kMillisecond);
    ASSERT_EQ(accepted.size(), 1u);

    puts = store.puts();
    bool conn_closed = false;
    accepted[0]->close([&](bool ok) { conn_closed = ok; });
    tb.run_until(400 * sim::kMillisecond);
    EXPECT_TRUE(conn_closed);
    EXPECT_EQ(store.puts(), puts) << "an accepted connection's close";

    bool listener_closed = false;
    listener.close([&](bool ok) { listener_closed = ok; });
    tb.run_until(500 * sim::kMillisecond);
    EXPECT_TRUE(listener_closed);
    EXPECT_EQ(store.puts(), puts + 1) << "the listener's close";
  }
}

// Section V-D: when a transport restarts, SYSCALL resubmits the UDP ops it
// had in flight there.  A connect queued at the hung server dies with its
// queue and completes once, on the new incarnation.
TEST(SocketControl, SyscallResendsUdpOpsAcrossATransportRestart) {
  Testbed tb(options(StackMode::kSplitSyscall));
  AppActor* app = tb.newtos().add_app("app");
  UdpSocket sock(*app);
  bool bound = false;
  sock.bind(net::Ipv4Addr{}, 6001, [&](bool ok) { bound = ok; });
  tb.run_until(100 * sim::kMillisecond);
  ASSERT_TRUE(bound);

  servers::Server* udp = tb.newtos().server(servers::kUdpName);
  udp->hang();
  int completions = 0;
  bool connected = false;
  sock.connect(tb.newtos().peer_addr(0), 53, [&](bool ok) {
    ++completions;
    connected = ok;
  });
  tb.run_until(110 * sim::kMillisecond);
  EXPECT_EQ(completions, 0);
  udp->kill();
  tb.run_until(1 * sim::kSecond);

  EXPECT_TRUE(udp->ready());
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(connected);
  const auto rec = tb.newtos().udp_engine()->record(sock.id());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->lport, 6001);
  EXPECT_EQ(rec->pport, 53);
}

// TCP ops other than listen are failed instead: "TCP returns error to any
// operation the SYSCALL server resubmits except listen" (Section V-D).
TEST(SocketControl, SyscallFailsTcpOpsAcrossATransportRestart) {
  Testbed tb(options(StackMode::kSplitSyscall));
  AppActor* app = tb.newtos().add_app("app");
  tb.run_until(100 * sim::kMillisecond);

  servers::Server* tcp = tb.newtos().server(servers::kTcpName);
  tcp->hang();
  TcpSocket sock(*app);
  int completions = 0;
  bool accepted = true;
  sock.connect(tb.newtos().peer_addr(0), 7000, [&](bool ok) {
    ++completions;
    accepted = ok;
  });
  tb.run_until(110 * sim::kMillisecond);
  EXPECT_EQ(completions, 0);
  tcp->kill();
  tb.run_until(1 * sim::kSecond);

  EXPECT_TRUE(tcp->ready());
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(accepted);
}

// An op queued at a transport that dies before taking it fails once, and
// an op that already ran is not completed again.  Without a SYSCALL server
// (kSplit, and kMinixSync's combined stack) the app traps straight into
// the transport and the op fails with kSockEDown; behind SYSCALL
// (kSingleServer) the restarted transport's error reply fails it.
TEST(SocketControl, OpsFailOnceWhenTheirTransportDies) {
  const std::pair<StackMode, std::uint16_t> cases[] = {
      {StackMode::kSplit, kSockEDown},
      {StackMode::kMinixSync, kSockEDown},
      {StackMode::kSingleServer, kSockERejected}};
  for (const auto& [mode, err] : cases) {
    SCOPED_TRACE(to_string(mode));
    Testbed tb(options(mode));
    AppActor* app = tb.newtos().add_app("app");
    SocketRing& ring = app->ring();
    std::vector<SockCqe> done;
    auto record = [&](const SockCqe& c) { done.push_back(c); };

    SockSqe open;
    open.opcode = servers::kSockOpen;
    open.proto = 'T';
    ring.enqueue(open, record);
    tb.run_until(100 * sim::kMillisecond);
    ASSERT_EQ(done.size(), 1u);
    ASSERT_TRUE(done[0].ok);

    servers::Server* transport = tb.newtos().transport_server('T');
    transport->hang();
    SockSqe conn;
    conn.opcode = servers::kSockConnect;
    conn.proto = 'T';
    conn.sock = done[0].sock;
    conn.arg0 = tb.newtos().peer_addr(0).value;
    conn.arg1 = 7000;
    ring.enqueue(conn, record);
    tb.run_until(110 * sim::kMillisecond);
    EXPECT_EQ(done.size(), 1u);
    transport->kill();
    tb.run_until(1 * sim::kSecond);

    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1].opcode, servers::kSockConnect);
    EXPECT_FALSE(done[1].ok);
    EXPECT_EQ(done[1].err, err);
    EXPECT_EQ(ring.completions(), ring.ops());
  }
}

// SYSCALL's crash holes: every op a flush carries completes exactly once,
// with an error, whether SYSCALL dies before taking the flush, is down when
// the flush arrives, or dies before the transport's reply reaches it.
namespace {

const StackMode kSyscallModes[] = {StackMode::kSplitSyscall,
                                   StackMode::kSingleServer};

// An app with one open TCP socket behind SYSCALL, recording completions.
struct SyscallRig {
  explicit SyscallRig(StackMode mode)
      : tb(options(mode)), app(tb.newtos().add_app("app")) {
    open();
    tb.run_until(100 * sim::kMillisecond);
  }

  SocketRing& ring() { return app->ring(); }
  servers::Server* syscall() { return tb.newtos().syscall(); }
  void open() {
    SockSqe op;
    op.opcode = servers::kSockOpen;
    op.proto = 'T';
    ring().enqueue(op, [this](const SockCqe& c) { done.push_back(c); });
  }
  void connect() {
    SockSqe op;
    op.opcode = servers::kSockConnect;
    op.proto = 'T';
    op.sock = done.at(0).sock;
    op.arg0 = tb.newtos().peer_addr(0).value;
    op.arg1 = 7000;
    ring().enqueue(op, [this](const SockCqe& c) { done.push_back(c); });
  }
  // The last op completed exactly once, with an error, and nothing else
  // is left without its completion.
  void expect_last_failed_once(std::size_t ops, std::uint16_t opcode) {
    ASSERT_EQ(done.size(), ops);
    EXPECT_EQ(done.back().opcode, opcode);
    EXPECT_FALSE(done.back().ok);
    EXPECT_EQ(ring().completions(), ring().ops());
  }

  Testbed tb;
  AppActor* app;
  std::vector<SockCqe> done;
};

}  // namespace

TEST(SocketControl, FlushSyscallNeverTookFailsOnce) {
  for (const StackMode mode : kSyscallModes) {
    SCOPED_TRACE(to_string(mode));
    SyscallRig rig(mode);
    rig.syscall()->hang();
    rig.connect();
    rig.tb.run_until(110 * sim::kMillisecond);
    EXPECT_EQ(rig.done.size(), 1u);
    rig.syscall()->kill();
    rig.tb.run_until(1 * sim::kSecond);
    rig.expect_last_failed_once(2, servers::kSockConnect);
  }
}

TEST(SocketControl, FlushWhileSyscallRestartsFailsOnce) {
  for (const StackMode mode : kSyscallModes) {
    SCOPED_TRACE(to_string(mode));
    SyscallRig rig(mode);
    rig.syscall()->kill();  // reincarnated after the restart delay
    rig.connect();
    rig.tb.run_until(1 * sim::kSecond);
    rig.expect_last_failed_once(2, servers::kSockConnect);
    // The reincarnated server takes the next flush.
    EXPECT_TRUE(rig.syscall()->ready());
    rig.open();
    rig.tb.run_until(1100 * sim::kMillisecond);
    ASSERT_EQ(rig.done.size(), 3u);
    EXPECT_TRUE(rig.done[2].ok);
  }
}

TEST(SocketControl, ReplySyscallMissedFailsOnce) {
  for (const StackMode mode : kSyscallModes) {
    SCOPED_TRACE(to_string(mode));
    SyscallRig rig(mode);
    // Slowed down, SYSCALL forwards the connect and then stays busy, so
    // the transport's reply still waits in its queue when it dies.
    rig.syscall()->set_slowdown(1e5);
    rig.connect();
    rig.tb.run_until(101 * sim::kMillisecond);
    EXPECT_EQ(rig.done.size(), 1u);
    rig.syscall()->kill();
    rig.tb.run_until(1 * sim::kSecond);
    rig.expect_last_failed_once(2, servers::kSockConnect);
  }
}

// A reply that reaches the next incarnation, for an op that already failed
// when SYSCALL died, is ignored.  The failed op's batch still waits in the
// transport's queue, so its staging chunk must stay held: a flush the next
// incarnation packs meanwhile must not land in it and run twice.
TEST(SocketControl, LateReplyAfterSyscallRestartIsIgnored) {
  for (const StackMode mode : kSyscallModes) {
    SCOPED_TRACE(to_string(mode));
    SyscallRig rig(mode);
    // Slowed down, the transport answers a second open at once but stays
    // busy long after, so the connect waits in its queue until SYSCALL has
    // died and come back.
    servers::Server* transport = rig.tb.newtos().transport_server('T');
    transport->set_slowdown(1e5);
    rig.open();
    rig.tb.run_until(101 * sim::kMillisecond);
    ASSERT_EQ(rig.done.size(), 2u);
    rig.connect();
    rig.tb.run_until(102 * sim::kMillisecond);
    rig.syscall()->kill();
    rig.tb.run_until(110 * sim::kMillisecond);
    rig.expect_last_failed_once(3, servers::kSockConnect);
    // The next incarnation forwards an open of the connect's batch size
    // while the connect's batch is still unread.
    ASSERT_TRUE(rig.syscall()->ready());
    rig.open();
    rig.tb.run_until(111 * sim::kMillisecond);
    EXPECT_EQ(rig.done.size(), 3u);
    transport->set_slowdown(1.0);
    rig.tb.run_until(2 * sim::kSecond);
    ASSERT_EQ(rig.done.size(), 4u);
    EXPECT_TRUE(rig.done[3].ok);
    // The open ran once: the transport's next socket id follows it.
    rig.open();
    rig.tb.run_until(2100 * sim::kMillisecond);
    ASSERT_EQ(rig.done.size(), 5u);
    EXPECT_TRUE(rig.done[4].ok);
    EXPECT_EQ(rig.done[4].sock, rig.done[3].sock + 1);
    EXPECT_EQ(rig.ring().completions(), rig.ring().ops());
  }
}

