// Table II: peak performance of outgoing TCP in various setups.
//
// Reproduces the seven rows of the paper's Table II.  The testbed mirrors
// the paper's machine: the system under test drives 5 gigabit NICs (1500
// MTU), each wired to an ideal traffic sink; the "Linux 10GbE" reference
// row runs an in-process stack on a single 10 Gb/s link.  One bulk TCP
// connection runs per NIC.  We report the aggregate receiver goodput after
// slow start settles.
//
// Expected shape (paper values in brackets): the synchronous MINIX baseline
// is an order of magnitude below everything [120 Mb/s]; the NewtOS variants
// without TSO cluster in the 3-4 Gb/s band [3.2-3.9 Gb/s]; TSO saturates
// all five links [5+ Gb/s]; the ideal monolithic 10GbE reference tops the
// table [8.4 Gb/s].
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/core/apps.h"
#include "src/core/socket.h"
#include "src/core/testbed.h"
#include "src/servers/driver_server.h"
#include "src/servers/ip_server.h"
#include "src/servers/tcp_server.h"

using namespace newtos;

namespace {

struct Row {
  const char* label;
  const char* paper;
  TestbedOptions opts;
  sim::Time warmup;
  sim::Time window;
};

struct RowResult {
  double gbps = 0.0;
  double msgs_per_frame = 0.0;   // channel messages per NIC frame (DUT)
  double copies_per_byte = 0.0;  // socket-layer memcpy per delivered byte
};

RowResult run_row(const TestbedOptions& opts, sim::Time warmup,
                  sim::Time window) {
  Testbed tb(opts);
  std::vector<std::unique_ptr<apps::BulkReceiver>> receivers;
  std::vector<std::unique_ptr<apps::BulkSender>> senders;
  for (int i = 0; i < opts.nics; ++i) {
    AppActor* rx_app = tb.peer().add_app("iperf_rx" + std::to_string(i));
    apps::BulkReceiver::Config rc;
    rc.port = static_cast<std::uint16_t>(5001 + i);
    rc.record_series = false;
    receivers.push_back(
        std::make_unique<apps::BulkReceiver>(tb.peer(), rx_app, rc));
    receivers.back()->start();

    AppActor* tx_app = tb.newtos().add_app("iperf_tx" + std::to_string(i));
    apps::BulkSender::Config sc;
    sc.dst = tb.newtos().peer_addr(i);
    sc.port = rc.port;
    sc.write_size = opts.app_write_size;
    senders.push_back(
        std::make_unique<apps::BulkSender>(tb.newtos(), tx_app, sc));
    senders.back()->start();
  }

  tb.run_until(warmup);
  std::uint64_t start_bytes = 0;
  for (auto& r : receivers) start_bytes += r->bytes();
  tb.run_until(warmup + window);
  std::uint64_t bytes = 0;
  for (auto& r : receivers) bytes += r->bytes();
  bytes -= start_bytes;

  RowResult res;
  res.gbps = static_cast<double>(bytes) * 8.0 /
             (static_cast<double>(window) / 1e9) / 1e9;
  std::uint64_t frames = 0;
  for (int i = 0; i < tb.newtos().nic_count(); ++i) {
    const auto& ns = tb.newtos().nic(i)->stats();
    frames += ns.tx_frames + ns.rx_frames;
  }
  if (frames > 0) {
    res.msgs_per_frame =
        static_cast<double>(tb.newtos().total_channel_messages()) /
        static_cast<double>(frames);
  }
  std::uint64_t total_bytes = 0;
  for (auto& r : receivers) total_bytes += r->bytes();
  if (total_bytes > 0) {
    res.copies_per_byte =
        static_cast<double>(tb.newtos().stats().get("sock.bytes_copied")) /
        static_cast<double>(total_bytes);
  }
  return res;
}

TestbedOptions base(StackMode mode, int nics, bool tso) {
  TestbedOptions o;
  o.mode = mode;
  o.nics = nics;
  o.tso = tso;
  o.gbps = 1.0;
  o.use_pf = true;
  o.pf_filler_rules = 0;
  o.app_write_size = 65536;  // iperf-style large writes
  return o;
}

}  // namespace

namespace {

// The receive-side batching datapoint: 5 gigabit links of bulk TCP INTO
// the system under test.  Per-frame RX pays one kernel interrupt message,
// one channel message per hop and one tcp_segment_proc per MSS frame — at
// 5 GbE inbound the transport core saturates and the node livelocks on its
// own receive path.  With the NICs coalescing 8-frame bursts and IP
// merging them into GRO aggregates, the interrupt, the per-hop messages
// and the TCP charge amortize across the burst.
void rx_batching_datapoint(benchjson::Writer& jw) {
  constexpr int kNics = 5;
  const sim::Time warm = 400 * sim::kMillisecond;
  const sim::Time window = 600 * sim::kMillisecond;

  struct Cfg {
    const char* label;
    int coalesce_frames;
    std::uint32_t coalesce_usecs;
    bool gro;
  };
  const Cfg cfgs[] = {
      {"rx per-frame (baseline)", 0, 0, false},
      {"rx coalesce 8 frames + GRO", 8, 120, true},
  };

  std::printf(
      "\nReceive-side batching (split stack + SYSCALL, %d NICs inbound "
      "bulk TCP):\n",
      kNics);
  double baseline = 0.0;
  bool have_baseline = false;
  for (const Cfg& c : cfgs) {
    TestbedOptions opts = base(StackMode::kSplitSyscall, kNics, false);
    opts.rx_coalesce_frames = c.coalesce_frames;
    opts.rx_coalesce_usecs = c.coalesce_usecs;
    opts.gro = c.gro;
    Testbed tb(opts);

    std::vector<std::unique_ptr<apps::BulkReceiver>> receivers;
    std::vector<std::unique_ptr<apps::BulkSender>> senders;
    for (int i = 0; i < kNics; ++i) {
      AppActor* rx_app = tb.newtos().add_app("iperf_rx" + std::to_string(i));
      apps::BulkReceiver::Config rc;
      rc.port = static_cast<std::uint16_t>(5001 + i);
      rc.record_series = false;
      receivers.push_back(
          std::make_unique<apps::BulkReceiver>(tb.newtos(), rx_app, rc));
      receivers.back()->start();
      AppActor* tx_app = tb.peer().add_app("iperf_tx" + std::to_string(i));
      apps::BulkSender::Config sc;
      sc.dst = tb.peer().peer_addr(i);
      sc.port = rc.port;
      sc.write_size = opts.app_write_size;
      senders.push_back(
          std::make_unique<apps::BulkSender>(tb.peer(), tx_app, sc));
      senders.back()->start();
    }

    tb.run_until(warm);
    std::uint64_t start_bytes = 0;
    for (auto& r : receivers) start_bytes += r->bytes();
    tb.run_until(warm + window);
    std::uint64_t bytes = 0;
    for (auto& r : receivers) bytes += r->bytes();
    bytes -= start_bytes;
    const double gbps = static_cast<double>(bytes) * 8.0 /
                        (static_cast<double>(window) / 1e9) / 1e9;

    std::uint64_t drv_msgs = 0;
    std::uint64_t drv_frames = 0;
    for (int i = 0; i < kNics; ++i) {
      auto* drv = dynamic_cast<servers::DriverServer*>(
          tb.newtos().server(servers::driver_name(i)));
      if (drv == nullptr) continue;
      drv_msgs += drv->rx_msgs();
      drv_frames += drv->rx_frames();
    }
    auto* ips = dynamic_cast<servers::IpServer*>(
        tb.newtos().server(servers::kIpName));
    const double drv_mpf =
        drv_frames ? static_cast<double>(drv_msgs) /
                         static_cast<double>(drv_frames)
                   : 0.0;
    const double ip_mpf =
        (ips != nullptr && ips->l4_frames() > 0)
            ? static_cast<double>(ips->l4_msgs()) /
                  static_cast<double>(ips->l4_frames())
            : 0.0;
    const auto& tcp = tb.newtos().tcp_engine()->stats();
    const double acks_per_seg =
        tcp.segs_in ? static_cast<double>(tcp.acks_out) /
                          static_cast<double>(tcp.segs_in)
                    : 0.0;

    if (!have_baseline) {
      baseline = gbps;
      have_baseline = true;
    }
    std::printf(
        "  %-28s %6.2f Gb/s   drv->ip %.3f msg/frame, ip->tcp %.3f "
        "msg/frame, %.2f ACKs/seg%s\n",
        c.label, gbps, drv_mpf, ip_mpf, acks_per_seg,
        c.gro && gbps >= 1.5 * baseline ? "  (>= 1.5x: RX batching pays)"
                                        : "");
    jw.begin_row();
    jw.field("label", std::string("datapoint: ") + c.label);
    jw.field("gbps", gbps);
    jw.field("drv_msgs_per_frame", drv_mpf);
    jw.field("ip_msgs_per_frame", ip_mpf);
    jw.field("acks_per_segment", acks_per_seg);
    jw.field("gro_aggs", tcp.aggs_in);
    jw.field("speedup_vs_per_frame",
             baseline > 0.0 ? gbps / baseline : 0.0);
  }
}

// The ring amortization datapoint: socket ops completed per kernel-IPC trap
// with the batched submission/completion rings (src/core/socket_ring.h).
// One bulk sender (up to 8 in-flight writes per flush) plus an echo pair
// provide a mixed control-op load.
void batching_datapoint(benchjson::Writer& jw) {
  TestbedOptions opts = base(StackMode::kSplitSyscall, 1, false);
  Testbed tb(opts);

  AppActor* rx_app = tb.peer().add_app("iperf_rx");
  apps::BulkReceiver::Config rc;
  rc.record_series = false;
  apps::BulkReceiver receiver(tb.peer(), rx_app, rc);
  receiver.start();
  AppActor* tx_app = tb.newtos().add_app("iperf_tx");
  apps::BulkSender::Config sc;
  sc.dst = tb.newtos().peer_addr(0);
  sc.write_size = opts.app_write_size;
  apps::BulkSender sender(tb.newtos(), tx_app, sc);
  sender.start();

  AppActor* sshd_app = tb.newtos().add_app("sshd");
  apps::EchoServer sshd(tb.newtos(), sshd_app, {});
  sshd.start();
  AppActor* ssh_app = tb.peer().add_app("ssh");
  apps::EchoClient::Config ec;
  ec.dst = tb.peer().peer_addr(0);
  apps::EchoClient ssh(tb.peer(), ssh_app, ec);
  ssh.start();

  tb.run_until(1 * sim::kSecond);

  const auto& st = tb.newtos().stats();
  const std::uint64_t ops = st.get("sockring.ops");
  const std::uint64_t bells = st.get("sockring.doorbells");
  auto* sys = tb.newtos().syscall();
  std::printf("\nBatched submission rings (split stack + SYSCALL, 1s):\n");
  std::printf("  app socket ops submitted:   %llu\n",
              static_cast<unsigned long long>(ops));
  std::printf("  doorbells (kernel traps):   %llu\n",
              static_cast<unsigned long long>(bells));
  std::printf("  ops per trap:               %.2f %s\n",
              bells == 0 ? 0.0
                         : static_cast<double>(ops) /
                               static_cast<double>(bells),
              bells != 0 && ops >= 2 * bells ? "(>= 2: batching pays)"
                                             : "");
  if (sys != nullptr) {
    std::printf("  SYSCALL server: %llu ops in %llu batch messages\n",
                static_cast<unsigned long long>(sys->calls()),
                static_cast<unsigned long long>(sys->batches()));
  }
  // Section IV-A drop policy, made visible: how many channel sends the
  // servers had to drop or defer during the run.
  std::printf("  channel send failures:      %llu\n",
              static_cast<unsigned long long>(
                  tb.newtos().publish_channel_stats()));
  jw.begin_row();
  jw.field("label", std::string("datapoint: submission-ring batching"));
  jw.field("ops", ops);
  jw.field("doorbells", bells);
  jw.field("ops_per_trap",
           bells == 0 ? 0.0
                      : static_cast<double>(ops) / static_cast<double>(bells));
}

// The chunk-lending datapoint (Section V-C): a zero-copy TCP proxy on the
// system under test splices a bulk stream from one peer socket to another
// with recv_zc()/forward() — the payload chunks travel by rich pointer from
// the NIC's receive pool through the proxy and back to the NIC.  The
// "sock.bytes_copied" counter proves the socket layer moved 0 bytes.
void zero_copy_datapoint(benchjson::Writer& jw) {
  TestbedOptions opts = base(StackMode::kSplitSyscall, 1, false);
  Testbed tb(opts);

  AppActor* rx_app = tb.peer().add_app("sink");
  apps::BulkReceiver::Config rc;
  rc.port = 5002;
  rc.record_series = false;
  apps::BulkReceiver receiver(tb.peer(), rx_app, rc);
  receiver.start();

  AppActor* px_app = tb.newtos().add_app("proxy");
  TcpListener px_listener(*px_app);
  std::unique_ptr<TcpSocket> px_in;
  std::unique_ptr<TcpSocket> px_out;
  bool out_connected = false;
  std::uint64_t forwarded = 0;
  auto pump = [&]() {
    if (!px_in || !px_out || !out_connected) return;
    for (;;) {
      const std::size_t n = px_in->forward(*px_out, 256 * 1024);
      if (n == 0) break;
      forwarded += n;
    }
  };
  px_listener.on_event([&](net::TcpEvent ev) {
    if (ev != net::TcpEvent::AcceptReady) return;
    while (auto c = px_listener.accept()) {
      px_in = std::move(c);
      px_in->on_event([&](net::TcpEvent cev) {
        if (cev == net::TcpEvent::Readable) pump();
      });
      px_out = std::make_unique<TcpSocket>(*px_app);
      px_out->on_event([&](net::TcpEvent oev) {
        if (oev == net::TcpEvent::Connected) {
          out_connected = true;
          pump();
        } else if (oev == net::TcpEvent::Writable) {
          pump();
        }
      });
      px_out->connect(tb.newtos().peer_addr(0), 5002, [](bool) {});
    }
  });
  px_listener.bind_listen(net::Ipv4Addr{}, 5001, 4, [](bool) {});
  // The proxy's Readable events batch; a slow poll catches stragglers when
  // data raced ahead of the outbound connect.
  std::function<void()> poll = [&]() {
    pump();
    px_app->call_after(10 * sim::kMillisecond,
                       [&](sim::Context&) { poll(); });
  };
  px_app->call([&](sim::Context&) { poll(); });

  AppActor* tx_app = tb.peer().add_app("src");
  apps::BulkSender::Config sc;
  sc.dst = tb.peer().peer_addr(0);
  sc.port = 5001;
  sc.write_size = opts.app_write_size;
  apps::BulkSender sender(tb.peer(), tx_app, sc);
  sender.start();

  tb.run_until(1 * sim::kSecond);

  const std::uint64_t copied = tb.newtos().stats().get("sock.bytes_copied");
  std::printf("\nZero-copy proxy (recv_zc + forward, split stack, 1s):\n");
  std::printf("  bytes spliced through proxy:  %llu (%.2f Gb/s)\n",
              static_cast<unsigned long long>(forwarded),
              static_cast<double>(forwarded) * 8.0 / 1e9);
  std::printf("  bytes at the final receiver:  %llu (%.2f Gb/s end to end)\n",
              static_cast<unsigned long long>(receiver.bytes()),
              static_cast<double>(receiver.bytes()) * 8.0 / 1e9);
  std::printf("  payload bytes memcpy'd:       %llu\n",
              static_cast<unsigned long long>(copied));
  std::printf("  copies per byte:              %.4f %s\n",
              forwarded == 0 ? 0.0
                             : static_cast<double>(copied) /
                                   static_cast<double>(forwarded),
              copied == 0 && forwarded > 0 ? "(zero-copy path holds)"
                                           : "(EXPECTED 0!)");
  std::printf("  send-pool ENOBUFS events:     %llu\n",
              static_cast<unsigned long long>(
                  tb.newtos().stats().get("sock.enobufs")));
  jw.begin_row();
  jw.field("label", std::string("datapoint: zero-copy proxy"));
  jw.field("gbps", static_cast<double>(forwarded) * 8.0 / 1e9);
  jw.field("bytes_copied", copied);
  jw.field("copies_per_byte",
           forwarded == 0 ? 0.0
                          : static_cast<double>(copied) /
                                static_cast<double>(forwarded));
}

// Shared body of the many-flow outbound experiments: `flows` bulk TCP
// connections leave the system under test over its NICs; returns aggregate
// receiver goodput over the measurement window.
double run_outbound_flows(Testbed& tb, int flows, int nics,
                          std::uint32_t write_size, sim::Time warm,
                          sim::Time window) {
  std::vector<std::unique_ptr<apps::BulkReceiver>> receivers;
  std::vector<std::unique_ptr<apps::BulkSender>> senders;
  for (int f = 0; f < flows; ++f) {
    AppActor* rx_app = tb.peer().add_app("rx" + std::to_string(f));
    apps::BulkReceiver::Config rc;
    rc.port = static_cast<std::uint16_t>(6001 + f);
    rc.record_series = false;
    receivers.push_back(
        std::make_unique<apps::BulkReceiver>(tb.peer(), rx_app, rc));
    receivers.back()->start();

    AppActor* tx_app = tb.newtos().add_app("tx" + std::to_string(f));
    apps::BulkSender::Config sc;
    sc.dst = tb.newtos().peer_addr(f % nics);
    sc.port = rc.port;
    sc.write_size = write_size;
    senders.push_back(
        std::make_unique<apps::BulkSender>(tb.newtos(), tx_app, sc));
    senders.back()->start();
  }

  tb.run_until(warm);
  std::uint64_t start_bytes = 0;
  for (auto& r : receivers) start_bytes += r->bytes();
  tb.run_until(warm + window);
  std::uint64_t bytes = 0;
  for (auto& r : receivers) bytes += r->bytes();
  bytes -= start_bytes;
  return static_cast<double>(bytes) * 8.0 /
         (static_cast<double>(window) / 1e9) / 1e9;
}

// The sharded-transport scalability datapoint: the paper's argument that a
// component can be replicated across further cores, measured.  32 bulk TCP
// flows leave the system under test over 5 gigabit links; the TCP server —
// the per-byte bottleneck of the split stack (rows 2/3) — runs as 1, 2 and
// 4 replicas with 4-tuple flow steering.  Aggregate goodput must rise with
// the replica count until the wires (5 Gb/s) cap it.
void sharding_datapoint(benchjson::Writer& jw) {
  constexpr int kFlows = 32;
  constexpr int kNics = 5;
  const sim::Time warm = 300 * sim::kMillisecond;
  const sim::Time window = 500 * sim::kMillisecond;

  std::printf(
      "\nSharded transport plane (split stack + SYSCALL, %d flows, %d "
      "NICs):\n",
      kFlows, kNics);
  for (int shards : {1, 2, 4}) {
    TestbedOptions opts = base(StackMode::kSplitSyscall, kNics, false);
    opts.tcp_shards = shards;
    Testbed tb(opts);
    const double gbps = run_outbound_flows(tb, kFlows, kNics,
                                           opts.app_write_size, warm, window);

    std::size_t conns = 0;
    std::size_t busiest = 0;
    for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
      const std::size_t n = tb.newtos().tcp_engine(s)->connection_count();
      conns += n;
      busiest = std::max(busiest, n);
    }
    std::printf(
        "  tcp_shards=%d:  %6.2f Gb/s aggregate   (%zu flows, busiest "
        "replica carries %zu)\n",
        shards, gbps, conns, busiest);
    jw.begin_row();
    jw.field("label", std::string("datapoint: sharding tcp_shards=") +
                          std::to_string(shards));
    jw.field("gbps", gbps);
    jw.field("flows", static_cast<std::uint64_t>(conns));
    jw.field("busiest_replica", static_cast<std::uint64_t>(busiest));
  }
}

// Shared body of the many-flow inbound experiments: `flows` bulk TCP
// connections enter the system under test over its NICs; returns aggregate
// receiver goodput over the measurement window.
double run_inbound_flows(Testbed& tb, int flows, int nics,
                         std::uint32_t write_size, sim::Time warm,
                         sim::Time window) {
  std::vector<std::unique_ptr<apps::BulkReceiver>> receivers;
  std::vector<std::unique_ptr<apps::BulkSender>> senders;
  for (int f = 0; f < flows; ++f) {
    AppActor* rx_app = tb.newtos().add_app("rx" + std::to_string(f));
    apps::BulkReceiver::Config rc;
    rc.port = static_cast<std::uint16_t>(6001 + f);
    rc.record_series = false;
    receivers.push_back(
        std::make_unique<apps::BulkReceiver>(tb.newtos(), rx_app, rc));
    receivers.back()->start();

    AppActor* tx_app = tb.peer().add_app("tx" + std::to_string(f));
    apps::BulkSender::Config sc;
    sc.dst = tb.peer().peer_addr(f % nics);
    sc.port = rc.port;
    sc.write_size = write_size;
    senders.push_back(
        std::make_unique<apps::BulkSender>(tb.peer(), tx_app, sc));
    senders.back()->start();
  }

  tb.run_until(warm);
  std::uint64_t start_bytes = 0;
  for (auto& r : receivers) start_bytes += r->bytes();
  tb.run_until(warm + window);
  std::uint64_t bytes = 0;
  for (auto& r : receivers) bytes += r->bytes();
  bytes -= start_bytes;
  return static_cast<double>(bytes) * 8.0 /
         (static_cast<double>(window) / 1e9) / 1e9;
}

// The multi-queue RSS datapoint: the 32-flow sharded experiment run in the
// direction receive-side scaling is for — INTO the system under test, on
// per-frame receive (the classic path every Table II row uses), with the
// transport plane fixed at 4 replicas and 5 x 2GbE so the wire is not the
// ceiling.  With one queue this IS the classic sharded configuration:
// every inbound frame funnels through the central IP server, which hashes
// and re-forwards each one — IP saturates and the aggregate stalls under
// 3 Gb/s no matter how many replicas wait behind it.  With rx_queues ==
// tcp_shards every steerable frame lands on the queue of its home replica
// and the drivers post it there directly (kDrvRxFast) — the hoisted IP
// receive work runs on the shards' own cores, the serialization point
// disappears, and the aggregate beats the single-stack TSO row (4.74).
void rss_datapoint(benchjson::Writer& jw) {
  constexpr int kFlows = 32;
  constexpr int kNics = 5;
  constexpr int kShards = 4;
  const sim::Time warm = 300 * sim::kMillisecond;
  const sim::Time window = 500 * sim::kMillisecond;

  std::printf(
      "\nMulti-queue RSS fast path (split stack + SYSCALL, %d inbound "
      "flows, %d x 2GbE, tcp_shards=%d):\n",
      kFlows, kNics, kShards);
  for (int queues : {1, 2, 4}) {
    TestbedOptions opts = base(StackMode::kSplitSyscall, kNics, false);
    opts.tcp_shards = kShards;
    opts.rx_queues = queues;
    opts.gbps = 2.0;
    Testbed tb(opts);
    const double gbps = run_inbound_flows(tb, kFlows, kNics,
                                          opts.app_write_size, warm, window);

    // The per-shard inbound split: frames each replica's fast path consumed
    // locally vs frames that still crossed the central IP server.
    std::uint64_t fast = 0;
    std::uint64_t fallback = 0;
    std::string per_shard;
    for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
      auto* tcp = dynamic_cast<servers::TcpServer*>(
          tb.newtos().transport_server('T', s));
      if (tcp == nullptr || tcp->fastpath() == nullptr) continue;
      const auto& fs = tcp->fastpath()->stats();
      fast += fs.fast_frames;
      fallback += fs.fallback_frames;
      if (!per_shard.empty()) per_shard += '/';
      per_shard += std::to_string(fs.fast_frames);
    }
    std::printf(
        "  rx_queues=%d:  %6.2f Gb/s aggregate   (fast %llu, fallback %llu"
        "%s%s)\n",
        queues, gbps, static_cast<unsigned long long>(fast),
        static_cast<unsigned long long>(fallback),
        per_shard.empty() ? "" : ", per shard ", per_shard.c_str());
    jw.begin_row();
    jw.field("label", std::string("datapoint: rss rx_queues=") +
                          std::to_string(queues) + " tcp_shards=" +
                          std::to_string(kShards));
    jw.field("gbps", gbps);
    jw.field("fast_frames", fast);
    jw.field("fallback_frames", fallback);
  }
}

}  // namespace

int main() {
  const sim::Time kWarm = 400 * sim::kMillisecond;
  const sim::Time kWin = 600 * sim::kMillisecond;

  std::vector<Row> rows;
  {
    TestbedOptions o = base(StackMode::kMinixSync, 1, false);
    o.csum_offload = false;  // the original stack checksummed in software
    rows.push_back({"1  Minix 3, 1 CPU, kernel IPC and copies     ",
                    "0.12", o, kWarm, kWin});
  }
  rows.push_back({"2  NewtOS, split stack, dedicated cores       ", "3.2",
                  base(StackMode::kSplit, 5, false), kWarm, kWin});
  rows.push_back({"3  NewtOS, split stack + SYSCALL              ", "3.6",
                  base(StackMode::kSplitSyscall, 5, false), kWarm, kWin});
  rows.push_back({"4  NewtOS, 1 server stack + SYSCALL           ", "3.9",
                  base(StackMode::kSingleServer, 5, false), kWarm, kWin});
  rows.push_back({"5  NewtOS, 1 server stack + SYSCALL + TSO     ", "5+",
                  base(StackMode::kSingleServer, 5, true), kWarm, kWin});
  rows.push_back({"6  NewtOS, split stack + SYSCALL + TSO        ", "5+",
                  base(StackMode::kSplitSyscall, 5, true), kWarm, kWin});
  {
    TestbedOptions o = base(StackMode::kIdealMonolithic, 1, true);
    o.gbps = 10.0;
    // A mature monolithic stack spends fewer cycles per segment than our
    // lwIP-style engines (the paper makes the same point about lwIP).
    o.cost_scale = 0.4;
    rows.push_back({"7  Ideal monolithic (Linux ref), 10GbE       ", "8.4",
                    o, kWarm, kWin});
  }

  benchjson::Writer jw("table2");
  std::printf(
      "Table II: peak performance of outgoing TCP in various setups\n");
  std::printf("%-48s %10s %10s\n", "configuration", "paper", "measured");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const RowResult rr = run_row(row.opts, row.warmup, row.window);
    std::printf("%-48s %7s Gbps %7.2f Gbps   (%.2f msg/frame, %.4f "
                "copies/B)\n",
                row.label, row.paper, rr.gbps, rr.msgs_per_frame,
                rr.copies_per_byte);
    std::fflush(stdout);
    std::string label(row.label);
    while (!label.empty() && label.back() == ' ') label.pop_back();
    jw.begin_row();
    jw.field("row", static_cast<std::uint64_t>(i + 1));
    jw.field("label", label);
    jw.field("paper_gbps", std::string(row.paper));
    jw.field("gbps", rr.gbps);
    jw.field("msgs_per_frame", rr.msgs_per_frame);
    jw.field("copies_per_byte", rr.copies_per_byte);
  }

  batching_datapoint(jw);
  zero_copy_datapoint(jw);
  sharding_datapoint(jw);
  rss_datapoint(jw);
  rx_batching_datapoint(jw);
  jw.write("BENCH_table2.json");
  return 0;
}
