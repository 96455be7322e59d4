// End-to-end integration tests: full stack, both directions, every mode.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/apps.h"
#include "src/core/testbed.h"

using namespace newtos;

namespace {

// Bulk transfer from the NewtOS node to the peer for `dur` of virtual time;
// returns goodput in Mb/s measured at the receiver.
double run_bulk(Testbed& tb, sim::Time dur) {
  AppActor* tx_app = tb.newtos().add_app("iperf_tx");
  AppActor* rx_app = tb.peer().add_app("iperf_rx");

  apps::BulkReceiver::Config rc;
  rc.port = 5001;
  rc.record_series = false;
  apps::BulkReceiver receiver(tb.peer(), rx_app, rc);
  receiver.start();

  apps::BulkSender::Config sc;
  sc.dst = tb.newtos().peer_addr(0);
  sc.port = 5001;
  apps::BulkSender sender(tb.newtos(), tx_app, sc);
  sender.start();

  // Warm up (handshake, slow start), then measure.
  const sim::Time warmup = 500 * sim::kMillisecond;
  tb.run_until(warmup);
  const std::uint64_t start_bytes = receiver.bytes();
  tb.run_until(warmup + dur);
  const std::uint64_t bytes = receiver.bytes() - start_bytes;
  return static_cast<double>(bytes) * 8.0 /
         (static_cast<double>(dur) / 1e9) / 1e6;
}

}  // namespace

TEST(EndToEnd, SplitStackBulkTransfer) {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  Testbed tb(opts);
  const double mbps = run_bulk(tb, 1 * sim::kSecond);
  // A single gigabit link: should run near line rate, never above it.
  EXPECT_GT(mbps, 500.0);
  EXPECT_LE(mbps, 1000.0);
}

TEST(EndToEnd, SingleServerBulkTransfer) {
  TestbedOptions opts;
  opts.mode = StackMode::kSingleServer;
  Testbed tb(opts);
  const double mbps = run_bulk(tb, 1 * sim::kSecond);
  EXPECT_GT(mbps, 500.0);
  EXPECT_LE(mbps, 1000.0);
}

TEST(EndToEnd, SplitNoSyscallBulkTransfer) {
  TestbedOptions opts;
  opts.mode = StackMode::kSplit;
  Testbed tb(opts);
  const double mbps = run_bulk(tb, 1 * sim::kSecond);
  EXPECT_GT(mbps, 400.0);
}

TEST(EndToEnd, MinixSyncIsSlow) {
  TestbedOptions opts;
  opts.mode = StackMode::kMinixSync;
  Testbed tb(opts);
  const double mbps = run_bulk(tb, 1 * sim::kSecond);
  EXPECT_GT(mbps, 20.0);
  EXPECT_LT(mbps, 500.0);  // nowhere near line rate (Table II line 1)
}

// The Table II multi-NIC shape (folded in from the old debug_probe4
// scratch): five gigabit links driven concurrently by the single-server
// stack with TSO must aggregate well beyond any single link.
TEST(EndToEnd, MultiNicAggregateThroughput) {
  TestbedOptions opts;
  opts.mode = StackMode::kSingleServer;
  opts.nics = 5;
  opts.tso = true;
  opts.app_write_size = 65536;
  Testbed tb(opts);

  std::vector<std::unique_ptr<apps::BulkReceiver>> rxs;
  std::vector<std::unique_ptr<apps::BulkSender>> txs;
  for (int i = 0; i < opts.nics; ++i) {
    AppActor* rx_app = tb.peer().add_app("rx" + std::to_string(i));
    apps::BulkReceiver::Config rc;
    rc.port = static_cast<std::uint16_t>(5001 + i);
    rc.record_series = false;
    rxs.push_back(std::make_unique<apps::BulkReceiver>(tb.peer(), rx_app, rc));
    rxs.back()->start();
    AppActor* tx_app = tb.newtos().add_app("tx" + std::to_string(i));
    apps::BulkSender::Config sc;
    sc.dst = tb.newtos().peer_addr(i);
    sc.port = rc.port;
    sc.write_size = opts.app_write_size;
    txs.push_back(std::make_unique<apps::BulkSender>(tb.newtos(), tx_app, sc));
    txs.back()->start();
  }

  tb.run_until(400 * sim::kMillisecond);
  std::uint64_t start = 0;
  for (auto& r : rxs) start += r->bytes();
  tb.run_until(1 * sim::kSecond);
  std::uint64_t bytes = 0;
  for (auto& r : rxs) bytes += r->bytes();
  const double gbps = static_cast<double>(bytes - start) * 8.0 / 0.6 / 1e9;
  EXPECT_GT(gbps, 3.0);  // five links, all active
  EXPECT_LE(gbps, 5.0);  // never above the physics
}

TEST(EndToEnd, EchoAndDns) {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  Testbed tb(opts);

  AppActor* srv_app = tb.newtos().add_app("sshd");
  apps::EchoServer echo_srv(tb.newtos(), srv_app, {});
  echo_srv.start();

  AppActor* cli_app = tb.peer().add_app("ssh");
  apps::EchoClient::Config ec;
  ec.dst = tb.peer().peer_addr(0);
  apps::EchoClient echo_cli(tb.peer(), cli_app, ec);
  echo_cli.start();

  AppActor* dns_srv_app = tb.peer().add_app("named");
  apps::DnsServer dns_srv(tb.peer(), dns_srv_app);
  dns_srv.start();

  AppActor* dns_cli_app = tb.newtos().add_app("resolver");
  apps::DnsClient::Config dc;
  dc.dst = tb.newtos().peer_addr(0);
  apps::DnsClient dns_cli(tb.newtos(), dns_cli_app, dc);
  dns_cli.start();

  tb.run_until(5 * sim::kSecond);

  EXPECT_TRUE(echo_cli.connected());
  EXPECT_GT(echo_cli.ok(), 20u);
  EXPECT_EQ(echo_cli.resets(), 0u);
  EXPECT_GT(dns_cli.sent(), 15u);
  // UDP may lose the odd datagram; essentially all queries are answered.
  EXPECT_GE(dns_cli.answered() + 2, dns_cli.sent());
}

// publish_channel_stats() publishes the channel counters and nothing else:
// one "chan.<from>><to>.send_failures" per queue that rejected a send, and
// their total as "chan.send_failures" and as its return value.  A hung TCP
// server under four inbound bulk flows makes IP's queue to it overflow.
TEST(EndToEnd, ChannelStatsCountEveryRejectedSend) {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  Testbed tb(opts);
  std::vector<std::unique_ptr<apps::BulkReceiver>> receivers;
  std::vector<std::unique_ptr<apps::BulkSender>> senders;
  for (std::uint16_t port = 5001; port <= 5004; ++port) {
    const std::string flow = std::to_string(port);
    apps::BulkReceiver::Config rc;
    rc.port = port;
    rc.record_series = false;
    receivers.push_back(std::make_unique<apps::BulkReceiver>(
        tb.newtos(), tb.newtos().add_app("rx" + flow), rc));
    receivers.back()->start();
    apps::BulkSender::Config sc;
    sc.dst = tb.peer().peer_addr(0);
    sc.port = port;
    senders.push_back(std::make_unique<apps::BulkSender>(
        tb.peer(), tb.peer().add_app("tx" + flow), sc));
    senders.back()->start();
  }
  tb.run_until(300 * sim::kMillisecond);
  Node& node = tb.newtos();
  node.server(servers::kTcpName)->hang();
  tb.run_until(400 * sim::kMillisecond);

  std::map<std::string, std::uint64_t> expected;
  std::uint64_t sum = 0;
  for (const auto& [name, queue] : node.queues()) {
    sum += queue->send_failures();
    if (queue->send_failures() > 0)
      expected["chan." + name + ".send_failures"] = queue->send_failures();
  }
  ASSERT_EQ(expected.count("chan.ip>tcp.send_failures"), 1u);
  expected["chan.send_failures"] = sum;

  const std::map<std::string, std::uint64_t> before = node.stats().counters();
  const std::uint64_t total = node.publish_channel_stats();
  EXPECT_EQ(total, sum);
  EXPECT_EQ(node.stats().get("chan.send_failures"), total);
  std::map<std::string, std::uint64_t> published;
  for (const auto& [name, value] : node.stats().counters()) {
    const auto it = before.find(name);
    if (it == before.end() || it->second != value) published[name] = value;
  }
  EXPECT_EQ(published, expected);
}
