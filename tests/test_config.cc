// The config plane: NodeConfig::validate() names the first rule a
// configuration breaks, and a Testbed refuses to build it.  Each rejected
// case is the smallest change to the default configuration that breaks one
// rule; every arrangement the benches build passes.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/testbed.h"
#include "tests/resident_memory.h"

namespace newtos {
namespace {

// validate() names `field` first, and Testbed throws that same message.
void expect_rejected(const TestbedOptions& opts, const std::string& field) {
  const std::string error = opts.validate();
  EXPECT_TRUE(error.starts_with(field)) << "validate(): \"" << error << "\"";
  try {
    Testbed tb(opts);
    ADD_FAILURE() << "Testbed built a config that breaks the " << field
                  << " rule";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), error);
  }
}

TestbedOptions with_mode(StackMode mode) {
  TestbedOptions o;
  o.mode = mode;
  return o;
}

const StackMode kCombined[] = {StackMode::kMinixSync,
                               StackMode::kSingleServer,
                               StackMode::kIdealMonolithic};

TEST(Config, NicsWithinSubnetOctet) {
  for (int nics : {0, 256}) {
    TestbedOptions o;
    o.nics = nics;
    expect_rejected(o, "nics");
  }
}

TEST(Config, ReplicaCountsWithinIdEncoding) {
  for (int bad : {0, net::kMaxTransportShards + 1}) {
    TestbedOptions tcp, udp, queues;
    tcp.tcp_shards = bad;
    udp.udp_shards = bad;
    queues.rx_queues = bad;
    expect_rejected(tcp, "tcp_shards");
    expect_rejected(udp, "udp_shards");
    expect_rejected(queues, "rx_queues");
  }
}

TEST(Config, CombinedStackRunsOneReplica) {
  for (StackMode mode : kCombined) {
    TestbedOptions tcp = with_mode(mode), udp = with_mode(mode),
                   queues = with_mode(mode);
    tcp.tcp_shards = 2;
    udp.udp_shards = 2;
    queues.rx_queues = 2;
    expect_rejected(tcp, "tcp_shards");
    expect_rejected(udp, "udp_shards");
    expect_rejected(queues, "rx_queues");
  }
}

TEST(Config, CheckpointNeedsSplitStack) {
  for (StackMode mode : kCombined) {
    TestbedOptions o = with_mode(mode);
    o.tcp_checkpoint = true;
    expect_rejected(o, "tcp_checkpoint");
  }
}

TEST(Config, GroNeedsBurstsOnSplitStack) {
  for (int frames : {0, 1}) {
    TestbedOptions o;
    o.gro = true;
    o.rx_coalesce_frames = frames;
    expect_rejected(o, "gro");
  }
  TestbedOptions combined = with_mode(StackMode::kSingleServer);
  combined.gro = true;
  combined.rx_coalesce_frames = 8;
  expect_rejected(combined, "gro");
}

TEST(Config, CoalesceFramesNotNegative) {
  TestbedOptions o;
  o.rx_coalesce_frames = -1;
  expect_rejected(o, "rx_coalesce_frames");
}

TEST(Config, FillerRulesWithinPortRange) {
  for (int rules : {-1, kMaxPfFillerRules + 1}) {
    TestbedOptions o;
    o.pf_filler_rules = rules;
    expect_rejected(o, "pf_filler_rules");
  }
  // The largest table still blocks only ports above the workloads'.
  TestbedOptions max;
  max.pf_filler_rules = kMaxPfFillerRules;
  EXPECT_EQ(max.validate(), "");
}

TEST(Config, FillerRulesNeedPf) {
  TestbedOptions o;
  o.use_pf = false;
  o.pf_filler_rules = 1;
  expect_rejected(o, "pf_filler_rules");
}

TEST(Config, CongestionControlNamesKnown) {
  TestbedOptions node_wide;
  node_wide.tcp.cc_algo = "cubci";
  expect_rejected(node_wide, "tcp.cc_algo");
  TestbedOptions per_port;
  per_port.tcp.cc_by_port = {{5001, "cubic"}, {5002, "bbrr"}};
  expect_rejected(per_port, "tcp.cc_by_port");
}

TEST(Config, CostScalePositive) {
  for (double scale : {0.0, -1.0, std::nan("")}) {
    TestbedOptions o;
    o.cost_scale = scale;
    expect_rejected(o, "cost_scale");
  }
}

TEST(Config, DerivedTcpOptionsNotSetDirectly) {
  TestbedOptions tso;
  tso.tcp.tso = true;
  expect_rejected(tso, "tcp.tso");
  TestbedOptions checkpoint;
  checkpoint.tcp.checkpoint = true;
  expect_rejected(checkpoint, "tcp.checkpoint");
}

// Restart budgets, backoff and the NIC watchdog run on a combined stack
// too; only the probe ladder needs split servers.
TEST(Config, SupervisionValidOnCombinedStack) {
  for (StackMode mode : kCombined) {
    TestbedOptions o = with_mode(mode);
    o.supervision = true;
    EXPECT_EQ(o.validate(), "");
    Testbed tb(o);
    EXPECT_TRUE(tb.newtos().config().supervision);
  }
}

// The seven Table II rows as bench_table2 builds them, and the peer every
// testbed builds.
TEST(Config, TableTwoRowsAndPeerValidate) {
  auto row = [](StackMode mode, int nics, bool tso) {
    TestbedOptions o = with_mode(mode);
    o.nics = nics;
    o.tso = tso;
    o.app_write_size = 65536;
    return o;
  };
  std::vector<TestbedOptions> rows = {
      row(StackMode::kMinixSync, 1, false),
      row(StackMode::kSplit, 5, false),
      row(StackMode::kSplitSyscall, 5, false),
      row(StackMode::kSingleServer, 5, false),
      row(StackMode::kSingleServer, 5, true),
      row(StackMode::kSplitSyscall, 5, true),
      row(StackMode::kIdealMonolithic, 1, true)};
  rows[0].csum_offload = false;
  rows[6].gbps = 10.0;
  rows[6].cost_scale = 0.4;
  for (const TestbedOptions& o : rows) {
    EXPECT_EQ(o.validate(), "") << to_string(o.mode);
    Testbed tb(o);
    EXPECT_EQ(tb.peer().config().validate(), "");
  }
}

// The peer is usually the data receiver, so it takes the system under
// test's reassembly budget, initial ssthresh and buffer caps; its
// congestion control stays the default.
TEST(Config, PeerMirrorsReceiveSettings) {
  TestbedOptions o;
  o.tcp.ooo_queue_segs = 64;
  o.tcp.ssthresh_init = 200 * 1024;
  o.tcp.sndbuf_max = 1400 * 1024;
  o.tcp.rcvbuf_max = 700 * 1024;
  o.tcp.cc_algo = "cubic";
  Testbed tb(o);
  const net::TcpOptions& peer = tb.peer().config().tcp;
  EXPECT_EQ(peer.ooo_queue_segs, 64u);
  EXPECT_EQ(peer.ssthresh_init, 200u * 1024);
  EXPECT_EQ(peer.sndbuf_max, 1400u * 1024);
  EXPECT_EQ(peer.rcvbuf_max, 700u * 1024);
  EXPECT_EQ(peer.cc_algo, "newreno");
  EXPECT_EQ(tb.newtos().config().tcp.cc_algo, "cubic");
}

// A testbed costs what it touches, not what its pools reserve.  The
// bench/e2e faults arrangement (every plane on) reserves 480 MiB of pools
// across its two nodes, 160 MiB of it for each checkpointing TCP replica.
TEST(Config, TestbedCommitsOnlyWhatItTouches) {
  TestbedOptions o;
  o.mode = StackMode::kSplitSyscall;
  o.nics = 2;
  o.tso = false;
  o.use_pf = true;
  o.pf_filler_rules = 128;
  o.tcp_shards = 2;
  o.rx_queues = 2;
  o.rx_coalesce_frames = 8;
  o.rx_coalesce_usecs = 50;
  o.gro = true;
  o.tcp_checkpoint = true;
  o.supervision = true;
  const std::size_t before = resident_bytes();
  Testbed tb(o);
  EXPECT_LT(resident_bytes(), before + (std::size_t{64} << 20));
}

}  // namespace
}  // namespace newtos
