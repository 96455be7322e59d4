// Node configurations: the rows of Table II as first-class citizens.
#pragma once

#include <cstdint>
#include <string>

#include "src/net/pf.h"
#include "src/net/tcp.h"

namespace newtos {

// How the networking stack is arranged on the node.
enum class StackMode {
  // Table II line 1: the original MINIX 3 — one combined stack server,
  // separate drivers, applications, all timesharing ONE core, every message
  // through synchronous kernel IPC.
  kMinixSync,
  // Line 2: NewtOS split stack (TCP/UDP/IP/PF/driver servers on dedicated
  // cores, channels), but applications trap directly into the transports.
  kSplit,
  // Line 3 (and 6 with TSO): split stack plus the SYSCALL server.
  kSplitSyscall,
  // Line 4 (and 5 with TSO): one combined stack server on a dedicated core,
  // separate driver servers, SYSCALL server.
  kSingleServer,
  // Line 7 reference: in-process stack with inline drivers and no IPC;
  // also used as the remote traffic peer in every experiment.
  kIdealMonolithic,
};

const char* to_string(StackMode m);

// Filler rule k blocks inbound TCP port kPfFillerPortBase + k, so the port
// space bounds how many filler rules a node can have.
inline constexpr int kPfFillerPortBase = 40000;
inline constexpr int kMaxPfFillerRules = 65536 - kPfFillerPortBase;

// Every setting of a node has its home here; TestbedOptions adds only the
// wire.  Node's constructor runs validate() and refuses, with its message,
// any arrangement it cannot build as written.
struct NodeConfig {
  std::string name = "newtos";
  StackMode mode = StackMode::kSplitSyscall;
  // NIC i sits on 10.(1+i).0.0/24, so at most 255 of them.
  int nics = 1;
  bool tso = false;
  bool csum_offload = true;
  bool use_pf = true;
  // Synthetic rule table prepended to the defaults (Figure 5 recovers
  // 1024); needs use_pf and at most kMaxPfFillerRules.
  int pf_filler_rules = 0;
  double cost_scale = 1.0;  // > 0; row 7 models a faster kernel with < 1
  // TCP options of every connection on this node: congestion control
  // (cc_algo "newreno" | "cubic" | "bbr", per-port overrides in
  // cc_by_port), the reassembly budget, initial ssthresh and buffer caps.
  // tcp.tso and tcp.checkpoint are derived from `tso` and `tcp_checkpoint`
  // below; a config that sets them here is rejected.
  net::TcpOptions tcp;
  // The benches' application write size; the node itself never reads it.
  std::uint32_t app_write_size = 8192;
  // Sharded transport plane: N replicated TCP/UDP servers, inbound frames
  // steered by 4-tuple hash.  In [1, net::kMaxTransportShards] on a split
  // stack; a combined stack runs one engine pair, so anything but 1 is
  // rejected there.  The default of 1 keeps every Table II row exactly
  // what it always was.
  int tcp_shards = 1;
  int udp_shards = 1;
  // Receive-side batching, the RX mirror of TSO.  Default off: every
  // Table II row keeps the classic one-interrupt-one-message-per-frame
  // path, byte for byte.  With rx_coalesce_frames > 1 the NICs coalesce RX
  // interrupts into bursts (bounded by the frame count and the usec
  // hold-off) and each burst crosses driver -> IP as one kDrvRxBurst
  // message; with gro additionally set, IP merges in-order same-flow TCP
  // segments of a burst into one kL4RxAgg super-segment for the transport.
  // gro has nothing to merge without bursts or on a combined stack, so it
  // is rejected there.
  int rx_coalesce_frames = 0;
  std::uint32_t rx_coalesce_usecs = 50;
  bool gro = false;
  // Multi-queue NIC RSS.  Default 1: one RX queue per NIC and every
  // Table II row keeps the classic driver -> IP receive path, byte for
  // byte.  With rx_queues > 1 each NIC hashes steerable frames (IPv4
  // TCP/UDP with readable ports) across N RX queues with the same 4-tuple
  // hash the transport plane steers by, the driver polls each queue
  // separately, and a queue's frames whose home shard index equals the
  // queue index are posted straight to that replica (kDrvRxFast) — running
  // the hoisted IP receive work (src/net/ip_fastpath.h) on the shard's own
  // core instead of the central IP core.  Everything else falls back to
  // the classic path.  Bounded like the shard counts: a combined stack has
  // no replicas for the queues to home on, so it takes exactly 1.
  int rx_queues = 1;
  // Transparent TCP recovery.  Default off: the Table I trade-off stands
  // and every Table II row is byte-identical.  With it on, established
  // connections journal per-connection TCB checkpoints (pool-resident
  // pages + a compact storage-server record per connection, refreshed
  // every servers::kCkptWatermark bytes) and survive a TCP server crash
  // with only a throughput dip.  A combined stack dies as one unit and
  // takes its storage context with it, so it rejects this.
  bool tcp_checkpoint = false;
  // Self-healing supervision plane (the escalation ladder of DESIGN.md):
  // work probes to all five component classes (so a silently wedged server,
  // the one fault class heartbeats cannot see, is restarted automatically),
  // an EWMA-based probe-RTT SLO (slowdown detection), a driver-side NIC
  // wedge watchdog, and restart budgets with exponential backoff.  Default
  // off: every Table II/III/IV baseline is byte-identical; the paper's
  // manual-restart behaviour stands.  Valid on a combined stack too: the
  // restart budgets, backoff and NIC watchdog run there, and only the probe
  // ladder, which needs split servers to probe, is left out.
  bool supervision = false;
  // Addressing: this host takes .1 on each subnet when `left`, .2
  // otherwise.
  bool left = true;

  // Empty if a node can be built as configured; otherwise the first rule
  // the configuration breaks, naming the field.
  std::string validate() const;

  bool split_stack() const {
    return mode == StackMode::kSplit || mode == StackMode::kSplitSyscall;
  }
  bool has_syscall_server() const {
    return mode == StackMode::kSplitSyscall ||
           mode == StackMode::kSingleServer;
  }
  bool combined_stack() const {
    return mode == StackMode::kMinixSync ||
           mode == StackMode::kSingleServer ||
           mode == StackMode::kIdealMonolithic;
  }
};

}  // namespace newtos
