// Node: one simulated machine — cores, kernel, pools, registry, NICs and the
// networking stack arranged per NodeConfig (Figure 1 / Figure 2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/chan/pool.h"
#include "src/chan/registry.h"
#include "src/core/config.h"
#include "src/core/socket.h"
#include "src/core/stats.h"
#include "src/drv/nic.h"
#include "src/drv/wire.h"
#include "src/kipc/kipc.h"
#include "src/servers/ip_server.h"
#include "src/servers/pf_server.h"
#include "src/servers/reincarnation.h"
#include "src/servers/stack_server.h"
#include "src/servers/storage.h"
#include "src/servers/syscall_server.h"
#include "src/servers/tcp_server.h"
#include "src/servers/udp_server.h"
#include "src/sim/sim.h"

namespace newtos {

class Node {
 public:
  // Throws std::invalid_argument, with cfg.validate()'s message, for a
  // configuration the node cannot build as written.
  Node(sim::Simulator& sim, NodeConfig cfg);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Attach NIC `i` to a wire endpoint before (or after) boot.
  void attach_wire(int nic_index, drv::Wire* wire, int end);
  // Boots every server (reincarnation and storage first).
  void boot();

  // --- topology accessors ---------------------------------------------------------
  drv::SimNic* nic(int i) { return nics_.at(i).get(); }
  int nic_count() const { return static_cast<int>(nics_.size()); }
  net::Ipv4Addr addr(int nic_index) const;
  net::Ipv4Addr peer_addr(int nic_index) const;  // the other host's address

  // --- applications ------------------------------------------------------------------
  // Creates an application actor, attaches its submission/completion ring
  // (see src/core/socket_ring.h) and boots it.
  AppActor* add_app(const std::string& name);

  // Publishes a "chan.<from>><to>.send_failures" counter for each queue
  // that rejected a send, plus the "chan.send_failures" total, into stats()
  // and returns that total: the Section IV-A drop/defer policy made visible
  // instead of silent.  Only the channel counters live here.  Every other
  // count is read from the object that keeps it: DriverServer (rx_dropped,
  // rx_fast_frames, wedge_resets), SimNic::queue_stats, IpFastPath::stats,
  // TcpServer (ckpt_puts, ckpt_bytes, ckpt_overflows),
  // ReincarnationServer (child_stats, backoff_ms_total), TcpEngine::stats
  // and drv::Wire.
  std::uint64_t publish_channel_stats();
  // The node's channel queues by name ("<from>><to>").
  const std::map<std::string, std::unique_ptr<chan::Queue>>& queues() const {
    return queues_;
  }
  // Messages successfully sent over this node's channels so far — the
  // numerator of the benches' msgs-per-frame datapoints.
  std::uint64_t total_channel_messages() const;

  // --- servers -------------------------------------------------------------------------
  servers::Server* server(const std::string& name);
  servers::ReincarnationServer* reincarnation() { return rs_; }
  servers::SyscallServer* syscall() { return syscall_; }
  servers::StorageServer* storage() { return store_; }
  // Shard 0's engines (the only ones in every single-shard arrangement).
  net::TcpEngine* tcp_engine() const { return tcp_engine(0); }
  net::UdpEngine* udp_engine() const { return udp_engine(0); }
  // Sharded transport plane: per-replica engines and counts.  Connections
  // live on the replica their socket id encodes (net::sock_shard).
  net::TcpEngine* tcp_engine(int shard) const;
  net::UdpEngine* udp_engine(int shard) const;
  int tcp_shard_count() const;
  int udp_shard_count() const;
  // The server hosting the given transport replica (for fast-path context
  // borrowing).
  servers::Server* transport_server(char proto, int shard = 0) const;
  net::IpEngine* ip_engine() const;
  servers::StackServer* stack_server() { return stack_; }
  // Round-robin shard assignment for new sockets on the direct (no-SYSCALL)
  // control path; the SYSCALL server keeps its own cursors.
  servers::ShardCursors& direct_open_cursors() { return direct_open_rr_; }

  // Components eligible for fault injection (Table III).
  std::vector<std::string> injectable() const;
  // Operator-driven restart (the paper's "manually restarting ... solved the
  // problem" cases).
  void manual_restart(const std::string& name);

  // The unconverted synchronous part of the system (select/VFS merge) hung:
  // only a reboot helps (3 cases in Table IV).  Modelled as a flag set by
  // the fault injector; see DESIGN.md.
  void set_requires_reboot() { requires_reboot_ = true; }
  bool requires_reboot() const { return requires_reboot_; }

  const NodeConfig& config() const { return cfg_; }
  sim::Simulator& sim() { return sim_; }
  servers::NodeEnv& node_env() { return env_; }
  chan::PoolRegistry& pools() { return pools_; }
  StatsHub& stats() { return stats_; }

 private:
  // Sockets register their readiness-event handlers here.
  friend class Socket;

  void build();
  // The servers that make up the stack, the storage server's clients: the
  // combined stack, or the transport replicas, IP and PF.
  std::vector<std::string> stack_servers() const;
  net::IpConfig make_ip_config() const;
  std::vector<net::PfRule> make_rules() const;
  sim::SimCore* fresh_core(const std::string& name);

  sim::Simulator& sim_;
  NodeConfig cfg_;

  chan::PoolRegistry pools_;
  chan::Registry registry_;
  chan::ChannelManager chmgr_;
  kipc::KernelIpc kernel_;
  servers::NodeEnv env_;
  StatsHub stats_;

  std::map<std::string, std::unique_ptr<chan::Queue>> queues_;
  std::map<std::string, chan::Pool*> named_pools_;
  std::vector<std::unique_ptr<drv::SimNic>> nics_;

  std::map<std::string, std::unique_ptr<servers::Server>> servers_;
  std::vector<std::string> boot_order_;
  std::vector<std::unique_ptr<AppActor>> apps_;

  servers::ReincarnationServer* rs_ = nullptr;
  servers::StorageServer* store_ = nullptr;
  servers::SyscallServer* syscall_ = nullptr;
  std::vector<servers::TcpServer*> tcp_shards_;  // one replica per shard
  std::vector<servers::UdpServer*> udp_shards_;
  // The split stack's transport replica names, TCP shards first: every
  // per-replica list (storage clients, PF, SYSCALL, probes, faults) keeps
  // this order.  Empty for a combined stack.
  std::vector<std::string> transports_;
  servers::IpServer* ip_ = nullptr;
  servers::PfServer* pf_ = nullptr;
  servers::StackServer* stack_ = nullptr;
  servers::ShardCursors direct_open_rr_;

  // Readiness-event handlers by (proto, socket id), dispatched through
  // NodeEnv::sock_event.  The key is the socket alone: replicas share the
  // id, so an event raised by any shard reaches the same handler.
  std::map<std::pair<char, std::uint32_t>, std::pair<AppActor*, SockEventFn>>
      sock_handlers_;
  sim::SimCore* shared_core_ = nullptr;  // MINIX mode: one core for all
  std::uint32_t next_borrower_ = 1;      // pool loan-ledger ids for apps
  bool requires_reboot_ = false;
};

}  // namespace newtos
