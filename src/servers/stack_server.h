// The combined stack server: TCP, UDP, IP/ICMP/ARP and PF in one process.
//
// Three roles, all from Table II:
//  - "1 server stack" (lines 4/5): one dedicated core, engines glued by
//    function calls, drivers still separate servers reached over channels.
//  - The MINIX 3 baseline (line 1): the same combined stack, but the node
//    runs every component (and the application) on ONE timeshared core with
//    synchronous kernel IPC and a legacy per-packet path-length penalty.
//  - The "ideal monolithic" comparator (line 7): inline drivers (NICs driven
//    in-process), used for the Linux 10GbE reference point and as the
//    traffic peer in all experiments.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/drv/nic.h"
#include "src/net/ip.h"
#include "src/net/pf.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/servers/proto.h"
#include "src/servers/server.h"

namespace newtos::servers {

class StackServer : public Server {
 public:
  struct Config {
    net::IpConfig ip;  // one driver (or inline NIC) per interface
    std::vector<net::PfRule> rules;
    net::TcpOptions tcp;
    bool use_pf = true;
    bool inline_drivers = false;
  };

  // `nics` is indexed by interface index; only used when inline_drivers is
  // set.
  StackServer(NodeEnv* env, sim::SimCore* core, Config cfg,
              std::vector<drv::SimNic*> nics);
  // Teardown: releases the transport engines' queues and in-flight chunks
  // straight into the pools (no handler context for done-reports).
  ~StackServer() override;

  net::TcpEngine* tcp_engine() { return tcp_.get(); }
  net::UdpEngine* udp_engine() { return udp_.get(); }
  net::IpEngine* ip_engine() { return ip_.get(); }
  net::PfEngine* pf_engine() { return pf_.get(); }

  // Socket control, from a kSockBatch or a direct trap (synchronous kernel
  // IPC, or inline): runs `ops` of both protocols in array order, replying
  // to each before it stores what the op changed.
  void sock_batch(std::span<const WireSockOp> ops, sim::Context& ctx,
                  const SockReplyFn& reply);

 protected:
  void start(bool restart) override;
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  void on_peer_up(const std::string& peer, bool restarted,
                  sim::Context& ctx) override;
  void on_killed() override;
  // The IP configuration, the UDP socket table, the TCP listener set and
  // the PF rules; established TCP connections are not recoverable.
  void store_state(sim::Context& ctx) override;
  void on_stored(std::uint32_t key, std::span<const std::byte> value,
                 sim::Context& ctx) override;

 private:
  void build_engines();
  void install_inline_nic_handlers();
  void post_rx_buffers(int ifindex, sim::Context& ctx);
  void store_tcp_listeners(sim::Context& ctx);
  void store_udp_sockets(sim::Context& ctx);
  static int ifindex_of(const std::string& driver);
  drv::SimNic* nic_of(int ifindex);

  Config cfg_;
  std::vector<drv::SimNic*> nics_;
  chan::Pool* pool_ = nullptr;     // headers + socket buffers
  chan::Pool* rx_pool_ = nullptr;  // device receive buffers

  std::unique_ptr<net::PfEngine> pf_;
  std::unique_ptr<net::IpEngine> ip_;
  std::unique_ptr<net::TcpEngine> tcp_;
  std::unique_ptr<net::UdpEngine> udp_;

  std::map<int, int> posted_;
  // Inline-driver mode: frames waiting for TX ring slots, per ifindex.
  std::map<int, std::deque<std::pair<net::TxFrame, std::uint64_t>>>
      tx_backlog_;
  int restore_replies_expected_ = 0;
};

}  // namespace newtos::servers
