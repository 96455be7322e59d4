// The IP server: hosts the IP/ICMP/ARP engine, owns the header and receive
// pools, talks to every driver, consults the packet filter for each packet
// and completes transport TX requests (Figure 3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/ip.h"
#include "src/servers/proto.h"
#include "src/servers/server.h"

namespace newtos::servers {

class IpServer : public Server {
 public:
  struct Config {
    net::IpConfig ip;  // one driver per interface, named by its index
    bool use_pf = true;
    // Sharded transport plane: how many TCP/UDP replicas inbound frames
    // are steered across (by 4-tuple hash).  1 = the classic single pair.
    int tcp_shards = 1;
    int udp_shards = 1;
    // Receive-side aggregation at the IP -> TCP boundary: merge in-order
    // same-flow TCP segments of a coalesced RX burst into one kL4RxAgg
    // super-segment.  Off by default; meaningful only when the NIC
    // coalesces (kDrvRxBurst is the only producer of bursts).
    bool gro = false;
    // RSS queue pairs per NIC.  IP posts kRxBuffersPerQueue buffers per
    // queue so every ring stays fed, and fast-path frames consumed by the
    // transports come back as kDrvRxCredit instead of kDrvRx.
    int rx_queues = 1;
  };

  IpServer(NodeEnv* env, sim::SimCore* core, Config cfg);

  net::IpEngine* engine() { return engine_.get(); }

  // Receive-path accounting for the bench's msgs-per-frame datapoint:
  // channel messages sent up to the transports vs frames they carried.
  std::uint64_t l4_msgs() const { return l4_msgs_; }
  std::uint64_t l4_frames() const { return l4_frames_; }

 protected:
  void start(bool restart) override;
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  void on_peer_up(const std::string& peer, bool restarted,
                  sim::Context& ctx) override;
  void on_peer_down(const std::string& peer, sim::Context& ctx) override;
  void on_killed() override;
  // The routing/interface configuration (Table I: small static state).
  void store_state(sim::Context& ctx) override;
  void on_stored(std::uint32_t key, std::span<const std::byte> value,
                 sim::Context& ctx) override;

 private:
  void build_engine();
  void post_rx_buffers(int ifindex, sim::Context& ctx);
  static int ifindex_of(const std::string& driver);
  // The transport replica an inbound packet is steered to: a 4-tuple hash
  // over (src, dst) and the transport ports read out of the frame.
  int steer(const net::L4Packet& pkt, int shards);
  // Sends one frame up to its transport replica (the kL4Rx leg).
  void deliver_l4(char proto, net::L4Packet&& pkt);

  Config cfg_;
  // The transport replicas (TCP shards, then UDP shards): a segment's
  // net::L4Req::peer indexes this list.
  std::vector<std::string> l4_peers_;
  std::unique_ptr<net::IpEngine> engine_;
  chan::Pool* hdr_pool_ = nullptr;
  chan::Pool* rx_pool_ = nullptr;

  std::map<int, int> posted_;  // rx buffers outstanding per ifindex
  // In-flight work probes (cookie -> the transport replica to ack).
  std::map<std::uint64_t, std::string> probe_from_;
  std::uint64_t l4_msgs_ = 0;
  std::uint64_t l4_frames_ = 0;
};

}  // namespace newtos::servers
