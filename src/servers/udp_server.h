// The UDP server: hosts the UDP engine.  Recoverable state (Table I): the
// socket 4-tuples, stored on every change (they change rarely) and reloaded
// on restart, so a crash is transparent to applications — at worst a
// datagram is duplicated or lost, which UDP callers tolerate by contract.
//
// Sharded transport plane: the node may run N replicas (udp, udp1, ...),
// each on its own core.  A datagram from an arbitrary peer hashes to an
// arbitrary replica, so the whole (small) socket table is replicated to
// every shard on each change; the receive queues stay per replica and the
// socket layer drains them all.
//
// What every transport replica shares (the RSS fast path, the probe echo,
// socket control, replica bookkeeping) lives in TransportServer; this class
// adds the UDP engine, its receive sink and socket-record replication.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/udp.h"
#include "src/servers/transport_server.h"

namespace newtos::servers {

class UdpServer : public TransportServer {
 public:
  UdpServer(NodeEnv* env, sim::SimCore* core,
            std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for,
            int shard = 0, int shard_count = 1);
  // Teardown: releases the engine's queues and in-flight datagrams straight
  // into the pools (no handler context for done-reports).
  ~UdpServer() override;

  net::UdpEngine* engine() { return engine_.get(); }

  // Replies first, then replicates each change of the socket table to the
  // sibling replicas and stores the table.
  void sock_batch(std::span<const WireSockOp> ops, sim::Context& ctx,
                  const SockReplyFn& reply) override;

 protected:
  void start(bool restart) override;
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  void on_peer_up(const std::string& peer, bool restarted,
                  sim::Context& ctx) override;
  void on_killed() override;
  void deliver(net::L4Packet&& pkt) override;
  std::vector<net::PfStateKey> connection_keys() const override {
    return engine_->connection_keys();
  }
  // The socket 4-tuples, stored on every change.
  void store_state(sim::Context& ctx) override;
  void on_stored(std::uint32_t key, std::span<const std::byte> value,
                 sim::Context& ctx) override;

 private:
  void build_engine();
  // Pushes one socket record to every sibling replica / to one named
  // sibling.
  void replicate_sock(net::SockId s, sim::Context& ctx,
                      const std::string* only = nullptr);

  std::unique_ptr<net::UdpEngine> engine_;
};

}  // namespace newtos::servers
