// The shell every transport replica shares.  TcpServer and UdpServer differ
// only in their engine, the sinks received packets are delivered into and a
// handful of protocol messages; everything else lives here once: the
// replica's place in the sharded transport plane, the kL4Rx and kIpTx legs
// to IP, the RSS fast path (the drivers post a queue's frames straight to
// its home replica as kDrvRxFast, which runs the hoisted IP receive work of
// src/net/ip_fastpath.h on its own core), the supervision probe echo, PF's
// connection-list rebuild and the one way socket control comes in: a span
// of WireSockOp records, from a kSockBatch or from a direct trap, which
// each protocol applies through its executor (src/servers/sock_exec.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/net/ip.h"
#include "src/net/ip_fastpath.h"
#include "src/net/pbuf.h"
#include "src/net/pf.h"
#include "src/servers/proto.h"
#include "src/servers/server.h"

namespace newtos::servers {

class TransportServer : public Server {
 public:
  // Multi-queue RSS: this replica owns one NIC RX queue per driver and runs
  // the hoisted IP receive work on frames the drivers post directly
  // (kDrvRxFast).  Must be called before boot.
  void enable_rx_fastpath(net::IpFastPath::Config cfg,
                          std::vector<std::string> driver_names);
  // Fast-path statistics (null when the fast path is off), published as
  // per-shard node stats and the bench's per-shard inbound frame count.
  const net::IpFastPath* fastpath() const { return fastpath_.get(); }

  // Socket control entry point shared by the channel path (a kSockBatch in
  // on_message) and the direct kernel-IPC path (Table II line 2): runs
  // `ops` in array order and delivers each kSockReply to the requester
  // through `reply`.
  virtual void sock_batch(std::span<const WireSockOp> ops, sim::Context& ctx,
                          const SockReplyFn& reply) = 0;

 protected:
  // `proto` is 'T' or 'U'; `src_for` selects a source address for unbound
  // sockets (static routing knowledge baked in at build time).
  TransportServer(NodeEnv* env, sim::SimCore* core, char proto,
                  std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for,
                  int shard, int shard_count);

  // Exposes and connects the replica's channels.  Server::pump serves
  // in-queues in exposure order, so the order is fixed: the stack peers
  // (in-queue capacity `peer_queue_cap`), the sibling replicas, the
  // reincarnation server (supervision only), then the fast-path drivers.
  void open_channels(std::size_t peer_queue_cap);
  // Fills the engine Env fields every transport engine shares: the clock,
  // the pools, source selection, the replica's socket-id range and the
  // kL4RxDone report of consumed receive frames.
  template <typename EngineEnv>
  void fill_engine_env(EngineEnv& e) {
    e.clock = clock();
    e.pools = env().pools;
    e.buf_pool = pool_;
    e.src_for = src_for_;
    e.shard = shard_;
    e.shard_count = shard_count_;
    if (shard_count_ > 1) {
      e.sock_base = net::sock_shard_base(shard_);
      e.sock_span = net::kSockShardSpan;
    }
    e.rx_done = [this](const chan::RichPtr& frame) {
      chan::Message m;
      m.opcode = kL4RxDone;
      m.ptr = frame;
      send_to(kIpName, m, cur());
    };
  }
  // Packs `seg` and sends it to IP as kIpTx.  Returns the descriptor, which
  // the engine keeps with the segment until kIpTxDone; invalid when the
  // staging pool is exhausted or IP is down (nothing stays allocated then).
  chan::RichPtr send_ip_tx(const net::TxSeg& seg, std::uint64_t cookie,
                           sim::Context& ctx);
  // Builds the RSS fast path; a no-op unless enable_rx_fastpath was called.
  // The engine must exist.  `deliver_agg` takes GRO aggregates (TCP only).
  void build_fastpath(
      std::function<void(net::L4AggPacket&&)> deliver_agg = {});

  // Delivers one received packet into the engine, charged as the protocol's
  // per-packet work: the sink of the kL4Rx leg and of the fast path.
  virtual void deliver(net::L4Packet&& pkt) = 0;
  // The replica's connections, for PF's state-table rebuild (kConnList).
  virtual std::vector<net::PfStateKey> connection_keys() const = 0;

  bool is_sibling(const std::string& peer) const;
  // Tells every sibling replica that the replicated socket `s` is gone.
  void replicate_close(std::uint32_t s, sim::Context& ctx);

  // The messages both protocols handle alike.  A subclass handles its own
  // opcodes and passes every other one here.
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  // PF (re)announced: send the unanswered fast-path queries, oldest first
  // (after a restart they died with the old incarnation), so the held
  // frames drain.
  void on_peer_up(const std::string& peer, bool restarted,
                  sim::Context& ctx) override;

  const char proto_;
  const std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for_;
  const int shard_;
  const int shard_count_;
  const std::vector<std::string> siblings_;
  chan::Pool* pool_ = nullptr;  // staging pool: TX descriptors, store puts
  std::unique_ptr<net::IpFastPath> fastpath_;  // null unless enabled

 private:
  bool rx_fastpath_ = false;
  net::IpFastPath::Config fastpath_cfg_;
  std::vector<std::string> fastpath_drivers_;
};

}  // namespace newtos::servers
