// The TCP server: hosts the TCP engine — the component with "large,
// frequently changing state for each connection, difficult to recover"
// (Table I).  By default only listening sockets are stored and restored;
// established connections die with the server, which is the paper's
// deliberate trade-off: isolating the unrecoverable part keeps everything
// else restartable.
//
// With `TcpOptions::checkpoint` on, that trade-off is removed: established
// connections journal per-connection TCB checkpoints (pool-resident pages
// + compact storage-server records — src/servers/checkpoint.h) and survive
// a crash of this server with only a throughput dip.  The restart sequence
// fetches the listener set, the checkpoint directory and each record from
// the storage server, rebuilds the TCBs around the parked queue chunks,
// and resynchronizes with the peers by retransmission from the last acked
// watermark.
//
// Sharded transport plane: the node may run N replicas of this server
// (tcp, tcp1, ..., tcpN-1), each on its own core with its own engine,
// channels and staging pool.  The IP server steers inbound frames to a
// replica by 4-tuple hash; listener sockets are replicated to every shard
// SO_REUSEPORT-style (each replica owns an accept queue for the port), so
// any replica can accept the connections steered to it.  Replicas restart
// individually: flows on sibling shards keep running while one recovers —
// and with checkpointing on, even the crashed replica's own flows do.
//
// What every transport replica shares (the RSS fast path, the probe echo,
// socket control, replica bookkeeping) lives in TransportServer; this class
// adds the TCP engine, its receive sinks, listener replication and the
// checkpoint journal.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/net/tcp.h"
#include "src/servers/checkpoint.h"
#include "src/servers/transport_server.h"

namespace newtos::servers {

class TcpServer : public TransportServer {
 public:
  TcpServer(NodeEnv* env, sim::SimCore* core, net::TcpOptions opts,
            std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for,
            int shard = 0, int shard_count = 1);
  // Releases the engine's queues and in-flight headers straight into the
  // pools: at teardown there is no handler context to send done-reports
  // from.
  ~TcpServer() override;

  net::TcpEngine* engine() { return engine_.get(); }

  // Checkpoint overhead counters (0 with checkpointing off): journal puts
  // to the storage server and the bytes they carried.
  std::uint64_t ckpt_puts() const { return writer_ ? writer_->puts() : 0; }
  std::uint64_t ckpt_bytes() const {
    return writer_ ? writer_->put_bytes() : 0;
  }
  // Overflow events: per-connection ring overflows (connection reverts to
  // classic non-recoverable) plus directory continuation-page spills (now
  // handled by chained paging, but still surfaced for observability).
  std::uint64_t ckpt_overflows() const {
    return writer_ ? writer_->overflows() + writer_->dir_overflows() : 0;
  }

  // Replicates each listen or listener's close to the sibling replicas and
  // stores the listener set, then replies.
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
  // The listener set and the checkpoint journal.
  void store_state(sim::Context& ctx) override;
  // One step of the restart sequence: the listener set, then (checkpointing
  // on) each directory page and each connection record.
  void on_stored(std::uint32_t key, std::span<const std::byte> value,
                 sim::Context& ctx) override;

 private:
  void build_writer();
  void build_engine();
  // The GRO sink (kL4RxAgg and the fast path's aggregates).
  void deliver_agg(std::vector<net::L4Packet>&& segs);
  void save_listeners(sim::Context& ctx);
  // SO_REUSEPORT-style replication: pushes one listener record to every
  // sibling replica / to one named sibling.
  void replicate_listener(const net::TcpEngine::ListenRec& rec,
                          sim::Context& ctx, const std::string* only = nullptr);

  // --- checkpoint restore (restart with TcpOptions::checkpoint on) ----------------
  // All records fetched (or none existed): resync the restored connections
  // and open for business.
  void finish_restore();

  net::TcpOptions opts_;
  std::unique_ptr<CheckpointWriter> writer_;  // before engine_: outlives it
  std::unique_ptr<net::TcpEngine> engine_;
  int ckpt_pending_ = 0;  // record/dir-page fetches still outstanding
  // Socks whose records were already requested during this restore: a
  // partially-flushed directory chain may list one on two pages.
  std::set<std::uint32_t> ckpt_socks_seen_;
  // Record keys waiting to be fetched, issued at most kCkptFetchWindow at a
  // time: a full directory page lists 1024 socks but the storage server's
  // in-queue holds 256 — an unwindowed burst silently drops the tail and
  // those connections would never restore.
  static constexpr int kCkptFetchWindow = 128;
  std::deque<std::uint32_t> ckpt_fetch_queue_;
  int ckpt_inflight_ = 0;
  void pump_ckpt_fetches(sim::Context& ctx);
};

}  // namespace newtos::servers
