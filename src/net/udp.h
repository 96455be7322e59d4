// UDP: sockets, datagram send/receive.
//
// UDP's recoverable state is exactly Table I's description: "small state per
// socket, low frequency of change" — the 4-tuple of every open socket.  The
// snapshot/restore pair below is what the UDP server stores in the storage
// server and reloads after a crash.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chan/pool.h"
#include "src/chan/request_db.h"
#include "src/net/env.h"
#include "src/net/ip.h"
#include "src/net/steering.h"

namespace newtos::net {

using SockId = std::uint32_t;

class UdpEngine {
 public:
  struct Env {
    Clock* clock = nullptr;
    chan::PoolRegistry* pools = nullptr;
    chan::Pool* buf_pool = nullptr;  // UDP-owned: headers + payload staging
    // Hands a datagram to IP; `cookie` comes back through seg_done.  As
    // TcpEngine::Env::output, returns the descriptor to free with it.
    std::function<chan::RichPtr(TxSeg&&, std::uint64_t cookie)> output;
    std::function<void(const chan::RichPtr&)> rx_done;  // to IP
    std::function<void(SockId)> notify_readable;
    // Source-address selection for unbound sockets (host wires to IP config).
    std::function<Ipv4Addr(Ipv4Addr dst)> src_for;

    // Sharded transport plane: replica index/count and the socket-id range
    // this replica allocates from.  UDP socket state is replicated across
    // all shards (a datagram from an arbitrary peer hashes to an arbitrary
    // replica); each shard draws ephemeral ports from a disjoint window so
    // two home sockets can never collide on a port.
    int shard = 0;
    int shard_count = 1;
    SockId sock_base = 0;
    SockId sock_span = 0;  // 0 = unbounded (single-shard arrangements)
  };

  struct Stats {
    std::uint64_t datagrams_out = 0;
    std::uint64_t datagrams_in = 0;
    std::uint64_t dropped_no_socket = 0;
    std::uint64_t dropped_queue_full = 0;
    std::uint64_t dropped_malformed = 0;
  };

  explicit UdpEngine(Env env);
  // Releases queued receive frames and in-flight headers and payloads.  The
  // host's descriptors may still sit in IP's queue, which outlives a
  // crashed host: they leak, bounded per crash.
  ~UdpEngine();

  UdpEngine(const UdpEngine&) = delete;
  UdpEngine& operator=(const UdpEngine&) = delete;

  // --- socket API ---------------------------------------------------------------
  SockId open();
  bool bind(SockId s, Ipv4Addr local, std::uint16_t port);  // port 0: ephemeral
  bool connect(SockId s, Ipv4Addr peer, std::uint16_t port);  // presets dest
  void close(SockId s);

  chan::RichPtr alloc_payload(std::uint32_t len);
  // Sends `payload` (a chunk in buf_pool; ownership passes to the engine) to
  // dst:port, or to the connected peer when dst is zero.
  bool sendto(SockId s, chan::RichPtr payload, Ipv4Addr dst,
              std::uint16_t port);

  struct Datagram {
    std::vector<std::byte> data;
    Ipv4Addr src;
    std::uint16_t sport = 0;
  };
  // Legacy copy path: implemented over recv_zc() plus one memcpy.
  std::optional<Datagram> recv(SockId s);
  bool readable(SockId s) const;

  // --- zero-copy receive (Section V-C) -----------------------------------------
  // A borrowed datagram: `data` is a read-only sub-range rich pointer over
  // the payload inside the live frame chunk; `frame` is the whole chunk.
  // The frame reference transfers to the caller, who must hand it back via
  // release_rx() (or directly to the owning pool) exactly once.
  struct BorrowedRx {
    chan::RichPtr frame;
    chan::RichPtr data;
    Ipv4Addr src;
    std::uint16_t sport = 0;
  };
  std::optional<BorrowedRx> recv_zc(SockId s);
  // Reports a borrowed frame done to its owner (kL4RxDone towards IP).
  void release_rx(const chan::RichPtr& frame) { env_.rx_done(frame); }

  // Teardown/crash support: replaces the rx_done report with a direct
  // release through the pool registry.  A dying or destructed host has no
  // handler context to send kL4RxDone messages from.
  void detach_rx_done() {
    env_.rx_done = [pools = env_.pools](const chan::RichPtr& frame) {
      pools->release(frame);
    };
  }

  // --- from IP -------------------------------------------------------------------
  void input(L4Packet&& pkt);
  void seg_done(std::uint64_t cookie, bool sent);

  // A datagram IP has not completed yet: the engine's header and payload,
  // the host's descriptor and the addresses it was sent with.
  struct InFlight {
    chan::RichPtr header;
    chan::RichPtr payload;
    chan::RichPtr desc;
    Ipv4Addr src;
    Ipv4Addr dst;
  };
  // Visits the datagrams in flight, oldest first: fn(cookie, const
  // InFlight&).  After an IP restart the host resends them (Section V-D
  // "UDP": duplicates are preferred over losses).
  template <typename Fn>
  void for_each_in_flight(Fn&& fn) {
    inflight_.for_each(std::forward<Fn>(fn));
  }

  // --- recovery (Section V-D) ------------------------------------------------------
  struct SockRec {
    SockId id = 0;
    Ipv4Addr local;
    std::uint16_t lport = 0;
    Ipv4Addr peer;
    std::uint16_t pport = 0;
  };
  std::vector<SockRec> snapshot() const;
  void restore(const std::vector<SockRec>& socks);
  // Replica maintenance (sharded plane): creates or updates the socket
  // named by `rec` without touching any queued receive backlog, and the
  // current record of one socket for replication to sibling shards.
  void upsert(const SockRec& rec);
  std::optional<SockRec> record(SockId s) const;
  static std::vector<std::byte> serialize_socks(const std::vector<SockRec>&);
  static std::optional<std::vector<SockRec>> parse_socks(
      std::span<const std::byte>);
  // PF state recovery support: active 4-tuples.
  std::vector<PfStateKey> connection_keys() const;

  const Stats& stats() const { return stats_; }
  std::size_t socket_count() const { return socks_.size(); }

 private:
  struct RxItem {
    chan::RichPtr frame;
    std::uint16_t data_offset = 0;
    std::uint16_t data_len = 0;
    Ipv4Addr src;
    std::uint16_t sport = 0;
  };
  struct Sock {
    SockId id = 0;
    Ipv4Addr local;
    std::uint16_t lport = 0;
    Ipv4Addr peer;
    std::uint16_t pport = 0;
    std::deque<RxItem> rxq;
  };
  Sock* find(SockId s);
  const Sock* find(SockId s) const;
  std::uint16_t ephemeral_port();
  // Unmaps `port` only if `s` owns it (replication collision safety).
  void erase_binding(std::uint16_t port, SockId s);
  // True when `s` lies in this replica's own id range.
  bool own_sock(SockId s) const {
    return env_.sock_span == 0 ||
           (s > env_.sock_base && s - env_.sock_base < env_.sock_span);
  }

  Env env_;
  Stats stats_;
  SockId next_sock_ = 1;
  std::uint16_t next_port_ = 20000;
  std::unordered_map<SockId, Sock> socks_;
  std::unordered_map<std::uint16_t, SockId> bound_;  // lport -> socket
  chan::RequestDb<InFlight> inflight_;

  static constexpr std::size_t kMaxRxQueue = 64;
};

}  // namespace newtos::net
