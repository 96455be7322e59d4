// Channel protocol spoken between the stack's servers.
//
// Every message is one 64-byte slot (src/chan/message.h); bulk data is
// referenced through rich pointers into shared pools.  The flows mirror
// Figure 3 of the paper:
//
//   app/SYSCALL -> TCP/UDP : socket control: kSockBatch (packed WireSockOp
//                            records) / one kSockReply per op back
//   TCP/UDP -> IP          : kIpTx (packed chain) / kIpTxDone back
//   IP <-> PF              : kPfCheck / kPfVerdict
//   IP <-> DRV             : kDrvTx(+Done), kDrvRx, kDrvRxBuf, kDrvLink
//   IP -> TCP/UDP          : kL4Rx / kL4RxDone back (receive-pool frees)
//   * <-> STORE            : kStorePut/Ack/Get/Reply/Release (state recovery)
//   PF -> TCP/UDP          : kConnList / kConnListReply (state rebuild)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "src/chan/message.h"
#include "src/chan/pool.h"
#include "src/net/addr.h"
#include "src/net/pf.h"
#include "src/net/steering.h"

namespace newtos::servers {

enum Opcode : std::uint16_t {
  kNop = 0,

  // --- transport -> IP ---------------------------------------------------------
  kIpTx = 10,     // ptr=packed chain; req_id=l4 cookie; arg0=src<<32|dst;
                  // arg1=protocol
  kIpTxDone,      // req_id=l4 cookie; arg0=sent(0/1)

  // --- IP -> transport ---------------------------------------------------------
  kL4Rx = 20,     // ptr=frame; arg0=l4_offset<<16|l4_length; arg1=src<<32|dst
  kL4RxDone,      // ptr=frame (release into IP's receive pool)
  kL4RxAgg,       // ptr=packed WireRxFrame array (one GRO super-segment:
                  // consecutive in-order same-4-tuple TCP segments);
                  // arg0=frame count; arg1=src<<32|dst.  The transport
                  // charges its per-segment cost once for the aggregate and
                  // answers with one kL4RxDone per member frame as it
                  // consumes them.

  // --- IP <-> PF -----------------------------------------------------------------
  kPfCheck = 30,  // req_id=cookie; arg0=src<<32|dst; arg1=sport<<32|dport;
                  // arg2=dir<<16|proto<<8|tcp_flags
  kPfVerdict,     // req_id=cookie; arg0=allow(0/1)
  kPfCheckBatch,  // ptr=packed WirePfQuery array; arg0=count.  All verdicts
                  // of one RX burst travel as one message pair.
  kPfVerdictBatch,  // ptr=packed WirePfVerdict array; arg0=count
  kPfCacheInval,    // PF -> transports broadcast: shard-local verdict caches
                    // are stale (rule change or PF restart); no payload.

  // --- IP <-> drivers -------------------------------------------------------------
  kDrvTx = 40,    // ptr=packed chain; req_id=cookie
  kDrvTxDone,     // req_id=cookie; arg0=ok(0/1)
  kDrvRx,         // ptr=received frame (length = frame length): a receive
                  // interrupt's lone frame for IP, or one frame of a run
                  // degraded because no descriptor could be packed.
  kDrvRxBuf,      // ptr=fresh receive buffer for the device
  kDrvLink,       // arg0=up(0/1)
  kDrvRxBurst,    // ptr=packed WireRxFrame array (a run of two or more
                  // frames of one receive interrupt); arg0=frame count.  IP
                  // handles it exactly like that many kDrvRx: the per-frame
                  // protocol costs still apply, the per-frame IPC costs
                  // do not.
  kDrvRxFast,     // driver -> transport shard (RSS fast path): ptr=packed
                  // WireRxFrame array; arg0=frame count; arg1=ifindex.  The
                  // frames skip the central IP server; the shard runs the
                  // hoisted per-shard IP RX context on them.
  kDrvRxCredit,   // driver -> IP: arg0=buffers consumed by the fast-path
                  // frames of one receive interrupt (IP reposts; the frames
                  // themselves never passed through IP, so its receive
                  // bookkeeping does not fire).
  kFastFallback,  // transport -> IP: ptr=frame; arg1=ifindex.  A frame the
                  // per-shard fast path cannot handle (not for our address,
                  // malformed, ICMP, ...) rejoins the classic IP input path.

  // --- socket control (apps / SYSCALL -> transports) --------------------------------
  kSockOpen = 60,   // arg0=reply tag
  kSockBind,        // socket; arg0=addr; arg1=port
  kSockListen,      // socket; arg0=backlog
  kSockConnect,     // socket; arg0=addr; arg1=port
  kSockSend,        // socket; ptr=payload chunk (transport-owned pool)
  kSockSendTo,      // socket; ptr=payload; arg0=addr; arg1=port  (UDP)
  kSockClose,       // socket
  kSockReply,       // req_id matches request; arg0=status/value
  kSockBatch = 69,  // ptr=packed WireSockOp array; arg0=op count.  One
                    // submission-queue flush travels as one message: the
                    // single trap the application paid covers every op.
                    // The submitter holds one chunk reference per op and
                    // drops it as that op's reply (or abort) comes back.
                    // The only way socket ops enter a server over a
                    // channel; kSockOpen..kSockClose name the op inside.

  // --- PF state rebuild ---------------------------------------------------------------
  kConnList = 80,     // req_id
  kConnListReply,     // req_id; ptr=array of PfStateKey records

  // --- transport replica maintenance (shard <-> sibling shard) -----------------------
  // Port-owning state is replicated SO_REUSEPORT-style to every replica so
  // the 4-tuple steering in IP can hand a frame to any of them: TCP
  // listeners (each replica owns an accept queue for the port) and whole
  // UDP socket records.  Upserts are idempotent; a restarted replica is
  // re-seeded by its siblings when it announces (only home records live
  // in storage).
  kShardRepListen = 100,  // socket=id; arg0=addr; arg1=port<<16|backlog
  kShardRepSock,          // socket=id; arg0=local<<32|peer; arg1=lport<<16|pport
  kShardRepClose,         // socket=id (listener / UDP socket removal)

  // --- storage ---------------------------------------------------------------------------
  kStorePut = 90,  // arg0=key id; ptr=value bytes in a requester chunk,
                   // freed by the requester when the kStoreAck arrives
  kStoreAck,       // req_id; ptr=the put's chunk (the value was copied)
  kStoreGet,       // arg0=key id
  kStoreReply,     // req_id; arg0=found(0/1); ptr=value (storage pool)
  kStoreRelease,   // ptr=chunk in storage pool to free

  // --- end-to-end work probes (reincarnation server <-> the stack) ------------------
  // Heartbeats only prove a process answers kernel notifies; a silently
  // wedged server (drops its real work, answers heartbeats) passes them.
  // The work probe is a synthetic echo through the stack: rs -> tcpN ->
  // ip -> pf, acked back along the same path.  A server that drops work
  // drops the probe, the reincarnation server times out and restarts it.
  kWorkProbe = 110,  // req_id=probe cookie
  kWorkProbeAck,     // req_id=probe cookie; arg0=hops completed
};

// Storage key ids, namespaced per requesting server by the storage server.
enum StoreKey : std::uint32_t {
  kKeyIpConfig = 1,
  kKeyUdpSockets = 2,
  kKeyTcpListeners = 3,
  kKeyPfRules = 4,
  // Connection-checkpoint journal (per TCP replica namespace): a directory
  // of checkpointed connections plus one compact TCB record per connection
  // at kKeyTcpCkptRecBase + (sock & 0x00ffffff).
  kKeyTcpCkptDir = 16,
  // Continuation pages of a directory that outgrew one record: page i >= 1
  // lives at kKeyTcpCkptDirBase + i - 1, each page naming its successor
  // (chained, so a restart can walk an arbitrarily large directory without
  // knowing its size up front).  The range is far below kKeyTcpCkptRecBase
  // and far above the static keys, so it collides with neither.
  kKeyTcpCkptDirBase = 0x00100000,
  kKeyTcpCkptRecBase = 0x01000000,
};

inline constexpr std::uint32_t ckpt_record_key(std::uint32_t sock) {
  return kKeyTcpCkptRecBase + (sock & 0x00ffffffu);
}

// --- small encode/decode helpers ---------------------------------------------------

inline std::uint64_t pack_addrs(net::Ipv4Addr a, net::Ipv4Addr b) {
  return (static_cast<std::uint64_t>(a.value) << 32) | b.value;
}
inline net::Ipv4Addr unpack_hi(std::uint64_t v) {
  return net::Ipv4Addr{static_cast<std::uint32_t>(v >> 32)};
}
inline net::Ipv4Addr unpack_lo(std::uint64_t v) {
  return net::Ipv4Addr{static_cast<std::uint32_t>(v)};
}

inline chan::Message make_pf_check(std::uint64_t cookie,
                                   const net::PfQuery& q) {
  chan::Message m;
  m.opcode = kPfCheck;
  m.req_id = cookie;
  m.arg0 = pack_addrs(q.src, q.dst);
  m.arg1 = (static_cast<std::uint64_t>(q.sport) << 32) | q.dport;
  m.arg2 = (static_cast<std::uint64_t>(static_cast<std::uint8_t>(q.dir))
            << 16) |
           (static_cast<std::uint64_t>(q.protocol) << 8) | q.tcp_flags;
  return m;
}

inline net::PfQuery parse_pf_check(const chan::Message& m) {
  net::PfQuery q;
  q.src = unpack_hi(m.arg0);
  q.dst = unpack_lo(m.arg0);
  q.sport = static_cast<std::uint16_t>(m.arg1 >> 32);
  q.dport = static_cast<std::uint16_t>(m.arg1);
  q.dir = static_cast<net::PfDir>((m.arg2 >> 16) & 0xff);
  q.protocol = static_cast<std::uint8_t>((m.arg2 >> 8) & 0xff);
  q.tcp_flags = static_cast<std::uint8_t>(m.arg2 & 0xff);
  return q;
}

// Receive buffers the IP side keeps posted to each NIC RX queue, and their
// size (one full Ethernet frame plus headroom).
inline constexpr int kRxBuffersPerQueue = 96;
inline constexpr std::uint32_t kRxBufSize = 2048;

// --- receive-side batching (kDrvRxBurst / kL4RxAgg / kPfCheckBatch) ----------------
//
// The RX symmetric half of TSO: the NIC coalesces receive interrupts into
// bursts, the burst crosses each channel as ONE message referencing a packed
// array of per-frame records, and IP merges in-order same-flow TCP segments
// of a burst into one aggregate for the transport.  Record arrays are packed
// into a chunk of the sender's staging pool; the consumer releases the
// descriptor chunk through the pool registry once it has unpacked it (the
// modelled done-report of a ring slot).

struct WireRxFrame {
  chan::RichPtr frame;          // whole frame chunk; length = frame bytes
  std::uint16_t l4_offset = 0;  // filled on the IP -> transport leg
  std::uint16_t l4_length = 0;
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<WireRxFrame>);

struct WirePfQuery {
  std::uint64_t cookie = 0;
  net::PfQuery query;
};
static_assert(std::is_trivially_copyable_v<WirePfQuery>);

struct WirePfVerdict {
  std::uint64_t cookie = 0;
  std::uint32_t allow = 0;
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<WirePfVerdict>);

// Packs a trivially-copyable record array into a chunk of `pool`; null on
// pool exhaustion (drop/defer, never block).
template <typename Rec>
inline chan::RichPtr pack_records(chan::Pool& pool, std::span<const Rec> recs) {
  const std::uint32_t bytes =
      static_cast<std::uint32_t>(recs.size() * sizeof(Rec));
  chan::RichPtr chunk = pool.alloc(bytes);
  if (!chunk.valid()) return chunk;
  auto view = pool.write_view(chunk);
  std::memcpy(view.data(), recs.data(), bytes);
  return chunk;
}

template <typename Rec>
inline std::vector<Rec> parse_records(std::span<const std::byte> bytes) {
  std::vector<Rec> recs(bytes.size() / sizeof(Rec));
  std::memcpy(recs.data(), bytes.data(), recs.size() * sizeof(Rec));
  return recs;
}

// The frames of one receive message from a driver.  A kDrvRx is the frame
// pointer itself; a kDrvRxBurst is unpacked into `burst` and its descriptor
// goes back to the driver's pool here.
inline std::span<const chan::RichPtr> rx_frames(
    const chan::Message& m, chan::PoolRegistry& pools,
    std::vector<chan::RichPtr>& burst) {
  if (m.opcode != kDrvRxBurst) return {&m.ptr, 1};
  for (const auto& rec : parse_records<WireRxFrame>(pools.read(m.ptr)))
    burst.push_back(rec.frame);
  pools.release(m.ptr);
  return burst;
}

// Loan-ledger borrower id of a transport replica.  Frames referenced by an
// in-flight kL4RxAgg message are on loan from IP's receive pool to the
// target replica; if the replica dies with the message still queued, IP
// reclaims the loans on its restart (the rcvq frames the replica had
// already accepted are released by its own teardown path instead).  The
// high bit keeps these ids clear of the application borrower ids the node
// hands out sequentially.
inline constexpr std::uint32_t transport_borrower(char proto, int shard) {
  return 0x80000000u | (proto == 'U' ? 0x100u : 0u) |
         static_cast<std::uint32_t>(shard);
}

// --- batched socket submissions (kSockBatch) ---------------------------------------
//
// A socket control op is one WireSockOp record all the way from the
// application's submission ring to the engine call (src/servers/sock_exec.h).
// Applications queue ops into a per-app submission ring; one doorbell
// flushes the whole batch.  Over channels the batch travels as a packed
// array of WireSockOp records referenced by a kSockBatch message; on the
// direct paths the kernel message of the trap carries it.  Either way a
// server takes the ops as one span.  Ops are executed strictly in array
// order, so a later op may name the socket a kSockOpen earlier in the same
// batch is about to create (kSockFromBatchOpen).

// Sentinel socket id: "the socket opened by the nearest preceding kSockOpen
// of the same protocol in this batch".
inline constexpr std::uint32_t kSockFromBatchOpen = 0xffffffffu;

struct WireSockOp {
  std::uint16_t opcode = kNop;  // kSockOpen..kSockClose
  std::uint8_t proto = 'T';     // 'T' or 'U'
  std::uint8_t pad = 0;
  std::uint32_t sock = 0;       // socket id or kSockFromBatchOpen
  std::uint64_t req_id = 0;     // per-op reply correlation
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  chan::RichPtr ptr;            // payload chunk for kSockSend/kSockSendTo
};
static_assert(std::is_trivially_copyable_v<WireSockOp>);

// Where a server hands each op's kSockReply (its req_id is the op's).
using SockReplyFn = std::function<void(const chan::Message&)>;

// Runs every op of a batch in array order, resolving the in-batch open
// sentinel per protocol.  `exec(op)` applies one op, sentinel resolved, and
// returns its kSockReply; an open's reply names the socket later sentinel
// ops of its protocol stand for.
template <typename ExecFn>
inline void run_sock_batch(std::span<const WireSockOp> ops, ExecFn&& exec) {
  std::uint32_t open_t = 0;
  std::uint32_t open_u = 0;
  for (WireSockOp op : ops) {
    std::uint32_t& batch_open = op.proto == 'U' ? open_u : open_t;
    if (op.sock == kSockFromBatchOpen) op.sock = batch_open;
    const chan::Message r = exec(op);
    if (op.opcode == kSockOpen) batch_open = r.socket;
  }
}

// --- transport-shard routing of a submission flush ---------------------------------
//
// Each op of a flush is assigned to one transport replica: opens go
// round-robin over the replicas the caller reports alive (the cursors
// persist across flushes, so new sockets spread out — and a replica that
// is mid-reincarnation is skipped instead of failing 1/N of new opens),
// in-batch sentinel ops follow the nearest preceding open of their
// protocol (they must execute where that open executes), and every other
// op routes by the shard its socket id encodes.

struct ShardCursors {
  int tcp = 0;
  int udp = 0;
};

// Calls assign(index, shard) for every op, in order.  alive(proto, shard)
// reports whether that replica can take new sockets right now; when none
// is alive the plain round-robin choice stands (and fails loudly there).
template <typename AssignFn, typename AliveFn>
inline void route_sock_shards(std::span<const WireSockOp> ops, int tcp_shards,
                              int udp_shards, ShardCursors& rr,
                              AssignFn&& assign, AliveFn&& alive) {
  int open_t = 0;  // shard of the last in-batch open, per protocol
  int open_u = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const WireSockOp& op = ops[i];
    const bool is_udp = op.proto == 'U';
    const char proto = is_udp ? 'U' : 'T';
    const int shards = std::max(1, is_udp ? udp_shards : tcp_shards);
    int shard;
    if (op.opcode == kSockOpen) {
      int& cur = is_udp ? rr.udp : rr.tcp;
      shard = cur % shards;
      for (int tries = 0; tries < shards; ++tries) {
        const int cand = (cur + tries) % shards;
        if (alive(proto, cand)) {
          shard = cand;
          break;
        }
      }
      cur = (shard + 1) % shards;
      (is_udp ? open_u : open_t) = shard;
    } else if (op.sock == kSockFromBatchOpen) {
      shard = is_udp ? open_u : open_t;
    } else {
      shard = net::sock_shard(op.sock);
      if (shard >= shards) shard = 0;  // stale id after a reshard: shard 0 rejects it
    }
    assign(i, shard);
  }
}

// Well-known server names.
inline constexpr const char* kRsName = "rs";
inline constexpr const char* kTcpName = "tcp";
inline constexpr const char* kUdpName = "udp";
inline constexpr const char* kIpName = "ip";
inline constexpr const char* kPfName = "pf";
inline constexpr const char* kStoreName = "store";
inline constexpr const char* kSyscallName = "syscall";
inline constexpr const char* kStackName = "stack";  // combined single server
inline const std::string driver_name(int ifindex) {
  return "drv" + std::to_string(ifindex);
}
// Replica names of the sharded transport plane.  Shard 0 keeps the classic
// unsuffixed name, so every single-shard arrangement (the default, and all
// of Table II) is byte-for-byte what it always was; further replicas are
// "tcp1".."tcpN-1" / "udp1".."udpN-1".
inline const std::string tcp_shard_name(int shard) {
  return shard == 0 ? kTcpName : kTcpName + std::to_string(shard);
}
inline const std::string udp_shard_name(int shard) {
  return shard == 0 ? kUdpName : kUdpName + std::to_string(shard);
}
inline const std::string transport_shard_name(char proto, int shard) {
  return proto == 'U' ? udp_shard_name(shard) : tcp_shard_name(shard);
}
// The sibling replica names of one shard of a sharded transport.
inline std::vector<std::string> transport_shard_siblings(char proto,
                                                         int shard,
                                                         int shard_count) {
  std::vector<std::string> out;
  for (int i = 0; i < shard_count; ++i) {
    if (i != shard) out.push_back(transport_shard_name(proto, i));
  }
  return out;
}

}  // namespace newtos::servers
