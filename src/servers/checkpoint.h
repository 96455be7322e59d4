// Transparent TCP recovery: the connection-checkpoint subsystem.
//
// The paper stops at Table I: every component recovers transparently except
// the TCP server, whose "large, frequently changing state for each
// connection" makes established connections die with the process.  This
// subsystem closes that gap using exactly the two ingredients the stack
// already has:
//
//  - POOLS (Section IV).  Shared-memory pools outlive their owner's
//    process: that is the paper's own crash argument for zero-copy.  Each
//    checkpointed connection gets a pool-resident *checkpoint page* — a
//    chunk of the TCP replica's staging pool holding the hot TCB scalars
//    (state, snd_una, rcv_nxt, window, FIN flags) and the queue membership
//    (ring arrays of rich pointers to the sndq chunks and rcvq frames).
//    Scalar updates are plain stores, so they are safe to do per segment:
//    no IPC ever leaves the server for them.
//
//  - THE STORAGE SERVER (Section V-D).  What *does* ride IPC is compact
//    and rare: a directory of checkpointed connections plus one small
//    record per connection (socket id, page pointer, sequence watermarks),
//    put on state transitions and refreshed after every kCkptWatermark
//    bytes of stream progress — never per segment.  The storage server is
//    how the restarted replica *finds* its pages again.
//
//  - THE LOAN LEDGER (PR 2).  Unacked send data and undelivered receive
//    data stay in live pool chunks across the crash: every chunk a
//    checkpointed connection queues is noted in its owning pool's ledger
//    under the connection's checkpoint borrower id.  The dying server
//    *parks* those references instead of releasing them
//    (TcpEngine::park_checkpointed), the restarted replica re-adopts them
//    through the page, and a connection whose record was lost is swept by
//    reclaiming its borrower — a checkpoint can never strand a chunk.
//
// Restore sequence (TcpServer::start(restart) with checkpointing on):
// fetch listeners, fetch the checkpoint directory, fetch each record, read
// each page, rebuild the TCBs (TcpEngine::restore_conn), then resync: the
// engine retransmits from the last acked watermark, re-announces its exact
// rcv_nxt, and replays the readiness events.  Because rcv_nxt only ever
// covered bytes that are either still in parked rcvq frames or already
// delivered to the application, the application sees no lost and no
// duplicated bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/chan/pool.h"
#include "src/net/tcp.h"
#include "src/sim/sim.h"

namespace newtos::servers {

// Loan-ledger borrower id of one checkpointed connection.  The 0xC prefix
// keeps these clear of application borrowers (small sequential ids) and
// transport-replica borrowers (0x8 prefix); the socket id already encodes
// the replica shard in its top bits.
inline constexpr std::uint32_t kCkptBorrowerTag = 0xC0000000u;
inline constexpr std::uint32_t ckpt_borrower(std::uint32_t sock) {
  return kCkptBorrowerTag | (sock & 0x3fffffffu);
}
inline constexpr bool is_ckpt_borrower(std::uint32_t borrower) {
  return (borrower & 0xE0000000u) == kCkptBorrowerTag;
}

// --- the pool-resident checkpoint page ---------------------------------------------

inline constexpr std::uint32_t kCkptMagic = 0x54504b43u;  // "CKPT"
// Slot-ring capacities bound the page size (~49 KB per connection).  Both
// queues are byte-bounded at 1 MB by TcpOptions; the worst realistic chunk
// granularity is one MSS-sized spliced slice (~1448 B), i.e. ~724 entries —
// 1024 slots cover it.  A connection that still overflows (pathological
// tiny-write fragmentation) falls back to the classic non-recoverable
// behaviour instead of journaling a truncated queue.
inline constexpr std::uint32_t kCkptSndSlots = 1024;
inline constexpr std::uint32_t kCkptRcvSlots = 1024;

// The checkpoint directory is paged: one directory record holds at most
// this many socket ids plus the storage key of its continuation page, so a
// replica tracking more connections than fit in one record chains into
// kKeyTcpCkptDirBase instead of silently degrading (the ROADMAP's
// 1024-slot cap).
inline constexpr std::uint32_t kCkptDirPageSocks = 1024;

struct CkptPageHdr {
  std::uint32_t magic = kCkptMagic;
  std::uint32_t sock = 0;
  std::uint8_t state = 0;  // net::TcpState
  std::uint8_t peer_fin = 0;
  std::uint8_t fin_queued = 0;
  std::uint8_t accept_pending = 0;
  std::uint32_t local = 0;
  std::uint32_t peer = 0;
  std::uint16_t lport = 0;
  std::uint16_t pport = 0;
  std::uint32_t parent_listener = 0;
  std::uint32_t snd_una = 0;
  std::uint32_t snd_wnd = 0;
  std::uint32_t rcv_nxt = 0;
  // Ring bounds into the slot arrays that follow the header.
  std::uint32_t snd_head = 0;
  std::uint32_t snd_count = 0;
  std::uint32_t rcv_head = 0;
  std::uint32_t rcv_count = 0;
  // Consumed bytes of the front receive slot (only the front can be
  // partially delivered).
  std::uint32_t front_consumed = 0;
  // Congestion-control snapshot (algorithm id + opaque blob + the engine's
  // RTT estimator), refreshed with the other scalars by plain stores.  A
  // restored connection resumes at its learned rate instead of slow start;
  // algo == 0 (a page written before this field existed, or an engine with
  // no module) restores conservatively.
  net::TcpCheckpointSink::CcState cc;
};
static_assert(std::is_trivially_copyable_v<CkptPageHdr>);

struct CkptSndSlot {
  chan::RichPtr chunk;
  std::uint32_t seq = 0;  // sequence number of the chunk's first byte
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<CkptSndSlot>);

struct CkptRcvSlot {
  chan::RichPtr frame;
  std::uint16_t off = 0;  // payload start within the frame chunk
  std::uint16_t len = 0;
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<CkptRcvSlot>);

inline constexpr std::uint32_t ckpt_page_bytes() {
  return static_cast<std::uint32_t>(sizeof(CkptPageHdr) +
                                    kCkptSndSlots * sizeof(CkptSndSlot) +
                                    kCkptRcvSlots * sizeof(CkptRcvSlot));
}

// --- the storage-journal record ----------------------------------------------------

// One compact per-connection TCB record in the replica's storage namespace
// (key ckpt_record_key(sock)); the directory (kKeyTcpCkptDir) lists the
// socks.  The sequence watermarks are diagnostics at journal granularity —
// the exact values live in the page.
//
// Wire format v2: the v1 core below, serialized verbatim, followed by a
// 32-bit version tag and the congestion-control snapshot as of the last
// journal refresh.  parse_record() accepts a bare v1 core (exactly
// kCkptRecV1Bytes long) and leaves `cc` absent (algo 0), so journals
// written by older builds still restore — with the conservative fresh-CC
// fallback.
inline constexpr std::uint32_t kCkptRecVersion = 2;

struct CkptStoreRec {
  // --- v1 core (wire-stable prefix) ---
  std::uint32_t sock = 0;
  chan::RichPtr page;
  std::uint32_t snd_una = 0;
  std::uint32_t rcv_nxt = 0;
  std::uint8_t state = 0;
  std::uint8_t pad[3] = {};
  // --- v2 trailer ---
  net::TcpCheckpointSink::CcState cc;
};
static_assert(std::is_trivially_copyable_v<CkptStoreRec>);

inline constexpr std::size_t kCkptRecV1Bytes = offsetof(CkptStoreRec, cc);

// Storage-journal refresh watermark: a connection's record is re-put to the
// storage server after this much un-journaled stream progress (the hot
// sequence scalars live in the pool-resident checkpoint page and are never
// sent per segment).
inline constexpr std::uint32_t kCkptWatermark = 256 * 1024;

// The TCP server's side of the subsystem: implements the engine's sink,
// owns the pages, journals to the storage server, and rebuilds
// RestoredConn records on restart.
class CheckpointWriter : public net::TcpCheckpointSink {
 public:
  struct Env {
    chan::Pool* pool = nullptr;           // host replica's pool (owns pages)
    chan::PoolRegistry* pools = nullptr;  // ledger ops across foreign pools
    // Journal transport: the host server's store_put.  False when the put
    // could not leave (pool exhausted, store unreachable).
    std::function<bool(std::uint32_t key, std::span<const std::byte> value,
                       sim::Context&)>
        store_put;
    // Defers the journal flush to the end of the handler turn, so every
    // transition of one turn rides one batch of puts.
    std::function<void(std::function<void(sim::Context&)>)> defer;
    std::function<void(sim::Cycles)> charge;  // no-op outside a handler
    // Overflow fallback: the engine reverts this connection to the classic
    // non-recoverable behaviour.
    std::function<void(net::SockId)> drop_checkpoint;
  };

  explicit CheckpointWriter(Env env) : env_(std::move(env)) {}
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  // --- TcpCheckpointSink -----------------------------------------------------------
  bool ckpt_established(const ConnMeta& meta, const Scalars& s) override;
  void ckpt_scalars(net::SockId s, const Scalars& sc) override;
  void ckpt_sndq_push(net::SockId s, const chan::RichPtr& chunk,
                      std::uint32_t seq) override;
  void ckpt_sndq_pop(net::SockId s, const chan::RichPtr& chunk) override;
  void ckpt_rcvq_push(net::SockId s, const chan::RichPtr& frame,
                      std::uint16_t off, std::uint16_t len) override;
  void ckpt_rcvq_consume(net::SockId s, std::size_t n) override;
  void ckpt_accepted(net::SockId s) override;
  void ckpt_destroyed(net::SockId s) override;

  // --- journal serialization ---------------------------------------------------------
  // One page of the chained directory: up to kCkptDirPageSocks socks plus
  // the storage key of the next page (0 terminates the chain).  Page 0
  // lives at kKeyTcpCkptDir, page i >= 1 at kKeyTcpCkptDirBase + i - 1.
  struct DirPage {
    std::vector<std::uint32_t> socks;
    std::uint32_t next_key = 0;
  };
  static std::vector<std::byte> serialize_dir(
      std::span<const std::uint32_t> socks, std::uint32_t next_key);
  static std::optional<DirPage> parse_dir(std::span<const std::byte>);
  static std::vector<std::byte> serialize_record(const CkptStoreRec& rec);
  static std::optional<CkptStoreRec> parse_record(std::span<const std::byte>);

  // --- restore side ------------------------------------------------------------------
  // Validates the page named by a journal record and converts it into an
  // engine restore record.  nullopt when the page (or any chunk it names)
  // did not survive — the caller then reclaims the orphan.
  std::optional<net::TcpEngine::RestoredConn> load_page(
      const CkptStoreRec& rec) const;
  // Resumes bookkeeping for a connection restore_conn() accepted, and
  // re-journals it.
  void adopt(const CkptStoreRec& rec);
  // Frees everything a dead connection's borrower still holds (queue chunks
  // and the page), across every pool.
  void reclaim_orphan(std::uint32_t sock);

  // The storage server restarted empty: re-journal the whole namespace.
  void store_all(sim::Context& ctx);

  // Checkpoint overhead, surfaced as node stats by the host.
  std::uint64_t puts() const { return puts_; }
  std::uint64_t put_bytes() const { return put_bytes_; }
  std::uint64_t overflows() const { return overflows_; }
  // Continuation-page puts of the chained directory: non-zero whenever the
  // replica tracked more connections than one directory record holds.
  std::uint64_t dir_overflows() const { return dir_overflows_; }

 private:
  struct Rec {
    chan::RichPtr page;
    std::uint32_t last_una = 0;  // watermark base (as of the last put)
    std::uint32_t last_rcv = 0;
    bool dirty = false;
  };

  CkptPageHdr* hdr(const chan::RichPtr& page);
  CkptSndSlot* snd_slots(const chan::RichPtr& page);
  CkptRcvSlot* rcv_slots(const chan::RichPtr& page);

  void note_borrow(const chan::RichPtr& p, std::uint32_t sock);
  void note_return(const chan::RichPtr& p, std::uint32_t sock);
  // Releases one connection's checkpoint: returns every queue loan and
  // frees the page.  The engine keeps (and later releases) the queue
  // references themselves.
  void drop_rec(std::uint32_t sock, std::map<std::uint32_t, Rec>::iterator it);
  void mark_dirty(std::uint32_t sock);
  void schedule_flush();
  void flush(sim::Context& ctx);
  // False when the put could not be sent (pool exhausted / store queue
  // full): the caller keeps its dirty flag so a later flush retries.
  bool put(std::uint32_t key, std::span<const std::byte> value,
           sim::Context& ctx);

  Env env_;
  std::map<std::uint32_t, Rec> recs_;  // ordered: deterministic journal
  bool dir_dirty_ = false;
  bool flush_scheduled_ = false;
  std::uint64_t puts_ = 0;
  std::uint64_t put_bytes_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t dir_overflows_ = 0;
};

}  // namespace newtos::servers
