#include "src/servers/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "src/servers/proto.h"

namespace newtos::servers {

// The page lives in the host replica's own pool; chunk offsets are 64-byte
// aligned, so the header/slot structs overlay the chunk bytes directly —
// these are the "plain stores into shared memory" the design relies on.
CkptPageHdr* CheckpointWriter::hdr(const chan::RichPtr& page) {
  auto view = env_.pool->write_view(page);
  return reinterpret_cast<CkptPageHdr*>(view.data());
}

CkptSndSlot* CheckpointWriter::snd_slots(const chan::RichPtr& page) {
  auto view = env_.pool->write_view(page);
  return reinterpret_cast<CkptSndSlot*>(view.data() + sizeof(CkptPageHdr));
}

CkptRcvSlot* CheckpointWriter::rcv_slots(const chan::RichPtr& page) {
  auto view = env_.pool->write_view(page);
  return reinterpret_cast<CkptRcvSlot*>(view.data() + sizeof(CkptPageHdr) +
                                        kCkptSndSlots * sizeof(CkptSndSlot));
}

void CheckpointWriter::note_borrow(const chan::RichPtr& p,
                                   std::uint32_t sock) {
  chan::Pool* pool = env_.pools->find(p.pool);
  if (pool != nullptr) pool->note_borrow(p, ckpt_borrower(sock));
}

void CheckpointWriter::note_return(const chan::RichPtr& p,
                                   std::uint32_t sock) {
  chan::Pool* pool = env_.pools->find(p.pool);
  if (pool != nullptr) pool->note_return(p, ckpt_borrower(sock));
}

// --- sink ----------------------------------------------------------------------------

bool CheckpointWriter::ckpt_established(const ConnMeta& meta,
                                        const Scalars& s) {
  if (env_.pool == nullptr || recs_.count(meta.sock) != 0) return false;
  chan::RichPtr page = env_.pool->alloc(ckpt_page_bytes());
  if (!page.valid()) return false;  // pool exhausted: run un-checkpointed
  note_borrow(page, meta.sock);

  CkptPageHdr h;
  h.sock = meta.sock;
  h.state = static_cast<std::uint8_t>(s.state);
  h.peer_fin = s.peer_fin ? 1 : 0;
  h.fin_queued = s.fin_queued ? 1 : 0;
  h.accept_pending = meta.accept_pending ? 1 : 0;
  h.local = meta.local.value;
  h.peer = meta.peer.value;
  h.lport = meta.lport;
  h.pport = meta.pport;
  h.parent_listener = meta.parent_listener;
  h.snd_una = s.snd_una;
  h.snd_wnd = s.snd_wnd;
  h.rcv_nxt = s.rcv_nxt;
  h.cc = s.cc;
  *hdr(page) = h;

  Rec rec;
  rec.page = page;
  rec.last_una = s.snd_una;
  rec.last_rcv = s.rcv_nxt;
  recs_.emplace(meta.sock, rec);
  dir_dirty_ = true;
  mark_dirty(meta.sock);
  env_.charge(80);  // page init: a cache line of stores
  return true;
}

void CheckpointWriter::ckpt_scalars(net::SockId s, const Scalars& sc) {
  auto it = recs_.find(s);
  if (it == recs_.end()) return;
  CkptPageHdr* h = hdr(it->second.page);
  h->state = static_cast<std::uint8_t>(sc.state);
  h->peer_fin = sc.peer_fin ? 1 : 0;
  h->fin_queued = sc.fin_queued ? 1 : 0;
  h->snd_una = sc.snd_una;
  h->snd_wnd = sc.snd_wnd;
  h->rcv_nxt = sc.rcv_nxt;
  h->cc = sc.cc;
  // Journal refresh after every watermark's worth of stream progress (the
  // scalars themselves never ride IPC — only this record refresh does).
  // Re-marking an already-dirty record is deliberate: it re-arms the flush
  // after one whose put was dropped.
  const std::uint32_t progress =
      (sc.snd_una - it->second.last_una) + (sc.rcv_nxt - it->second.last_rcv);
  if (progress >= kCkptWatermark) mark_dirty(s);
}

void CheckpointWriter::ckpt_sndq_push(net::SockId s,
                                      const chan::RichPtr& chunk,
                                      std::uint32_t seq) {
  auto it = recs_.find(s);
  if (it == recs_.end()) return;
  CkptPageHdr* h = hdr(it->second.page);
  if (h->snd_count >= kCkptSndSlots) {
    // Pathological fragmentation (more queued chunks than slots): revert
    // this connection to the classic non-recoverable behaviour rather than
    // journal a truncated queue.
    ++overflows_;
    drop_rec(s, it);
    env_.drop_checkpoint(s);
    return;
  }
  CkptSndSlot* slots = snd_slots(it->second.page);
  slots[(h->snd_head + h->snd_count) % kCkptSndSlots] =
      CkptSndSlot{chunk, seq, 0};
  ++h->snd_count;
  note_borrow(chunk, s);
}

void CheckpointWriter::ckpt_sndq_pop(net::SockId s,
                                     const chan::RichPtr& chunk) {
  auto it = recs_.find(s);
  if (it == recs_.end()) return;
  CkptPageHdr* h = hdr(it->second.page);
  if (h->snd_count == 0) return;
  note_return(chunk, s);
  h->snd_head = (h->snd_head + 1) % kCkptSndSlots;
  --h->snd_count;
}

void CheckpointWriter::ckpt_rcvq_push(net::SockId s,
                                      const chan::RichPtr& frame,
                                      std::uint16_t off, std::uint16_t len) {
  auto it = recs_.find(s);
  if (it == recs_.end()) return;
  CkptPageHdr* h = hdr(it->second.page);
  if (h->rcv_count >= kCkptRcvSlots) {
    ++overflows_;
    drop_rec(s, it);
    env_.drop_checkpoint(s);
    return;
  }
  CkptRcvSlot* slots = rcv_slots(it->second.page);
  slots[(h->rcv_head + h->rcv_count) % kCkptRcvSlots] =
      CkptRcvSlot{frame, off, len, 0};
  ++h->rcv_count;
  note_borrow(frame, s);
}

void CheckpointWriter::ckpt_rcvq_consume(net::SockId s, std::size_t n) {
  auto it = recs_.find(s);
  if (it == recs_.end()) return;
  CkptPageHdr* h = hdr(it->second.page);
  CkptRcvSlot* slots = rcv_slots(it->second.page);
  std::size_t remaining = n;
  while (remaining > 0 && h->rcv_count > 0) {
    CkptRcvSlot& front = slots[h->rcv_head];
    const std::size_t avail = front.len - h->front_consumed;
    const std::size_t take = std::min(remaining, avail);
    remaining -= take;
    if (take == avail) {
      note_return(front.frame, s);
      h->rcv_head = (h->rcv_head + 1) % kCkptRcvSlots;
      --h->rcv_count;
      h->front_consumed = 0;
    } else {
      h->front_consumed += static_cast<std::uint32_t>(take);
    }
  }
}

void CheckpointWriter::ckpt_accepted(net::SockId s) {
  auto it = recs_.find(s);
  if (it == recs_.end()) return;
  hdr(it->second.page)->accept_pending = 0;
}

void CheckpointWriter::ckpt_destroyed(net::SockId s) {
  auto it = recs_.find(s);
  if (it == recs_.end()) return;
  drop_rec(s, it);
}

void CheckpointWriter::drop_rec(std::uint32_t sock,
                                std::map<std::uint32_t, Rec>::iterator it) {
  // Return every queue loan still on the page (the engine keeps the actual
  // references and releases them through its normal teardown), then free
  // the page itself.
  const chan::RichPtr page = it->second.page;
  CkptPageHdr* h = hdr(page);
  CkptSndSlot* ss = snd_slots(page);
  for (std::uint32_t i = 0; i < h->snd_count; ++i) {
    note_return(ss[(h->snd_head + i) % kCkptSndSlots].chunk, sock);
  }
  CkptRcvSlot* rs = rcv_slots(page);
  for (std::uint32_t i = 0; i < h->rcv_count; ++i) {
    note_return(rs[(h->rcv_head + i) % kCkptRcvSlots].frame, sock);
  }
  h->magic = 0;  // the page is dead even if the journal record lingers
  note_return(page, sock);
  env_.pool->release(page);
  recs_.erase(it);
  dir_dirty_ = true;
  schedule_flush();
}

// --- journal -------------------------------------------------------------------------

void CheckpointWriter::mark_dirty(std::uint32_t sock) {
  auto it = recs_.find(sock);
  if (it == recs_.end()) return;
  it->second.dirty = true;
  schedule_flush();
}

void CheckpointWriter::schedule_flush() {
  if (flush_scheduled_ || !env_.defer) return;
  flush_scheduled_ = true;
  env_.defer([this](sim::Context& ctx) {
    flush_scheduled_ = false;
    flush(ctx);
  });
}

bool CheckpointWriter::put(std::uint32_t key, std::span<const std::byte> value,
                           sim::Context& ctx) {
  // Pool exhausted or store down: a later flush retries, and store_all on
  // the storage server's restart re-seeds everything.
  if (!env_.store_put(key, value, ctx)) return false;
  ++puts_;
  put_bytes_ += value.size();
  return true;
}

void CheckpointWriter::flush(sim::Context& ctx) {
  // Dirty flags only clear when the put actually left: a drop (pool
  // exhausted, store queue full) keeps the state dirty and the next
  // scheduled flush — any transition or watermark crossing — retries, so
  // a journal gap cannot silently become permanent.
  if (dir_dirty_) {
    std::vector<std::uint32_t> socks;
    socks.reserve(recs_.size());
    for (const auto& [sock, rec] : recs_) socks.push_back(sock);
    // Chained paging: socks past one record's capacity spill into
    // continuation pages at kKeyTcpCkptDirBase, each page naming its
    // successor.  A shrink leaves stale pages in the store, but the chain
    // ends where next_key is 0, so a restore never reads them.  The dirty
    // flag clears only when EVERY page's put left — a partial flush (new
    // head, stale tail) is retried, and the restore side tolerates the
    // overlap by deduplicating socks and treating missing records as lost.
    const std::size_t pages =
        socks.empty()
            ? 1
            : (socks.size() + kCkptDirPageSocks - 1) / kCkptDirPageSocks;
    if (pages > 1) dir_overflows_ += pages - 1;
    bool all_put = true;
    for (std::size_t i = 0; i < pages; ++i) {
      const std::uint32_t key =
          i == 0 ? kKeyTcpCkptDir
                 : static_cast<std::uint32_t>(kKeyTcpCkptDirBase + i - 1);
      const std::uint32_t next =
          i + 1 < pages ? static_cast<std::uint32_t>(kKeyTcpCkptDirBase + i)
                        : 0;
      const std::size_t begin = i * kCkptDirPageSocks;
      const std::size_t count =
          std::min<std::size_t>(kCkptDirPageSocks, socks.size() - begin);
      if (!put(key, serialize_dir(std::span(socks).subspan(begin, count), next),
               ctx)) {
        all_put = false;
        break;
      }
    }
    if (all_put) dir_dirty_ = false;
  }
  for (auto& [sock, rec] : recs_) {
    if (!rec.dirty) continue;
    const CkptPageHdr* h = hdr(rec.page);
    CkptStoreRec sr;
    sr.sock = sock;
    sr.page = rec.page;
    sr.snd_una = h->snd_una;
    sr.rcv_nxt = h->rcv_nxt;
    sr.state = h->state;
    sr.cc = h->cc;
    if (!put(ckpt_record_key(sock), serialize_record(sr), ctx)) continue;
    rec.last_una = h->snd_una;
    rec.last_rcv = h->rcv_nxt;
    rec.dirty = false;
  }
}

void CheckpointWriter::store_all(sim::Context& ctx) {
  dir_dirty_ = true;
  for (auto& [sock, rec] : recs_) rec.dirty = true;
  flush(ctx);
}

// --- serialization -------------------------------------------------------------------

std::vector<std::byte> CheckpointWriter::serialize_dir(
    std::span<const std::uint32_t> socks, std::uint32_t next_key) {
  std::vector<std::byte> out(8 + socks.size() * 4);
  const std::uint32_t n = static_cast<std::uint32_t>(socks.size());
  std::memcpy(out.data(), &n, 4);
  std::memcpy(out.data() + 4, &next_key, 4);
  if (n > 0) std::memcpy(out.data() + 8, socks.data(), socks.size() * 4);
  return out;
}

std::optional<CheckpointWriter::DirPage> CheckpointWriter::parse_dir(
    std::span<const std::byte> bytes) {
  if (bytes.size() < 8) return std::nullopt;
  std::uint32_t n = 0;
  DirPage page;
  std::memcpy(&n, bytes.data(), 4);
  std::memcpy(&page.next_key, bytes.data() + 4, 4);
  if (bytes.size() < 8 + static_cast<std::size_t>(n) * 4) return std::nullopt;
  page.socks.resize(n);
  if (n > 0) std::memcpy(page.socks.data(), bytes.data() + 8, n * 4);
  return page;
}

std::vector<std::byte> CheckpointWriter::serialize_record(
    const CkptStoreRec& rec) {
  // v2: the wire-stable v1 core, a version tag, then the CC snapshot.
  std::vector<std::byte> out(kCkptRecV1Bytes + 4 + sizeof rec.cc);
  std::memcpy(out.data(), &rec, kCkptRecV1Bytes);
  std::memcpy(out.data() + kCkptRecV1Bytes, &kCkptRecVersion, 4);
  std::memcpy(out.data() + kCkptRecV1Bytes + 4, &rec.cc, sizeof rec.cc);
  return out;
}

std::optional<CkptStoreRec> CheckpointWriter::parse_record(
    std::span<const std::byte> bytes) {
  if (bytes.size() < kCkptRecV1Bytes) return std::nullopt;
  CkptStoreRec rec;
  std::memcpy(static_cast<void*>(&rec), bytes.data(), kCkptRecV1Bytes);
  // A bare v1 core restores with rec.cc absent (algo 0): the engine falls
  // back to a fresh congestion module.
  if (bytes.size() >= kCkptRecV1Bytes + 4 + sizeof rec.cc) {
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + kCkptRecV1Bytes, 4);
    if (version == kCkptRecVersion) {
      std::memcpy(&rec.cc, bytes.data() + kCkptRecV1Bytes + 4, sizeof rec.cc);
    }
  }
  return rec;
}

// --- restore -------------------------------------------------------------------------

std::optional<net::TcpEngine::RestoredConn> CheckpointWriter::load_page(
    const CkptStoreRec& rec) const {
  if (env_.pool == nullptr || rec.page.pool != env_.pool->id() ||
      !env_.pool->live(rec.page) || rec.page.length < ckpt_page_bytes()) {
    return std::nullopt;
  }
  auto bytes = env_.pool->read_view(rec.page);
  CkptPageHdr h;
  std::memcpy(&h, bytes.data(), sizeof h);
  if (h.magic != kCkptMagic || h.sock != rec.sock ||
      h.snd_count > kCkptSndSlots || h.rcv_count > kCkptRcvSlots) {
    return std::nullopt;
  }

  net::TcpEngine::RestoredConn out;
  out.sock = h.sock;
  out.state = static_cast<net::TcpState>(h.state);
  out.local = net::Ipv4Addr{h.local};
  out.lport = h.lport;
  out.peer = net::Ipv4Addr{h.peer};
  out.pport = h.pport;
  out.snd_una = h.snd_una;
  out.snd_wnd = h.snd_wnd;
  out.rcv_nxt = h.rcv_nxt;
  out.peer_fin = h.peer_fin != 0;
  out.fin_queued = h.fin_queued != 0;
  out.parent_listener = h.parent_listener;
  out.accept_pending = h.accept_pending != 0;
  out.cc = h.cc;

  const std::byte* base = bytes.data() + sizeof(CkptPageHdr);
  for (std::uint32_t i = 0; i < h.snd_count; ++i) {
    CkptSndSlot slot;
    std::memcpy(&slot,
                base + ((h.snd_head + i) % kCkptSndSlots) * sizeof(slot),
                sizeof slot);
    // A stale chunk (its owning pool reset in a concurrent failure) holes
    // the stream: the connection is unrecoverable.
    if (env_.pools->read(slot.chunk).empty()) return std::nullopt;
    out.sndq.push_back(
        net::TcpEngine::RestoredSndChunk{slot.seq, slot.chunk});
  }
  const std::byte* rbase = base + kCkptSndSlots * sizeof(CkptSndSlot);
  for (std::uint32_t i = 0; i < h.rcv_count; ++i) {
    CkptRcvSlot slot;
    std::memcpy(&slot,
                rbase + ((h.rcv_head + i) % kCkptRcvSlots) * sizeof(slot),
                sizeof slot);
    if (env_.pools->read(slot.frame).empty()) return std::nullopt;
    net::TcpEngine::RestoredRcvChunk rc;
    rc.frame = slot.frame;
    rc.offset = slot.off;
    rc.len = slot.len;
    rc.consumed = i == 0 ? static_cast<std::uint16_t>(h.front_consumed) : 0;
    out.rcvq.push_back(rc);
  }
  return out;
}

void CheckpointWriter::adopt(const CkptStoreRec& rec) {
  Rec r;
  r.page = rec.page;
  const CkptPageHdr* h = hdr(rec.page);
  r.last_una = h->snd_una;
  r.last_rcv = h->rcv_nxt;
  r.dirty = true;  // re-journal after the restart
  recs_[rec.sock] = r;
  dir_dirty_ = true;
  schedule_flush();
}

void CheckpointWriter::reclaim_orphan(std::uint32_t sock) {
  for (chan::Pool* pool : env_.pools->all()) {
    pool->reclaim(ckpt_borrower(sock));
  }
}

}  // namespace newtos::servers
