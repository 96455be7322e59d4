#include "src/net/tcp.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace newtos::net {

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::Closed: return "CLOSED";
    case TcpState::Listen: return "LISTEN";
    case TcpState::SynSent: return "SYN_SENT";
    case TcpState::SynRcvd: return "SYN_RCVD";
    case TcpState::Established: return "ESTABLISHED";
    case TcpState::FinWait1: return "FIN_WAIT_1";
    case TcpState::FinWait2: return "FIN_WAIT_2";
    case TcpState::CloseWait: return "CLOSE_WAIT";
    case TcpState::Closing: return "CLOSING";
    case TcpState::LastAck: return "LAST_ACK";
    case TcpState::TimeWait: return "TIME_WAIT";
  }
  return "?";
}

TcpEngine::TcpEngine(Env env, TcpOptions opts)
    : env_(std::move(env)), opts_(opts) {
  next_sock_ = env_.sock_base + 1;
}

TcpEngine::~TcpEngine() {
  // Release everything we own; cancel timers so no callback outlives us.
  for (auto& [sock, c] : conns_) {
    if (c.rto_timer) env_.timers->cancel(c.rto_timer);
    if (c.ack_timer) env_.timers->cancel(c.ack_timer);
    if (c.timewait_timer) env_.timers->cancel(c.timewait_timer);
    if (c.pace_timer) env_.timers->cancel(c.pace_timer);
    for (auto& sc : c.sndq) release_payload(sc.chunk);
    for (auto& rc : c.rcvq) env_.rx_done(rc.frame);
    for (auto& [seq, rc] : c.ooo) env_.rx_done(rc.frame);
  }
  // The host's descriptors may still sit in IP's queue, which outlives a
  // crashed host: they leak, bounded per crash.
  inflight_.for_each([this](std::uint64_t, const InFlight& f) {
    env_.buf_pool->release(f.hdr);
  });
}

void TcpEngine::release_payload(const chan::RichPtr& p) {
  // Forwarded payloads are sub-ranges of frames in a foreign (receive)
  // pool; our own send chunks resolve to themselves.  The registry models
  // the consumer's done-report back to the owning component.  A stale
  // pointer (the owner reset its pool) must NOT fall back to any other
  // pool: offsets are meaningless across pools.
  if (!p.valid()) return;
  env_.pools->release(p);
}

void TcpEngine::notify(SockId s, TcpEvent e) {
  if (env_.notify) env_.notify(s, e);
}

TcpEngine::Conn* TcpEngine::conn_for(SockId s) {
  auto it = conns_.find(s);
  return it == conns_.end() ? nullptr : &it->second;
}
const TcpEngine::Conn* TcpEngine::conn_for(SockId s) const {
  auto it = conns_.find(s);
  return it == conns_.end() ? nullptr : &it->second;
}

TcpEngine::Conn* TcpEngine::conn_by_tuple(Ipv4Addr peer, std::uint16_t pport,
                                          std::uint16_t lport) {
  auto it = by_tuple_.find(ConnKey{peer.value, pport, lport});
  return it == by_tuple_.end() ? nullptr : conn_for(it->second);
}

std::uint16_t TcpEngine::ephemeral_port(Ipv4Addr local, Ipv4Addr peer,
                                        std::uint16_t pport) {
  for (int guard = 0; guard < 65536; ++guard) {
    const std::uint16_t p = next_port_++;
    if (next_port_ < 30000) next_port_ = 30000;
    if (listen_ports_.count(p)) continue;
    // The inbound 4-tuple must steer back to this replica; the hash
    // partitions the ephemeral space among shards, so two replicas can
    // never mint the same tuple either.
    if (env_.shard_count > 1 &&
        steer_shard(peer, local, pport, p, env_.shard_count) != env_.shard) {
      continue;
    }
    bool used = false;
    for (const auto& [key, sock] : by_tuple_) {
      if (key.lport == p) {
        used = true;
        break;
      }
    }
    if (!used) return p;
  }
  return 0;
}

std::uint32_t TcpEngine::next_isn() { return isn_ += 0x10001; }

// --- checkpoint plumbing ------------------------------------------------------------

TcpCheckpointSink::Scalars TcpEngine::ckpt_scalars_of(const Conn& c) const {
  TcpCheckpointSink::Scalars s;
  s.state = c.state;
  s.snd_una = c.snd_una;
  s.snd_wnd = c.snd_wnd;
  s.rcv_nxt = c.rcv_nxt;
  s.peer_fin = c.peer_fin;
  s.fin_queued = c.fin_queued;
  // Congestion-control snapshot: restored connections resume at their
  // learned window and RTT instead of the conservative restart.
  if (c.cc != nullptr) {
    std::byte buf[cc::kCcBlobMax];
    const std::size_t n = c.cc->serialize(buf);
    if (n > 0 && n <= sizeof s.cc.data) {
      s.cc.algo = static_cast<std::uint8_t>(c.cc->algo());
      s.cc.len = static_cast<std::uint8_t>(n);
      s.cc.srtt = c.srtt;
      s.cc.rttvar = c.rttvar;
      s.cc.rto = c.rto;
      std::memcpy(s.cc.data, buf, n);
    }
  }
  return s;
}

void TcpEngine::ckpt_touch(Conn& c) {
  if (ckpt_on(c)) env_.ckpt->ckpt_scalars(c.sock, ckpt_scalars_of(c));
}

void TcpEngine::ckpt_establish(Conn& c, bool accept_pending) {
  if (!opts_.checkpoint || env_.ckpt == nullptr) return;
  TcpCheckpointSink::ConnMeta meta;
  meta.sock = c.sock;
  meta.local = c.local;
  meta.lport = c.lport;
  meta.peer = c.peer;
  meta.pport = c.pport;
  meta.parent_listener = c.parent_listener;
  meta.accept_pending = accept_pending;
  c.ckpt = env_.ckpt->ckpt_established(meta, ckpt_scalars_of(c));
}

void TcpEngine::drop_checkpoint(SockId s) {
  Conn* c = conn_for(s);
  if (c != nullptr) c->ckpt = false;
}

void TcpEngine::park_checkpointed() {
  // The process is dying.  Checkpointed connections leave their chunk
  // references to the loan ledger and the checkpoint pages (which is where
  // restore_conn() re-adopts them) — dropping the queues here without a
  // release is the ownership hand-off, not a leak.  Everything else (the
  // embryos, listeners, un-checkpointed connections, in-flight headers)
  // tears down exactly as before.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& c = it->second;
    if (!ckpt_on(c)) {
      ++it;
      continue;
    }
    if (c.rto_timer) env_.timers->cancel(c.rto_timer);
    if (c.ack_timer) env_.timers->cancel(c.ack_timer);
    if (c.timewait_timer) env_.timers->cancel(c.timewait_timer);
    if (c.pace_timer) env_.timers->cancel(c.pace_timer);
    c.sndq.clear();
    c.rcvq.clear();
    // Reassembly frames are NOT on the loan ledger (never checkpointed):
    // release them directly — the dying host has no handler context for
    // rx_done IPC, and the peer retransmits them after the restore.
    for (auto& [seq, rc] : c.ooo) env_.pools->release(rc.frame);
    c.ooo.clear();
    by_tuple_.erase(ConnKey{c.peer.value, c.pport, c.lport});
    it = conns_.erase(it);
  }
  env_.ckpt = nullptr;  // the sink object dies with the host incarnation
}

// --- socket API -------------------------------------------------------------------

SockId TcpEngine::open() {
  const SockId id = next_sock_++;
  embryos_.emplace(id, TupleInfo{});
  return id;
}

bool TcpEngine::bind(SockId s, Ipv4Addr local, std::uint16_t port) {
  auto it = embryos_.find(s);
  if (it == embryos_.end()) return false;
  if (port != 0 && listen_ports_.count(port)) return false;
  it->second.local = local;
  it->second.lport = port;
  return true;
}

bool TcpEngine::listen(SockId s, int backlog) {
  auto it = embryos_.find(s);
  if (it == embryos_.end()) return false;
  if (it->second.lport == 0) return false;  // must bind first
  Listener l;
  l.sock = s;
  l.addr = it->second.local;
  l.port = it->second.lport;
  l.backlog = std::max(1, backlog);
  listen_ports_[l.port] = s;
  listeners_.emplace(s, std::move(l));
  embryos_.erase(it);
  return true;
}

std::optional<SockId> TcpEngine::accept(SockId s) {
  auto it = listeners_.find(s);
  if (it == listeners_.end() || it->second.acceptq.empty())
    return std::nullopt;
  const SockId child = it->second.acceptq.front();
  it->second.acceptq.pop_front();
  Conn* c = conn_for(child);
  if (c != nullptr && ckpt_on(*c)) env_.ckpt->ckpt_accepted(child);
  return child;
}

bool TcpEngine::connect(SockId s, Ipv4Addr dst, std::uint16_t port) {
  auto it = embryos_.find(s);
  if (it == embryos_.end()) return false;
  Ipv4Addr local = it->second.local;
  if (local.is_zero() && env_.src_for) local = env_.src_for(dst);
  std::uint16_t lport = it->second.lport;
  if (lport == 0) lport = ephemeral_port(local, dst, port);
  if (lport == 0) return false;
  if (conn_by_tuple(dst, port, lport) != nullptr) return false;
  embryos_.erase(it);

  Conn c;
  c.sock = s;
  c.state = TcpState::SynSent;
  c.local = local;
  c.lport = lport;
  c.peer = dst;
  c.pport = port;
  c.iss = next_isn();
  c.snd_una = c.iss;
  c.snd_nxt = c.iss;        // SYN not yet on the wire
  c.snd_buf_end = c.iss + 1;  // SYN occupies one sequence number
  c.cc = make_cc(lport, port);
  sync_cc(c);
  c.rto = kRtoInitial;
  c.snd_wnd = kMss;  // until the peer tells us
  conns_.emplace(s, std::move(c));
  by_tuple_[ConnKey{dst.value, port, lport}] = s;

  Conn& ref = conns_[s];
  send_segment(ref, ref.iss, 0, tcpflag::kSyn, false);
  ref.snd_nxt = ref.iss + 1;
  ref.high_water = ref.snd_nxt;
  ref.syn_attempts = 1;
  arm_rto(ref);
  return true;
}

std::size_t TcpEngine::send_space(SockId s) const {
  const Conn* c = conn_for(s);
  if (c == nullptr) return 0;
  if (c->state != TcpState::Established && c->state != TcpState::CloseWait)
    return 0;
  if (c->fin_queued) return 0;
  return c->sndq_bytes >= opts_.sndbuf_max ? 0
                                           : opts_.sndbuf_max - c->sndq_bytes;
}

chan::RichPtr TcpEngine::alloc_payload(std::uint32_t len) {
  return env_.buf_pool->alloc(len);
}

bool TcpEngine::send(SockId s, chan::RichPtr payload) {
  Conn* c = conn_for(s);
  if (c == nullptr || !payload.valid() ||
      (c->state != TcpState::Established && c->state != TcpState::CloseWait) ||
      c->fin_queued || c->sndq_bytes + payload.length > opts_.sndbuf_max) {
    if (c != nullptr && payload.valid() &&
        c->sndq_bytes + payload.length > opts_.sndbuf_max) {
      c->was_send_blocked = true;  // Writable fires when ACKs free space
    }
    if (payload.valid()) release_payload(payload);
    return false;
  }
  SendChunk sc;
  sc.seq = c->snd_buf_end;
  sc.chunk = payload;
  c->snd_buf_end += payload.length;
  c->sndq_bytes += payload.length;
  c->sndq.push_back(sc);
  if (ckpt_on(*c)) {
    env_.ckpt->ckpt_sndq_push(c->sock, sc.chunk, sc.seq);
    ckpt_touch(*c);
  }
  tcp_output(*c);
  return true;
}

std::size_t TcpEngine::recv_available(SockId s) const {
  const Conn* c = conn_for(s);
  return c == nullptr ? 0 : c->rcvq_bytes;
}

std::size_t TcpEngine::peek(SockId s, std::span<PeekChunk> out) const {
  const Conn* c = conn_for(s);
  if (c == nullptr || out.empty()) return 0;
  std::size_t n = 0;
  for (const RecvChunk& rc : c->rcvq) {
    if (n == out.size()) break;
    const std::uint16_t avail = rc.len - rc.consumed;
    if (avail == 0) continue;
    PeekChunk pc;
    pc.frame = rc.frame;
    pc.data = rc.frame;
    pc.data.offset = rc.frame.offset + rc.offset + rc.consumed;
    pc.data.length = avail;
    out[n++] = pc;
  }
  return n;
}

std::size_t TcpEngine::consume(SockId s, std::size_t n) {
  Conn* c = conn_for(s);
  if (c == nullptr) return 0;
  std::size_t done = 0;
  const std::uint32_t space_before = rcv_space(*c);
  while (done < n && !c->rcvq.empty()) {
    RecvChunk& rc = c->rcvq.front();
    const std::size_t avail = rc.len - rc.consumed;
    const std::size_t take = std::min(n - done, avail);
    rc.consumed += static_cast<std::uint16_t>(take);
    done += take;
    c->rcvq_bytes -= static_cast<std::uint32_t>(take);
    if (rc.consumed == rc.len) {
      env_.rx_done(rc.frame);
      c->rcvq.pop_front();
    }
  }
  if (done > 0 && ckpt_on(*c)) {
    env_.ckpt->ckpt_rcvq_consume(c->sock, done);
    ckpt_touch(*c);
  }
  // Window update: if the window was effectively closed and just reopened,
  // tell the peer (we have no persist timer; see DESIGN.md).
  if (done > 0 && space_before < kMss && rcv_space(*c) >= kMss &&
      c->state == TcpState::Established) {
    send_ack(*c);
  }
  return done;
}

void TcpEngine::want_writable(SockId s) {
  Conn* c = conn_for(s);
  if (c != nullptr) c->was_send_blocked = true;
}

std::size_t TcpEngine::recv(SockId s, std::span<std::byte> out) {
  std::size_t copied = 0;
  for (;;) {
    PeekChunk pcs[8];
    const std::size_t k = peek(s, pcs);
    if (k == 0) break;
    std::size_t round = 0;
    for (std::size_t i = 0; i < k && copied < out.size(); ++i) {
      const std::size_t want = out.size() - copied;
      const std::size_t n =
          std::min(want, static_cast<std::size_t>(pcs[i].data.length));
      auto bytes = env_.pools->read(pcs[i].data);
      if (bytes.size() >= n) {
        std::memcpy(out.data() + copied, bytes.data(), n);
      }
      copied += n;
      round += n;
    }
    if (round == 0) break;
    consume(s, round);
    if (copied == out.size()) break;
  }
  return copied;
}

bool TcpEngine::close(SockId s) {
  if (embryos_.erase(s) > 0) return true;
  auto lit = listeners_.find(s);
  if (lit != listeners_.end()) {
    // Children waiting in the accept queue are reset.
    for (SockId child : lit->second.acceptq) destroy_conn(child, false);
    // Only unmap the port if this listener owns it: after a replicated
    // port collision the map may name a different, still-live listener.
    auto pit = listen_ports_.find(lit->second.port);
    if (pit != listen_ports_.end() && pit->second == s)
      listen_ports_.erase(pit);
    listeners_.erase(lit);
    return true;
  }
  Conn* c = conn_for(s);
  if (c == nullptr) return false;
  switch (c->state) {
    case TcpState::SynSent:
      destroy_conn(s, false);
      return true;
    case TcpState::SynRcvd:
    case TcpState::Established:
      c->fin_queued = true;
      c->state = TcpState::FinWait1;
      ckpt_touch(*c);
      tcp_output(*c);
      return true;
    case TcpState::CloseWait:
      c->fin_queued = true;
      c->state = TcpState::LastAck;
      ckpt_touch(*c);
      tcp_output(*c);
      return true;
    default:
      return true;  // already closing
  }
}

void TcpEngine::abort(SockId s) {
  Conn* c = conn_for(s);
  if (c == nullptr) {
    embryos_.erase(s);
    close(s);
    return;
  }
  send_rst(c->local, c->peer, c->lport, c->pport, c->snd_nxt, 0, false);
  destroy_conn(s, false);
}

TcpState TcpEngine::state(SockId s) const {
  const Conn* c = conn_for(s);
  if (c != nullptr) return c->state;
  if (listeners_.count(s)) return TcpState::Listen;
  if (embryos_.count(s)) return TcpState::Closed;
  return TcpState::Closed;
}

std::optional<TcpEngine::TupleInfo> TcpEngine::tuple(SockId s) const {
  const Conn* c = conn_for(s);
  if (c == nullptr) return std::nullopt;
  return TupleInfo{c->local, c->lport, c->peer, c->pport};
}

// --- window helpers ---------------------------------------------------------------

std::uint32_t TcpEngine::rcv_space(const Conn& c) const {
  return c.rcvq_bytes >= opts_.rcvbuf_max ? 0
                                          : opts_.rcvbuf_max - c.rcvq_bytes;
}

std::uint16_t TcpEngine::window_field(const Conn& c) const {
  const std::uint32_t scaled = rcv_space(c) >> kWscale;
  return static_cast<std::uint16_t>(std::min<std::uint32_t>(scaled, 65535));
}

// --- segment emission ---------------------------------------------------------------

void TcpEngine::send_segment(Conn& c, std::uint32_t seq, std::uint32_t len,
                             std::uint8_t flags, bool retransmission) {
  chan::RichPtr hdr = env_.buf_pool->alloc(kTcpHeaderLen);
  if (!hdr.valid()) return;  // pool exhausted; RTO recovers
  auto view = env_.buf_pool->write_view(hdr);
  ByteWriter w{view};
  TcpHeader h;
  h.src_port = c.lport;
  h.dst_port = c.pport;
  h.seq = seq;
  h.ack = (flags & tcpflag::kAck) ? c.rcv_nxt : 0;
  h.flags = flags;
  h.window = window_field(c);
  h.serialize(w);

  TxSeg seg;
  seg.l4_header = hdr;
  seg.src = c.local;
  seg.dst = c.peer;
  seg.protocol = kProtoTcp;
  seg.offload.tso = opts_.tso && len > kMss;
  seg.offload.csum_offload = true;  // IP decides; flag travels with the frame
  seg.offload.mss = kMss;

  // Gather payload refs [seq, seq+len) as sub-ranges of send chunks.
  if (len > 0) {
    std::uint32_t remaining = len;
    for (const SendChunk& sc : c.sndq) {
      if (remaining == 0) break;
      const std::uint32_t chunk_end = sc.seq + sc.chunk.length;
      const std::uint32_t want_start = seq + (len - remaining);
      if (seq_leq(chunk_end, want_start)) continue;  // fully before range
      if (seq_lt(want_start, sc.seq)) break;         // gap (cannot happen)
      const std::uint32_t skip = want_start - sc.seq;
      const std::uint32_t take =
          std::min(remaining, sc.chunk.length - skip);
      chan::RichPtr sub = sc.chunk;
      sub.offset += skip;
      sub.length = take;
      seg.payload.push_back(sub);
      remaining -= take;
    }
    assert(remaining == 0 && "send range not covered by sndq");
  }

  const std::uint64_t cookie = inflight_.add(InFlight{hdr, {}});
  ++stats_.segs_out;
  if (flags & tcpflag::kAck) ++stats_.acks_out;
  if (retransmission) {
    stats_.bytes_retx += len;
  } else {
    stats_.bytes_out += len;
  }

  // RTT sampling (Karn's rule: never sample retransmitted segments).
  if (!retransmission && len > 0 && !c.rtt_sampling) {
    c.rtt_sampling = true;
    c.rtt_seq = seq + len;
    c.rtt_sent_at = env_.clock->now();
  }
  c.segs_since_ack = 0;
  if (c.ack_timer) {
    env_.timers->cancel(c.ack_timer);
    c.ack_timer = 0;
  }
  output(std::move(seg), cookie);
}

void TcpEngine::output(TxSeg&& seg, std::uint64_t cookie) {
  const chan::RichPtr desc = env_.output(std::move(seg), cookie);
  if (InFlight* f = inflight_.find(cookie)) f->desc = desc;
}

void TcpEngine::free_in_flight(const InFlight& f) {
  if (f.desc.valid()) env_.buf_pool->release(f.desc);
  env_.buf_pool->release(f.hdr);
}

void TcpEngine::send_ack(Conn& c) {
  send_segment(c, c.snd_nxt, 0, tcpflag::kAck, false);
}

void TcpEngine::send_rst(Ipv4Addr src, Ipv4Addr dst, std::uint16_t sport,
                         std::uint16_t dport, std::uint32_t seq,
                         std::uint32_t ack, bool with_ack) {
  chan::RichPtr hdr = env_.buf_pool->alloc(kTcpHeaderLen);
  if (!hdr.valid()) return;
  auto view = env_.buf_pool->write_view(hdr);
  ByteWriter w{view};
  TcpHeader h;
  h.src_port = sport;
  h.dst_port = dport;
  h.seq = seq;
  h.ack = ack;
  h.flags = static_cast<std::uint8_t>(tcpflag::kRst |
                                      (with_ack ? tcpflag::kAck : 0));
  h.window = 0;
  h.serialize(w);

  TxSeg seg;
  seg.l4_header = hdr;
  seg.src = src;
  seg.dst = dst;
  seg.protocol = kProtoTcp;
  const std::uint64_t cookie = inflight_.add(InFlight{hdr, {}});
  ++stats_.resets_out;
  ++stats_.segs_out;
  output(std::move(seg), cookie);
}

void TcpEngine::seg_done(std::uint64_t cookie, bool sent) {
  (void)sent;  // data loss is repaired by retransmission
  // A stale completion, from before an IP restart, finds nothing.
  if (auto f = inflight_.take(cookie)) free_in_flight(*f);
}

void TcpEngine::on_ip_restart() {
  // Completions for in-flight segments will never arrive: free their
  // headers and descriptors, oldest first.
  inflight_.abort_if([](const InFlight&) { return true; },
                     [this](std::uint64_t, InFlight&& f) { free_in_flight(f); });
  // Resubmit: anything not ACKed may or may not have reached the wire.  We
  // prefer duplicates over RTO stalls (Section V-D "IP"): go back to
  // snd_una and retransmit immediately.
  for (auto& [sock, c] : conns_) {
    if (c.state != TcpState::Established && c.state != TcpState::FinWait1 &&
        c.state != TcpState::CloseWait && c.state != TcpState::LastAck)
      continue;
    if (seq_lt(c.snd_una, c.snd_nxt)) {
      c.snd_nxt = c.snd_una;
      c.rtt_sampling = false;
      tcp_output(c);
      arm_rto(c);
    }
  }
}

void TcpEngine::on_path_restored() {
  for (auto& [sock, c] : conns_) {
    if (c.state != TcpState::Established && c.state != TcpState::FinWait1 &&
        c.state != TcpState::CloseWait && c.state != TcpState::LastAck)
      continue;
    if (!seq_lt(c.snd_una, c.snd_nxt)) continue;
    c.rto = kRtoInitial;
    c.snd_nxt = c.snd_una;
    c.in_recovery = false;
    c.dup_acks = 0;
    c.rtt_sampling = false;
    tcp_output(c);
    arm_rto(c);
  }
}

// --- output engine -----------------------------------------------------------------

void TcpEngine::tcp_output(Conn& c) {
  if (c.state != TcpState::Established && c.state != TcpState::CloseWait &&
      c.state != TcpState::FinWait1 && c.state != TcpState::LastAck &&
      c.state != TcpState::Closing)
    return;

  const std::uint32_t fin_seq = c.snd_buf_end;  // FIN sits after the stream
  // Rate-based controllers pace data segments: a segment may not leave
  // before pace_next; the pacing timer resumes this function at that
  // instant.  Loss-based modules return 0 and skip all of this.
  const std::uint64_t pace_rate = c.cc != nullptr ? c.cc->pacing_rate() : 0;
  const sim::Time now = env_.clock->now();
  bool sent_any = false;
  for (;;) {
    const std::uint32_t wnd = std::min(c.cwnd, c.snd_wnd);
    const std::uint32_t inflight = flight_size(c);
    if (inflight >= wnd) break;
    const std::uint32_t wnd_avail = wnd - inflight;

    // Bytes of queued payload not yet sent.
    const std::uint32_t unsent =
        seq_lt(c.snd_nxt, fin_seq) ? fin_seq - c.snd_nxt : 0;
    const std::uint32_t max_seg = opts_.tso ? kTsoMaxPayload : kMss;
    const std::uint32_t len =
        std::min({unsent, wnd_avail, max_seg});

    const bool send_fin = c.fin_queued && !seq_lt(c.snd_nxt + len, fin_seq) &&
                          seq_leq(c.snd_nxt, fin_seq);
    if (len == 0 && !send_fin) break;
    if (pace_rate > 0 && len > 0 && c.pace_next > now) {
      if (c.pace_timer == 0) {
        ++stats_.pacing_delays;
        const SockId sock = c.sock;
        c.pace_timer =
            env_.timers->schedule(c.pace_next - now, [this, sock] {
              Conn* pc = conn_for(sock);
              if (pc == nullptr) return;
              pc->pace_timer = 0;
              tcp_output(*pc);
            });
      }
      break;
    }
    // Anything below the high-water mark has been on the wire before.
    const bool retx = seq_lt(c.snd_nxt, c.high_water);

    std::uint8_t flags = tcpflag::kAck;
    if (len > 0) flags |= tcpflag::kPsh;
    if (send_fin) flags |= tcpflag::kFin;
    send_segment(c, c.snd_nxt, len, flags, retx);
    c.snd_nxt += len + (send_fin ? 1 : 0);
    if (seq_lt(c.high_water, c.snd_nxt)) c.high_water = c.snd_nxt;
    if (len > 0) {
      if (pace_rate > 0) {
        const sim::Time gap = std::max<sim::Time>(
            1, static_cast<sim::Time>(static_cast<std::uint64_t>(len) *
                                      sim::kSecond / pace_rate));
        c.pace_next = std::max(c.pace_next, now) + gap;
      }
      c.cc->on_sent(len, flight_size(c), now);
    }
    sent_any = true;
    if (send_fin) break;
  }
  if (sent_any && c.rto_timer == 0 && seq_lt(c.snd_una, c.snd_nxt))
    arm_rto(c);
}

// --- timers ------------------------------------------------------------------------

void TcpEngine::arm_rto(Conn& c) {
  cancel_rto(c);
  const SockId sock = c.sock;
  c.rto_timer = env_.timers->schedule(c.rto, [this, sock] { on_rto(sock); });
}

void TcpEngine::cancel_rto(Conn& c) {
  if (c.rto_timer) {
    env_.timers->cancel(c.rto_timer);
    c.rto_timer = 0;
  }
}

void TcpEngine::on_rto(SockId sock) {
  Conn* c = conn_for(sock);
  if (c == nullptr) return;
  c->rto_timer = 0;

  if (c->state == TcpState::SynSent || c->state == TcpState::SynRcvd) {
    if (++c->syn_attempts > kSynRetries) {
      destroy_conn(sock, true);
      return;
    }
    const std::uint8_t flags =
        c->state == TcpState::SynSent
            ? tcpflag::kSyn
            : static_cast<std::uint8_t>(tcpflag::kSyn | tcpflag::kAck);
    send_segment(*c, c->iss, 0, flags, true);
    c->rto = std::min(c->rto * 2, kRtoMax);
    arm_rto(*c);
    return;
  }
  if (seq_leq(c->snd_nxt, c->snd_una) && !c->fin_queued) return;

  ++stats_.rtos;
  // Timeout response is the module's call (Reno collapses to one segment;
  // BBR keeps its model).  Flight is sampled before the go-back-N rewind.
  c->cc->on_rto(flight_size(*c), env_.clock->now());
  sync_cc(*c);
  c->snd_nxt = c->snd_una;
  c->dup_acks = 0;
  c->in_recovery = false;
  c->rtt_sampling = false;
  c->rto = std::min(c->rto * 2, kRtoMax);
  tcp_output(*c);
  arm_rto(*c);
}

void TcpEngine::schedule_ack(Conn& c) {
  ++c.segs_since_ack;
  if (c.segs_since_ack >= 2) {
    send_ack(c);
    return;
  }
  if (c.ack_timer == 0) {
    const SockId sock = c.sock;
    c.ack_timer = env_.timers->schedule(kDelayedAck, [this, sock] {
      Conn* cc = conn_for(sock);
      if (cc == nullptr) return;
      cc->ack_timer = 0;
      if (cc->segs_since_ack > 0) send_ack(*cc);
    });
  }
}

// --- ACK processing -----------------------------------------------------------------

void TcpEngine::process_ack(Conn& c, const TcpHeader& h) {
  const std::uint32_t ack = h.ack;
  const sim::Time now = env_.clock->now();
  // Update the peer's advertised window (scaled; see DESIGN.md).
  c.snd_wnd = static_cast<std::uint32_t>(h.window) << kWscale;

  // Accept ACKs up to the high-water mark: after an RTO rewound snd_nxt,
  // ACKs for data sent before the rewind are still valid.
  if (seq_lt(c.snd_una, ack) && seq_leq(ack, c.high_water)) {
    const std::uint32_t acked = ack - c.snd_una;
    c.snd_una = ack;
    if (seq_lt(c.snd_nxt, ack)) c.snd_nxt = ack;

    // RTT sample (Jacobson/Karn).
    if (c.rtt_sampling && seq_leq(c.rtt_seq, ack)) {
      const sim::Time m = now - c.rtt_sent_at;
      if (c.srtt == 0) {
        c.srtt = m;
        c.rttvar = m / 2;
      } else {
        const sim::Time err = m > c.srtt ? m - c.srtt : c.srtt - m;
        c.rttvar = (3 * c.rttvar + err) / 4;
        c.srtt = (7 * c.srtt + m) / 8;
      }
      c.rto = std::clamp(c.srtt + 4 * c.rttvar, opts_.rto_min, kRtoMax);
      c.rtt_sampling = false;
      c.cc->on_rtt_sample(m, now);
    }

    // Congestion control: the engine keeps the NewReno recovery machinery
    // (RFC 6582 — partial ACKs during fast recovery retransmit the next
    // hole immediately instead of waiting for an RTO); the window response
    // to each event is the module's.
    if (c.in_recovery) {
      if (seq_lt(ack, c.recover)) {
        // Partial ACK: retransmit the segment at the new snd_una.
        const bool fin_at_una = c.fin_queued && ack == c.snd_buf_end;
        if (fin_at_una) {
          send_segment(c, ack, 0,
                       static_cast<std::uint8_t>(tcpflag::kAck |
                                                 tcpflag::kFin),
                       true);
        } else if (seq_lt(ack, c.snd_buf_end)) {
          // Fill up to two holes per partial ACK: without SACK this is the
          // only lever against long loss runs (TSO bursts can overrun a
          // receiver ring and punch hundreds of holes).
          std::uint32_t at = ack;
          for (int k = 0; k < 2 && seq_lt(at, c.snd_buf_end); ++k) {
            const std::uint32_t n =
                std::min<std::uint32_t>(kMss, c.snd_buf_end - at);
            send_segment(
                c, at, n,
                static_cast<std::uint8_t>(tcpflag::kAck | tcpflag::kPsh),
                true);
            at += n;
          }
        }
        c.cc->on_partial_ack(acked, now);
        sync_cc(c);
        arm_rto(c);
      } else {
        c.in_recovery = false;
        c.cc->on_exit_recovery(now);
        sync_cc(c);
        c.dup_acks = 0;
      }
    } else {
      c.cc->on_ack(acked, flight_size(c), now);
      sync_cc(c);
      c.dup_acks = 0;
    }

    // Drop fully-ACKed chunks; their payload is finally freed (Section V-C:
    // the owner frees, and only when nobody needs the bytes for retransmit).
    while (!c.sndq.empty()) {
      const SendChunk& front = c.sndq.front();
      if (!seq_leq(front.seq + front.chunk.length, ack)) break;
      c.sndq_bytes -= front.chunk.length;
      if (ckpt_on(c)) env_.ckpt->ckpt_sndq_pop(c.sock, front.chunk);
      release_payload(front.chunk);
      c.sndq.pop_front();
    }

    if (seq_leq(c.snd_nxt, c.snd_una)) {
      cancel_rto(c);
    } else {
      arm_rto(c);
    }

    if (c.was_send_blocked && send_space(c.sock) > 0) {
      c.was_send_blocked = false;
      notify(c.sock, TcpEvent::Writable);
    }
  } else if (ack == c.snd_una && seq_lt(c.snd_una, c.snd_nxt)) {
    // Duplicate ACK.
    ++stats_.dup_acks_in;
    ++c.dup_acks;
    if (!c.in_recovery && c.dup_acks == 3) {
      ++stats_.fast_retransmits;
      c.in_recovery = true;
      c.recover = c.snd_nxt;
      c.cc->on_enter_recovery(flight_size(c), now);
      sync_cc(c);
      const std::uint32_t resend =
          std::min<std::uint32_t>(kMss, c.snd_nxt - c.snd_una);
      // The retransmitted range may include the FIN.
      const bool fin_at_una = c.fin_queued && c.snd_una == c.snd_buf_end;
      if (fin_at_una) {
        send_segment(c, c.snd_una, 0,
                     static_cast<std::uint8_t>(tcpflag::kAck | tcpflag::kFin),
                     true);
      } else if (resend > 0) {
        send_segment(c, c.snd_una, std::min(resend, c.snd_buf_end - c.snd_una),
                     static_cast<std::uint8_t>(tcpflag::kAck | tcpflag::kPsh),
                     true);
      }
      arm_rto(c);
    } else if (c.in_recovery) {
      c.cc->on_dup_ack(true, flight_size(c), now);
      sync_cc(c);
      tcp_output(c);
    }
  }
  ckpt_touch(c);
}

// --- input -------------------------------------------------------------------------

void TcpEngine::input(L4Packet&& pkt) {
  ++stats_.segs_in;
  auto bytes = env_.pools->read(pkt.frame);
  if (bytes.size() <
          static_cast<std::size_t>(pkt.l4_offset) + kTcpHeaderLen ||
      pkt.l4_length < kTcpHeaderLen) {
    env_.rx_done(pkt.frame);
    return;
  }
  ByteReader r{bytes.subspan(pkt.l4_offset, pkt.l4_length)};
  auto h = TcpHeader::parse(r);
  if (!h) {
    env_.rx_done(pkt.frame);
    return;
  }
  const std::uint16_t data_off =
      static_cast<std::uint16_t>(pkt.l4_offset + r.consumed());
  const std::uint16_t data_len =
      static_cast<std::uint16_t>(pkt.l4_length - r.consumed());

  Conn* c = conn_by_tuple(pkt.src, h->src_port, h->dst_port);
  if (c == nullptr) {
    // New connection?
    auto lp = listen_ports_.find(h->dst_port);
    if (lp != listen_ports_.end() && h->has(tcpflag::kSyn) &&
        !h->has(tcpflag::kAck)) {
      Listener& l = listeners_[lp->second];
      if (static_cast<int>(l.acceptq.size()) >= l.backlog) {
        env_.rx_done(pkt.frame);
        return;  // silently drop; peer retries
      }
      const SockId child = next_sock_++;
      Conn nc;
      nc.sock = child;
      nc.state = TcpState::SynRcvd;
      nc.local = l.addr.is_zero() ? pkt.dst : l.addr;
      nc.lport = l.port;
      nc.peer = pkt.src;
      nc.pport = h->src_port;
      nc.irs = h->seq;
      nc.rcv_nxt = h->seq + 1;
      nc.iss = next_isn();
      nc.snd_una = nc.iss;
      nc.snd_nxt = nc.iss + 1;
      nc.snd_buf_end = nc.iss + 1;
      nc.high_water = nc.iss + 1;
      nc.cc = make_cc(l.port, h->src_port);
      sync_cc(nc);
      nc.rto = kRtoInitial;
      nc.snd_wnd = static_cast<std::uint32_t>(h->window) << kWscale;
      nc.parent_listener = l.sock;
      conns_.emplace(child, std::move(nc));
      by_tuple_[ConnKey{pkt.src.value, h->src_port, h->dst_port}] = child;
      Conn& ref = conns_[child];
      send_segment(ref, ref.iss, 0,
                   static_cast<std::uint8_t>(tcpflag::kSyn | tcpflag::kAck),
                   false);
      ref.syn_attempts = 1;
      arm_rto(ref);
    } else if (!h->has(tcpflag::kRst)) {
      // No socket: refuse.
      if (h->has(tcpflag::kAck)) {
        send_rst(pkt.dst, pkt.src, h->dst_port, h->src_port, h->ack, 0,
                 false);
      } else {
        send_rst(pkt.dst, pkt.src, h->dst_port, h->src_port, 0,
                 h->seq + data_len + (h->has(tcpflag::kSyn) ? 1 : 0), true);
      }
    }
    env_.rx_done(pkt.frame);
    return;
  }

  // --- existing connection ---
  if (h->has(tcpflag::kRst)) {
    const bool in_window =
        seq_leq(c->rcv_nxt, h->seq) || c->state == TcpState::SynSent;
    env_.rx_done(pkt.frame);
    if (in_window) destroy_conn(c->sock, true);
    return;
  }

  switch (c->state) {
    case TcpState::SynSent:
      if (h->has(tcpflag::kSyn) && h->has(tcpflag::kAck) &&
          h->ack == c->iss + 1) {
        c->irs = h->seq;
        c->rcv_nxt = h->seq + 1;
        c->snd_una = h->ack;
        c->snd_wnd = static_cast<std::uint32_t>(h->window) << kWscale;
        c->state = TcpState::Established;
        c->rto = kRtoInitial;
        cancel_rto(*c);
        ++stats_.conns_established;
        ckpt_establish(*c, /*accept_pending=*/false);
        send_ack(*c);
        notify(c->sock, TcpEvent::Connected);
        tcp_output(*c);
      }
      env_.rx_done(pkt.frame);
      return;

    case TcpState::SynRcvd:
      if (h->has(tcpflag::kSyn) && !h->has(tcpflag::kAck)) {
        // Retransmitted SYN: re-answer.
        send_segment(*c, c->iss, 0,
                     static_cast<std::uint8_t>(tcpflag::kSyn | tcpflag::kAck),
                     true);
        env_.rx_done(pkt.frame);
        return;
      }
      if (h->has(tcpflag::kAck) && h->ack == c->iss + 1) {
        c->snd_una = h->ack;
        c->snd_wnd = static_cast<std::uint32_t>(h->window) << kWscale;
        c->state = TcpState::Established;
        c->rto = kRtoInitial;
        cancel_rto(*c);
        ++stats_.conns_established;
        ckpt_establish(*c, /*accept_pending=*/true);
        Listener* l = nullptr;
        auto lit = listeners_.find(c->parent_listener);
        if (lit != listeners_.end()) l = &lit->second;
        if (l != nullptr) {
          l->acceptq.push_back(c->sock);
          notify(l->sock, TcpEvent::AcceptReady);
        }
        // Fall through into established processing for piggybacked data.
        break;
      }
      env_.rx_done(pkt.frame);
      return;

    default:
      break;
  }

  // ACK handling for synchronized states.
  if (h->has(tcpflag::kAck)) {
    process_ack(*c, *h);

    // Did our FIN get ACKed?
    const bool fin_acked =
        c->fin_queued && c->snd_una == c->snd_buf_end + 1;
    if (fin_acked) {
      if (c->state == TcpState::FinWait1) {
        c->state = TcpState::FinWait2;
        ckpt_touch(*c);
      } else if (c->state == TcpState::Closing) {
        enter_time_wait(*c);
      } else if (c->state == TcpState::LastAck) {
        env_.rx_done(pkt.frame);
        destroy_conn(c->sock, false);
        return;
      }
    }
  }

  // Data acceptance (in-order, or parked in the reassembly queue).
  bool frame_retained = false;
  if (data_len > 0) {
    frame_retained = accept_data(*c, pkt, *h, data_off, data_len);
  }

  // ACKs clock the sender: freed window and cwnd growth admit new segments.
  if (h->has(tcpflag::kAck)) tcp_output(*c);

  // FIN processing (only when all data up to the FIN has arrived).
  if (h->has(tcpflag::kFin) && h->seq + data_len == c->rcv_nxt &&
      !c->peer_fin) {
    c->peer_fin = true;
    c->rcv_nxt += 1;
    send_ack(*c);
    switch (c->state) {
      case TcpState::Established:
        c->state = TcpState::CloseWait;
        notify(c->sock, TcpEvent::PeerClosed);
        break;
      case TcpState::FinWait1:
        c->state = TcpState::Closing;
        notify(c->sock, TcpEvent::PeerClosed);
        break;
      case TcpState::FinWait2:
        notify(c->sock, TcpEvent::PeerClosed);
        enter_time_wait(*c);
        break;
      default:
        break;
    }
    if (c->state != TcpState::TimeWait) ckpt_touch(*c);
  }

  if (!frame_retained) env_.rx_done(pkt.frame);
}

void TcpEngine::input_agg(std::vector<L4Packet>&& segs) {
  if (segs.empty()) return;

  // Validate the fast-path preconditions: an established connection, every
  // member a plain in-window data segment, seq-consecutive, starting
  // exactly at rcv_nxt, and the whole aggregate fitting the receive
  // window.  IP only merges same-flow consecutive segments, but the
  // connection-level facts (rcv_nxt, window, state) live here.
  struct Parsed {
    TcpHeader h;
    std::uint16_t data_off = 0;
    std::uint16_t data_len = 0;
  };
  std::vector<Parsed> parsed;
  parsed.reserve(segs.size());
  Conn* c = nullptr;
  std::uint32_t total = 0;
  bool fast = true;
  for (std::size_t i = 0; i < segs.size() && fast; ++i) {
    const L4Packet& pkt = segs[i];
    auto bytes = env_.pools->read(pkt.frame);
    if (bytes.size() <
            static_cast<std::size_t>(pkt.l4_offset) + kTcpHeaderLen ||
        pkt.l4_length < kTcpHeaderLen) {
      fast = false;
      break;
    }
    ByteReader r{bytes.subspan(pkt.l4_offset, pkt.l4_length)};
    auto h = TcpHeader::parse(r);
    if (!h) {
      fast = false;
      break;
    }
    Parsed p;
    p.h = *h;
    p.data_off = static_cast<std::uint16_t>(pkt.l4_offset + r.consumed());
    p.data_len = static_cast<std::uint16_t>(pkt.l4_length - r.consumed());
    if (p.data_len == 0 ||
        (p.h.flags & ~(tcpflag::kAck | tcpflag::kPsh)) != 0) {
      fast = false;
      break;
    }
    if (i == 0) {
      c = conn_by_tuple(segs[0].src, p.h.src_port, p.h.dst_port);
      if (c == nullptr || c->state != TcpState::Established || c->peer_fin ||
          p.h.seq != c->rcv_nxt) {
        fast = false;
        break;
      }
    } else if (p.h.seq != parsed.back().h.seq + parsed.back().data_len) {
      fast = false;
      break;
    }
    total += p.data_len;
    parsed.push_back(p);
  }
  if (fast && total > rcv_space(*c)) fast = false;

  if (!fast) {
    // Per-segment fallback: identical semantics to a non-aggregated burst.
    for (auto& seg : segs) input(std::move(seg));
    return;
  }

  stats_.segs_in += segs.size();
  ++stats_.aggs_in;
  stats_.agg_frames_in += segs.size();

  // The last header carries the freshest cumulative ACK and window.
  process_ack(*c, parsed.back().h);
  if (c->state != TcpState::Established) {
    // process_ack never changes Established by itself, but be defensive:
    // fall back rather than queue data on a torn-down connection.
    for (auto& seg : segs) input(std::move(seg));
    return;
  }

  const bool was_empty = c->rcvq_bytes == 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    RecvChunk rc;
    rc.frame = segs[i].frame;
    rc.offset = parsed[i].data_off;
    rc.len = parsed[i].data_len;
    c->rcvq.push_back(rc);
  }
  c->rcvq_bytes += total;
  c->rcv_nxt += total;
  stats_.bytes_in += total;
  if (ckpt_on(*c)) {
    for (std::size_t i = 0; i < segs.size(); ++i) {
      env_.ckpt->ckpt_rcvq_push(c->sock, segs[i].frame, parsed[i].data_off,
                                parsed[i].data_len);
    }
    ckpt_touch(*c);
  }
  if (!c->ooo.empty()) flush_ooo(*c);

  // One stretch ACK covers the whole aggregate — the receive-side mirror of
  // TSO's one-header-per-superframe.
  send_ack(*c);
  tcp_output(*c);
  if (was_empty && total > 0) notify(c->sock, TcpEvent::Readable);
}

bool TcpEngine::accept_data(Conn& c, const L4Packet& pkt, const TcpHeader& h,
                            std::uint16_t data_off, std::uint16_t data_len) {
  std::uint32_t seq = h.seq;
  std::uint16_t off = data_off;
  std::uint16_t len = data_len;

  // Trim bytes we already have (retransmitted overlap).
  if (seq_lt(seq, c.rcv_nxt)) {
    const std::uint32_t dup = c.rcv_nxt - seq;
    if (dup >= len) {
      send_ack(c);  // pure duplicate
      return false;
    }
    seq += dup;
    off = static_cast<std::uint16_t>(off + dup);
    len = static_cast<std::uint16_t>(len - dup);
  }

  if (seq != c.rcv_nxt) {
    // Out of order.  With a reassembly budget (ooo_queue_segs), buffer the
    // displaced segment so a reordered wire does not masquerade as loss;
    // the dup ACK below still tells the sender about the hole.  Without a
    // budget we keep the classic simple receiver: drop and dup-ACK.
    if (opts_.ooo_queue_segs > 0 && seq_lt(c.rcv_nxt, seq) &&
        c.ooo.size() < opts_.ooo_queue_segs &&
        seq + len - c.rcv_nxt <= rcv_space(c)) {
      RecvChunk rc;
      rc.frame = pkt.frame;
      rc.offset = off;
      rc.len = len;
      const bool inserted = c.ooo.try_emplace(seq, rc).second;
      if (inserted) {
        ++stats_.ooo_buffered;
        send_ack(c);  // dup ACK: the hole is still open
        return true;
      }
    }
    ++stats_.ooo_dropped;
    send_ack(c);
    return false;
  }
  if (len > rcv_space(c)) {
    // Window overflow: drop; the advertised window should prevent this.
    send_ack(c);
    return false;
  }

  RecvChunk rc;
  rc.frame = pkt.frame;
  rc.offset = off;
  rc.len = len;
  c.rcvq.push_back(rc);
  const bool was_empty = c.rcvq_bytes == 0;
  c.rcvq_bytes += len;
  c.rcv_nxt += len;
  stats_.bytes_in += len;
  if (ckpt_on(c)) {
    env_.ckpt->ckpt_rcvq_push(c.sock, rc.frame, rc.offset, rc.len);
    ckpt_touch(c);
  }
  if (!c.ooo.empty() && flush_ooo(c)) {
    // The cumulative ACK jumped past a filled hole: tell the sender now
    // rather than after a delayed-ACK interval.
    send_ack(c);
  } else {
    schedule_ack(c);
  }
  if (was_empty) notify(c.sock, TcpEvent::Readable);
  return true;
}

bool TcpEngine::flush_ooo(Conn& c) {
  bool any = false;
  while (!c.ooo.empty()) {
    auto it = c.ooo.begin();
    if (seq_lt(c.rcv_nxt, it->first)) break;  // still a hole
    RecvChunk rc = it->second;
    std::uint32_t seq = it->first;
    c.ooo.erase(it);
    // Trim overlap with bytes that arrived (e.g. retransmitted) in order.
    if (seq_lt(seq, c.rcv_nxt)) {
      const std::uint32_t dup = c.rcv_nxt - seq;
      if (dup >= rc.len) {
        env_.rx_done(rc.frame);
        continue;
      }
      rc.offset = static_cast<std::uint16_t>(rc.offset + dup);
      rc.len = static_cast<std::uint16_t>(rc.len - dup);
    }
    if (rc.len > rcv_space(c)) {
      // Window shrank under the buffered segment; the peer retransmits.
      env_.rx_done(rc.frame);
      continue;
    }
    c.rcvq.push_back(rc);
    c.rcvq_bytes += rc.len;
    c.rcv_nxt += rc.len;
    stats_.bytes_in += rc.len;
    if (ckpt_on(c)) {
      env_.ckpt->ckpt_rcvq_push(c.sock, rc.frame, rc.offset, rc.len);
    }
    any = true;
  }
  if (any && ckpt_on(c)) ckpt_touch(c);
  return any;
}

// --- teardown ----------------------------------------------------------------------

void TcpEngine::enter_time_wait(Conn& c) {
  c.state = TcpState::TimeWait;
  if (ckpt_on(c)) {
    // TIME_WAIT has nothing left to recover: drop the checkpoint now (the
    // writer returns every ledger loan; the engine keeps the references and
    // releases them when the timer fires, as it always did).
    env_.ckpt->ckpt_destroyed(c.sock);
    c.ckpt = false;
  }
  cancel_rto(c);
  const SockId sock = c.sock;
  if (c.timewait_timer) env_.timers->cancel(c.timewait_timer);
  c.timewait_timer = env_.timers->schedule(
      kTimeWait, [this, sock] { destroy_conn(sock, false); });
}

void TcpEngine::destroy_conn(SockId s, bool notify_reset) {
  auto it = conns_.find(s);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (ckpt_on(c)) {
    // The writer returns every ledger loan and drops the page/journal
    // record; the engine then releases its queue references below, exactly
    // like an un-checkpointed teardown.
    env_.ckpt->ckpt_destroyed(s);
    c.ckpt = false;
  }
  if (c.rto_timer) env_.timers->cancel(c.rto_timer);
  if (c.ack_timer) env_.timers->cancel(c.ack_timer);
  if (c.timewait_timer) env_.timers->cancel(c.timewait_timer);
  cancel_pace(c);
  for (auto& sc : c.sndq) release_payload(sc.chunk);
  for (auto& rc : c.rcvq) env_.rx_done(rc.frame);
  for (auto& [seq, rc] : c.ooo) env_.rx_done(rc.frame);
  by_tuple_.erase(ConnKey{c.peer.value, c.pport, c.lport});
  const bool was_established = c.state == TcpState::Established ||
                               c.state == TcpState::CloseWait ||
                               c.state == TcpState::FinWait1 ||
                               c.state == TcpState::FinWait2;
  conns_.erase(it);
  if (notify_reset) {
    notify(s, TcpEvent::Reset);
  } else if (was_established) {
    notify(s, TcpEvent::Closed);
  }
}

// --- recovery ----------------------------------------------------------------------

std::vector<TcpEngine::ListenRec> TcpEngine::listeners() const {
  std::vector<ListenRec> out;
  out.reserve(listeners_.size());
  for (const auto& [sock, l] : listeners_)
    out.push_back(ListenRec{sock, l.addr, l.port, l.backlog});
  return out;
}

void TcpEngine::restore_listener(const ListenRec& rec) {
  auto it = listeners_.find(rec.id);
  if (it != listeners_.end()) {
    // Idempotent upsert: a re-replicated record (sibling re-seed after a
    // restart) must not wipe the live accept queue of connections already
    // steered here.
    if (it->second.port != rec.port) {
      auto pit = listen_ports_.find(it->second.port);
      if (pit != listen_ports_.end() && pit->second == rec.id)
        listen_ports_.erase(pit);
    }
    it->second.addr = rec.addr;
    it->second.port = rec.port;
    it->second.backlog = rec.backlog;
  } else {
    Listener l;
    l.sock = rec.id;
    l.addr = rec.addr;
    l.port = rec.port;
    l.backlog = rec.backlog;
    listeners_[rec.id] = std::move(l);
  }
  // First owner wins on a replicated port collision: a replica record must
  // not unhook a different live listener from the port it serves.
  listen_ports_.try_emplace(rec.port, rec.id);
  // A replicated listener carries a sibling shard's id: it must not drag
  // our allocation counter into the foreign range.
  if (own_sock(rec.id)) next_sock_ = std::max(next_sock_, rec.id + 1);
}

std::vector<std::byte> TcpEngine::serialize_listeners(
    const std::vector<ListenRec>& recs) {
  std::vector<std::byte> out(4 + recs.size() * 12);
  std::uint32_t n = static_cast<std::uint32_t>(recs.size());
  std::memcpy(out.data(), &n, 4);
  std::size_t off = 4;
  for (const auto& rec : recs) {
    std::memcpy(out.data() + off + 0, &rec.id, 4);
    std::memcpy(out.data() + off + 4, &rec.addr.value, 4);
    std::memcpy(out.data() + off + 8, &rec.port, 2);
    std::uint16_t backlog = static_cast<std::uint16_t>(rec.backlog);
    std::memcpy(out.data() + off + 10, &backlog, 2);
    off += 12;
  }
  return out;
}

std::optional<std::vector<TcpEngine::ListenRec>> TcpEngine::parse_listeners(
    std::span<const std::byte> data) {
  if (data.size() < 4) return std::nullopt;
  std::uint32_t n;
  std::memcpy(&n, data.data(), 4);
  if (data.size() < 4 + static_cast<std::size_t>(n) * 12) return std::nullopt;
  std::vector<ListenRec> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::byte* p = data.data() + 4 + i * 12;
    ListenRec rec;
    std::memcpy(&rec.id, p + 0, 4);
    std::memcpy(&rec.addr.value, p + 4, 4);
    std::memcpy(&rec.port, p + 8, 2);
    std::uint16_t backlog;
    std::memcpy(&backlog, p + 10, 2);
    rec.backlog = backlog;
    out.push_back(rec);
  }
  return out;
}

bool TcpEngine::restore_conn(const RestoredConn& rec) {
  if (rec.sock == 0 || conns_.count(rec.sock) != 0) return false;
  switch (rec.state) {
    case TcpState::Established:
    case TcpState::CloseWait:
    case TcpState::FinWait1:
    case TcpState::FinWait2:
    case TcpState::Closing:
    case TcpState::LastAck:
      break;
    default:
      return false;  // handshake/TIME_WAIT states are not checkpointed
  }
  if (by_tuple_.count(ConnKey{rec.peer.value, rec.pport, rec.lport}) != 0)
    return false;

  Conn c;
  c.sock = rec.sock;
  c.state = rec.state;
  c.local = rec.local;
  c.lport = rec.lport;
  c.peer = rec.peer;
  c.pport = rec.pport;
  c.iss = rec.snd_una;
  c.snd_una = rec.snd_una;
  c.snd_nxt = rec.snd_una;  // go-back-N: resync retransmits from here
  c.snd_wnd = std::max<std::uint32_t>(rec.snd_wnd, kMss);
  // Congestion state: prefer the checkpointed CC blob so the restored
  // connection resumes at its learned rate; fall back to a fresh module
  // (conservative slow start) for v1 records or a mismatched algorithm.
  bool cc_restored = false;
  if (rec.cc.algo != 0 && rec.cc.len != 0 && rec.cc.len <= cc::kCcBlobMax) {
    auto mod = cc::make(static_cast<cc::Algo>(rec.cc.algo), cc_config());
    if (mod != nullptr &&
        mod->deserialize({reinterpret_cast<const std::byte*>(rec.cc.data),
                          rec.cc.len})) {
      c.cc = std::move(mod);
      cc_restored = true;
    }
  }
  if (!c.cc) c.cc = make_cc(rec.lport, rec.pport);
  sync_cc(c);
  if (cc_restored && rec.cc.rto > 0) {
    c.srtt = rec.cc.srtt;
    c.rttvar = rec.cc.rttvar;
    c.rto = std::clamp(rec.cc.rto, opts_.rto_min, kRtoMax);
  } else {
    c.rto = kRtoInitial;
  }
  c.fin_queued = rec.fin_queued;
  c.peer_fin = rec.peer_fin;
  c.irs = rec.rcv_nxt;
  c.rcv_nxt = rec.rcv_nxt;
  c.parent_listener = rec.parent_listener;
  c.ckpt = env_.ckpt != nullptr;

  std::uint32_t end = rec.snd_una;
  for (const auto& sc : rec.sndq) {
    c.sndq.push_back(SendChunk{sc.seq, sc.chunk});
    c.sndq_bytes += sc.chunk.length;
    end = sc.seq + sc.chunk.length;
  }
  c.snd_buf_end = end;  // a queued FIN sits right after the stream
  // Everything up to the old snd_nxt may have been on the wire; accepting
  // ACKs anywhere below the buffered end (+FIN) is always sound because the
  // peer can only ack bytes we actually sent.
  c.high_water = end + (c.fin_queued ? 1u : 0u);
  for (const auto& rc : rec.rcvq) {
    RecvChunk r;
    r.frame = rc.frame;
    r.offset = rc.offset;
    r.len = rc.len;
    r.consumed = rc.consumed;
    c.rcvq.push_back(r);
    c.rcvq_bytes += static_cast<std::uint32_t>(rc.len - rc.consumed);
  }

  conns_.emplace(rec.sock, std::move(c));
  by_tuple_[ConnKey{rec.peer.value, rec.pport, rec.lport}] = rec.sock;
  if (own_sock(rec.sock)) next_sock_ = std::max(next_sock_, rec.sock + 1);
  if (rec.accept_pending) {
    auto lit = listeners_.find(rec.parent_listener);
    if (lit != listeners_.end()) lit->second.acceptq.push_back(rec.sock);
  }
  ++stats_.conns_restored;
  pending_resync_.push_back(rec.sock);
  return true;
}

void TcpEngine::resync_restored() {
  auto socks = std::move(pending_resync_);
  pending_resync_.clear();
  for (SockId s : socks) {
    Conn* c = conn_for(s);
    if (c == nullptr) continue;
    // Announce our exact rcv_nxt and window.  The peer ignores the ack
    // number if it is old news; if the peer was blocked on a closed window
    // or waiting out an RTO, this unblocks it.
    send_ack(*c);
    // Retransmission from the last acked watermark (Section V-D spirit:
    // prefer duplicates over stalls).  Anything the peer already has is
    // trimmed as duplicate on its side.
    const std::uint32_t fin_extra = c->fin_queued ? 1u : 0u;
    if (seq_lt(c->snd_una, c->snd_buf_end + fin_extra)) {
      tcp_output(*c);
      if (c->rto_timer == 0) arm_rto(*c);
    }
    // Replay the readiness events the application would otherwise never see
    // again: a child still waiting to be accepted, queued received data,
    // and the (possibly spurious, always safe) write-space notification.
    if (c->parent_listener != 0) {
      auto lit = listeners_.find(c->parent_listener);
      if (lit != listeners_.end() &&
          std::find(lit->second.acceptq.begin(), lit->second.acceptq.end(),
                    s) != lit->second.acceptq.end()) {
        notify(lit->second.sock, TcpEvent::AcceptReady);
        continue;  // not yet owned by an app socket: no per-socket events
      }
    }
    if (c->rcvq_bytes > 0) notify(s, TcpEvent::Readable);
    notify(s, TcpEvent::Writable);
  }
}

std::string TcpEngine::debug(SockId s) const {
  const Conn* c = conn_for(s);
  if (c == nullptr) return "sock " + std::to_string(s) + ": no conn";
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "sock %u %s una=%u nxt=%u buf_end=%u hw=%u cwnd=%u ssthresh=%u "
      "rwnd=%u dup=%u rec=%d sndq=%zu(%u B) rcv_nxt=%u rcvq=%u B rto=%lldms "
      "rto_timer=%s",
      s, to_string(c->state), c->snd_una, c->snd_nxt, c->snd_buf_end,
      c->high_water, c->cwnd, c->ssthresh, c->snd_wnd, c->dup_acks,
      c->in_recovery ? 1 : 0, c->sndq.size(), c->sndq_bytes, c->rcv_nxt,
      c->rcvq_bytes, static_cast<long long>(c->rto / sim::kMillisecond),
      c->rto_timer != 0 ? "armed" : "idle");
  return buf;
}

std::unique_ptr<cc::CongestionControl> TcpEngine::make_cc(
    std::uint16_t lport, std::uint16_t pport) const {
  for (const auto& [port, algo] : opts_.cc_by_port) {
    if (port == lport || port == pport) {
      if (auto mod = cc::make(algo, cc_config())) return mod;
    }
  }
  if (auto mod = cc::make(opts_.cc_algo, cc_config())) return mod;
  return cc::make(cc::Algo::kNewReno, cc_config());
}

std::optional<TcpEngine::CcInfo> TcpEngine::cc_info(SockId s) const {
  const Conn* c = conn_for(s);
  if (c == nullptr || c->cc == nullptr) return std::nullopt;
  CcInfo info;
  info.algo = c->cc->name();
  info.cwnd = c->cc->cwnd();
  info.ssthresh = c->cc->ssthresh();
  info.pacing_rate = c->cc->pacing_rate();
  return info;
}

std::vector<SockId> TcpEngine::connection_socks() const {
  std::vector<SockId> out;
  out.reserve(conns_.size());
  for (const auto& [sock, c] : conns_) out.push_back(sock);
  return out;
}

std::vector<PfStateKey> TcpEngine::connection_keys() const {
  std::vector<PfStateKey> out;
  for (const auto& [sock, c] : conns_) {
    if (c.state != TcpState::Established && c.state != TcpState::CloseWait &&
        c.state != TcpState::FinWait1 && c.state != TcpState::FinWait2)
      continue;
    out.push_back(PfStateKey{kProtoTcp, c.local, c.peer, c.lport, c.pport});
  }
  return out;
}

}  // namespace newtos::net
