#include "src/net/udp.h"

#include <cassert>
#include <cstring>

namespace newtos::net {

UdpEngine::UdpEngine(Env env) : env_(std::move(env)) {
  next_sock_ = env_.sock_base + 1;
  if (env_.shard_count > 1) {
    next_port_ = static_cast<std::uint16_t>(20000 + env_.shard * 4096);
  }
}

UdpEngine::~UdpEngine() {
  for (auto& [id, sock] : socks_) {
    for (auto& item : sock.rxq) env_.rx_done(item.frame);
  }
  inflight_.for_each([this](std::uint64_t, const InFlight& f) {
    env_.buf_pool->release(f.header);
    if (f.payload.valid()) env_.buf_pool->release(f.payload);
  });
}

UdpEngine::Sock* UdpEngine::find(SockId s) {
  auto it = socks_.find(s);
  return it == socks_.end() ? nullptr : &it->second;
}
const UdpEngine::Sock* UdpEngine::find(SockId s) const {
  auto it = socks_.find(s);
  return it == socks_.end() ? nullptr : &it->second;
}

std::uint16_t UdpEngine::ephemeral_port() {
  if (env_.shard_count > 1) {
    // Disjoint 4096-port window per replica: socket state is replicated to
    // every shard, so two shards must never hand out the same port.
    const std::uint16_t base =
        static_cast<std::uint16_t>(20000 + env_.shard * 4096);
    for (std::uint16_t i = 0; i < 4096; ++i) {
      const std::uint16_t p = static_cast<std::uint16_t>(
          base + (next_port_ - base + i) % 4096);
      if (bound_.count(p) == 0) {
        next_port_ = static_cast<std::uint16_t>(base + (p - base + 1) % 4096);
        return p;
      }
    }
    return 0;
  }
  while (bound_.count(next_port_) != 0) ++next_port_;
  return next_port_++;
}

SockId UdpEngine::open() {
  const SockId id = next_sock_++;
  socks_.emplace(id, Sock{id, Ipv4Addr{}, 0, Ipv4Addr{}, 0, {}});
  return id;
}

bool UdpEngine::bind(SockId s, Ipv4Addr local, std::uint16_t port) {
  Sock* sock = find(s);
  if (sock == nullptr) return false;
  if (port == 0) port = ephemeral_port();
  if (port == 0) return false;  // per-shard ephemeral window exhausted
  if (bound_.count(port) != 0) return false;
  if (sock->lport != 0) erase_binding(sock->lport, s);
  sock->local = local;
  sock->lport = port;
  bound_[port] = s;
  return true;
}

void UdpEngine::erase_binding(std::uint16_t port, SockId s) {
  // Only unmap the port if this socket owns it: after a replicated port
  // collision the map may name a different, still-live socket.
  auto it = bound_.find(port);
  if (it != bound_.end() && it->second == s) bound_.erase(it);
}

bool UdpEngine::connect(SockId s, Ipv4Addr peer, std::uint16_t port) {
  Sock* sock = find(s);
  if (sock == nullptr) return false;
  if (sock->lport == 0 && !bind(s, Ipv4Addr{}, 0)) return false;
  sock->peer = peer;
  sock->pport = port;
  return true;
}

void UdpEngine::close(SockId s) {
  Sock* sock = find(s);
  if (sock == nullptr) return;
  for (auto& item : sock->rxq) env_.rx_done(item.frame);
  if (sock->lport != 0) erase_binding(sock->lport, s);
  socks_.erase(s);
}

chan::RichPtr UdpEngine::alloc_payload(std::uint32_t len) {
  return env_.buf_pool->alloc(len);
}

bool UdpEngine::sendto(SockId s, chan::RichPtr payload, Ipv4Addr dst,
                       std::uint16_t port) {
  Sock* sock = find(s);
  if (sock == nullptr) {
    env_.buf_pool->release(payload);
    return false;
  }
  if (dst.is_zero()) {
    dst = sock->peer;
    port = sock->pport;
  }
  if (dst.is_zero() || port == 0) {
    env_.buf_pool->release(payload);
    return false;
  }
  if (sock->lport == 0 && !bind(s, Ipv4Addr{}, 0)) {
    env_.buf_pool->release(payload);
    return false;
  }
  Ipv4Addr src = sock->local;
  if (src.is_zero() && env_.src_for) src = env_.src_for(dst);

  chan::RichPtr hdr = env_.buf_pool->alloc(kUdpHeaderLen);
  if (!hdr.valid()) {
    env_.buf_pool->release(payload);
    return false;
  }
  auto view = env_.buf_pool->write_view(hdr);
  ByteWriter w{view};
  UdpHeader uh;
  uh.src_port = sock->lport;
  uh.dst_port = port;
  uh.length =
      static_cast<std::uint16_t>(kUdpHeaderLen + payload.length);
  uh.checksum = 0;  // filled (or offloaded) by IP
  uh.serialize(w);

  TxSeg seg;
  seg.l4_header = hdr;
  if (payload.valid()) seg.payload.push_back(payload);
  seg.src = src;
  seg.dst = dst;
  seg.protocol = kProtoUdp;

  const std::uint64_t cookie =
      inflight_.add(InFlight{hdr, payload, {}, src, dst});
  ++stats_.datagrams_out;
  const chan::RichPtr desc = env_.output(std::move(seg), cookie);
  if (InFlight* f = inflight_.find(cookie)) f->desc = desc;
  return true;
}

void UdpEngine::seg_done(std::uint64_t cookie, bool sent) {
  (void)sent;  // UDP is fire-and-forget either way
  auto f = inflight_.take(cookie);
  if (!f) return;  // stale reply from before a crash
  if (f->desc.valid()) env_.buf_pool->release(f->desc);
  env_.buf_pool->release(f->header);
  if (f->payload.valid()) env_.buf_pool->release(f->payload);
}

void UdpEngine::input(L4Packet&& pkt) {
  auto bytes = env_.pools->read(pkt.frame);
  if (bytes.size() < static_cast<std::size_t>(pkt.l4_offset) + kUdpHeaderLen ||
      pkt.l4_length < kUdpHeaderLen) {
    ++stats_.dropped_malformed;
    env_.rx_done(pkt.frame);
    return;
  }
  ByteReader r{bytes.subspan(pkt.l4_offset, pkt.l4_length)};
  auto uh = UdpHeader::parse(r);
  if (!uh || uh->length > pkt.l4_length) {
    ++stats_.dropped_malformed;
    env_.rx_done(pkt.frame);
    return;
  }
  auto it = bound_.find(uh->dst_port);
  if (it == bound_.end()) {
    ++stats_.dropped_no_socket;
    env_.rx_done(pkt.frame);
    return;
  }
  Sock* sock = find(it->second);
  assert(sock != nullptr);
  // Connected sockets only accept datagrams from their peer.
  if (!sock->peer.is_zero() &&
      (sock->peer != pkt.src || sock->pport != uh->src_port)) {
    ++stats_.dropped_no_socket;
    env_.rx_done(pkt.frame);
    return;
  }
  if (sock->rxq.size() >= kMaxRxQueue) {
    ++stats_.dropped_queue_full;
    env_.rx_done(pkt.frame);
    return;
  }
  RxItem item;
  item.frame = pkt.frame;
  item.data_offset =
      static_cast<std::uint16_t>(pkt.l4_offset + kUdpHeaderLen);
  item.data_len = static_cast<std::uint16_t>(uh->length - kUdpHeaderLen);
  item.src = pkt.src;
  item.sport = uh->src_port;
  sock->rxq.push_back(item);
  ++stats_.datagrams_in;
  if (env_.notify_readable) env_.notify_readable(sock->id);
}

bool UdpEngine::readable(SockId s) const {
  const Sock* sock = find(s);
  return sock != nullptr && !sock->rxq.empty();
}

std::optional<UdpEngine::BorrowedRx> UdpEngine::recv_zc(SockId s) {
  Sock* sock = find(s);
  if (sock == nullptr || sock->rxq.empty()) return std::nullopt;
  RxItem item = sock->rxq.front();
  sock->rxq.pop_front();
  BorrowedRx b;
  b.frame = item.frame;
  b.data = item.frame;
  b.data.offset = item.frame.offset + item.data_offset;
  b.data.length = item.data_len;
  b.src = item.src;
  b.sport = item.sport;
  return b;
}

std::optional<UdpEngine::Datagram> UdpEngine::recv(SockId s) {
  auto b = recv_zc(s);
  if (!b) return std::nullopt;
  Datagram d;
  auto payload = env_.pools->read(b->data);
  d.data.assign(payload.begin(), payload.end());
  d.src = b->src;
  d.sport = b->sport;
  env_.rx_done(b->frame);
  return d;
}

std::vector<UdpEngine::SockRec> UdpEngine::snapshot() const {
  std::vector<SockRec> out;
  out.reserve(socks_.size());
  for (const auto& [id, s] : socks_)
    out.push_back(SockRec{id, s.local, s.lport, s.peer, s.pport});
  return out;
}

void UdpEngine::restore(const std::vector<SockRec>& socks) {
  for (const auto& rec : socks) upsert(rec);
}

void UdpEngine::upsert(const SockRec& rec) {
  Sock& s = socks_[rec.id];  // creates with an empty rxq, or updates in place
  if (s.lport != 0 && s.lport != rec.lport) erase_binding(s.lport, rec.id);
  s.id = rec.id;
  s.local = rec.local;
  s.lport = rec.lport;
  s.peer = rec.peer;
  s.pport = rec.pport;
  // First owner wins on a replicated port collision (see erase_binding).
  if (rec.lport != 0) bound_.try_emplace(rec.lport, rec.id);
  // A replicated record carries a sibling shard's id: it must not drag our
  // allocation counter into the foreign range.
  if (own_sock(rec.id)) next_sock_ = std::max(next_sock_, rec.id + 1);
}

std::optional<UdpEngine::SockRec> UdpEngine::record(SockId s) const {
  const Sock* sock = find(s);
  if (sock == nullptr) return std::nullopt;
  return SockRec{sock->id, sock->local, sock->lport, sock->peer, sock->pport};
}

std::vector<std::byte> UdpEngine::serialize_socks(
    const std::vector<SockRec>& socks) {
  std::vector<std::byte> out(4 + socks.size() * 16);
  std::uint32_t n = static_cast<std::uint32_t>(socks.size());
  std::memcpy(out.data(), &n, 4);
  std::size_t off = 4;
  for (const auto& s : socks) {
    std::memcpy(out.data() + off + 0, &s.id, 4);
    std::memcpy(out.data() + off + 4, &s.local.value, 4);
    std::memcpy(out.data() + off + 8, &s.peer.value, 4);
    std::memcpy(out.data() + off + 12, &s.lport, 2);
    std::memcpy(out.data() + off + 14, &s.pport, 2);
    off += 16;
  }
  return out;
}

std::optional<std::vector<UdpEngine::SockRec>> UdpEngine::parse_socks(
    std::span<const std::byte> data) {
  if (data.size() < 4) return std::nullopt;
  std::uint32_t n;
  std::memcpy(&n, data.data(), 4);
  if (data.size() < 4 + static_cast<std::size_t>(n) * 16) return std::nullopt;
  std::vector<SockRec> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::byte* p = data.data() + 4 + i * 16;
    SockRec s;
    std::memcpy(&s.id, p + 0, 4);
    std::memcpy(&s.local.value, p + 4, 4);
    std::memcpy(&s.peer.value, p + 8, 4);
    std::memcpy(&s.lport, p + 12, 2);
    std::memcpy(&s.pport, p + 14, 2);
    out.push_back(s);
  }
  return out;
}

std::vector<PfStateKey> UdpEngine::connection_keys() const {
  std::vector<PfStateKey> out;
  for (const auto& [id, s] : socks_) {
    if (s.peer.is_zero()) continue;
    out.push_back(PfStateKey{kProtoUdp, s.local, s.peer, s.lport, s.pport});
  }
  return out;
}

}  // namespace newtos::net
