#include "src/net/headers.h"

#include <algorithm>
#include <cstring>

#include "src/net/checksum.h"

namespace newtos::net {

// --- ByteWriter / ByteReader ---------------------------------------------------

void ByteWriter::u8(std::uint8_t v) {
  if (pos_ + 1 > buf_.size()) {
    ok_ = false;
    return;
  }
  buf_[pos_++] = std::byte{v};
}

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v >> 8));
  u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v));
}

void ByteWriter::mac(const MacAddr& m) {
  for (auto b : m.bytes) u8(b);
}

void ByteWriter::ip(Ipv4Addr a) { u32(a.value); }

void ByteWriter::raw(std::span<const std::byte> data) {
  if (pos_ + data.size() > buf_.size()) {
    ok_ = false;
    return;
  }
  std::copy(data.begin(), data.end(), buf_.begin() + pos_);
  pos_ += data.size();
}

std::uint8_t ByteReader::u8() {
  if (pos_ + 1 > buf_.size()) {
    ok_ = false;
    return 0;
  }
  return std::to_integer<std::uint8_t>(buf_[pos_++]);
}

std::uint16_t ByteReader::u16() {
  const auto hi = u8();
  const auto lo = u8();
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

std::uint32_t ByteReader::u32() {
  const auto hi = u16();
  const auto lo = u16();
  return (static_cast<std::uint32_t>(hi) << 16) | lo;
}

MacAddr ByteReader::mac() {
  MacAddr m;
  if (pos_ + m.bytes.size() > buf_.size()) {
    ok_ = false;
    return m;
  }
  std::memcpy(m.bytes.data(), buf_.data() + pos_, m.bytes.size());
  pos_ += m.bytes.size();
  return m;
}

Ipv4Addr ByteReader::ip() { return Ipv4Addr{u32()}; }

void ByteReader::skip(std::size_t n) {
  if (pos_ + n > buf_.size()) {
    ok_ = false;
    return;
  }
  pos_ += n;
}

// --- Ethernet -------------------------------------------------------------------

void EthHeader::serialize(ByteWriter& w) const {
  w.mac(dst);
  w.mac(src);
  w.u16(ethertype);
}

std::optional<EthHeader> EthHeader::parse(ByteReader& r) {
  EthHeader h;
  h.dst = r.mac();
  h.src = r.mac();
  h.ethertype = r.u16();
  if (!r.ok()) return std::nullopt;
  return h;
}

// --- ARP ------------------------------------------------------------------------

void ArpPacket::serialize(ByteWriter& w) const {
  w.u16(1);       // htype: ethernet
  w.u16(kEtherTypeIpv4);
  w.u8(6);        // hlen
  w.u8(4);        // plen
  w.u16(op);
  w.mac(sender_mac);
  w.ip(sender_ip);
  w.mac(target_mac);
  w.ip(target_ip);
}

std::optional<ArpPacket> ArpPacket::parse(ByteReader& r) {
  const std::uint16_t htype = r.u16();
  const std::uint16_t ptype = r.u16();
  const std::uint8_t hlen = r.u8();
  const std::uint8_t plen = r.u8();
  ArpPacket p;
  p.op = r.u16();
  p.sender_mac = r.mac();
  p.sender_ip = r.ip();
  p.target_mac = r.mac();
  p.target_ip = r.ip();
  if (!r.ok() || htype != 1 || ptype != kEtherTypeIpv4 || hlen != 6 ||
      plen != 4)
    return std::nullopt;
  if (p.op != kArpOpRequest && p.op != kArpOpReply) return std::nullopt;
  return p;
}

// --- IPv4 -----------------------------------------------------------------------

void Ipv4Header::serialize(ByteWriter& w, bool compute_checksum) const {
  std::byte tmp[kIpHeaderLen];
  ByteWriter hw{std::span<std::byte>(tmp, sizeof tmp)};
  hw.u8(0x45);  // version 4, ihl 5
  hw.u8(0);     // dscp/ecn
  hw.u16(total_length);
  hw.u16(id);
  hw.u16(0x4000);  // flags: don't fragment
  hw.u8(ttl);
  hw.u8(protocol);
  hw.u16(0);  // checksum placeholder
  hw.ip(src);
  hw.ip(dst);
  std::uint16_t csum = checksum;
  if (compute_checksum) {
    csum = newtos::net::checksum(std::span<const std::byte>(tmp, sizeof tmp));
  }
  tmp[10] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
  tmp[11] = std::byte{static_cast<std::uint8_t>(csum)};
  w.raw(std::span<const std::byte>(tmp, sizeof tmp));
}

std::optional<Ipv4Header> Ipv4Header::parse(ByteReader& r, bool verify) {
  const std::uint8_t ver_ihl = r.u8();
  r.u8();  // dscp
  Ipv4Header h;
  h.total_length = r.u16();
  h.id = r.u16();
  r.u16();  // flags/fragment offset
  h.ttl = r.u8();
  h.protocol = r.u8();
  h.checksum = r.u16();
  h.src = r.ip();
  h.dst = r.ip();
  if (!r.ok()) return std::nullopt;
  if ((ver_ihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(ver_ihl & 0x0f) * 4;
  if (ihl != kIpHeaderLen) return std::nullopt;  // options unsupported
  if (h.total_length < kIpHeaderLen) return std::nullopt;
  if (h.ttl == 0) return std::nullopt;
  if (verify) {
    // Re-serialize with the received checksum and verify the sum is zero.
    std::byte tmp[kIpHeaderLen];
    ByteWriter hw{std::span<std::byte>(tmp, sizeof tmp)};
    h.serialize(hw, /*compute_checksum=*/false);
    if (newtos::net::checksum(std::span<const std::byte>(tmp, sizeof tmp)) !=
        0)
      return std::nullopt;
  }
  return h;
}

// --- ICMP -----------------------------------------------------------------------

void IcmpHeader::serialize(ByteWriter& w) const {
  w.u8(type);
  w.u8(code);
  w.u16(checksum);
  w.u16(id);
  w.u16(seq);
}

std::optional<IcmpHeader> IcmpHeader::parse(ByteReader& r) {
  IcmpHeader h;
  h.type = r.u8();
  h.code = r.u8();
  h.checksum = r.u16();
  h.id = r.u16();
  h.seq = r.u16();
  if (!r.ok()) return std::nullopt;
  return h;
}

// --- UDP ------------------------------------------------------------------------

void UdpHeader::serialize(ByteWriter& w) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(length);
  w.u16(checksum);
}

std::optional<UdpHeader> UdpHeader::parse(ByteReader& r) {
  UdpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.length = r.u16();
  h.checksum = r.u16();
  if (!r.ok() || h.length < kUdpHeaderLen) return std::nullopt;
  return h;
}

// --- TCP ------------------------------------------------------------------------

void TcpHeader::serialize(ByteWriter& w) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u8(5 << 4);  // data offset 5 words, no options
  w.u8(flags);
  w.u16(window);
  w.u16(checksum);
  w.u16(0);  // urgent pointer
}

std::optional<TcpHeader> TcpHeader::parse(ByteReader& r) {
  TcpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.seq = r.u32();
  h.ack = r.u32();
  const std::uint8_t off = r.u8();
  h.flags = r.u8() & 0x3f;
  h.window = r.u16();
  h.checksum = r.u16();
  r.u16();  // urgent pointer
  if (!r.ok()) return std::nullopt;
  const std::size_t hdr_len = static_cast<std::size_t>(off >> 4) * 4;
  if (hdr_len < kTcpHeaderLen) return std::nullopt;
  r.skip(hdr_len - kTcpHeaderLen);  // ignore options
  if (!r.ok()) return std::nullopt;
  return h;
}

}  // namespace newtos::net
