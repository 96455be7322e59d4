// ICMP echo handling — part of the IP component ("Our IP also contains ICMP
// and ARP", Section V).  ICMP is stateless, which is what makes IP one of
// the easiest components to restart (Table I).
//
// Echo replies are built as ordinary internal TX requests: they flow through
// the packet filter and driver like any other packet, and the reply payload
// is *copied* into an IP-owned chunk because the received frame chunk will
// be released as soon as input handling finishes.
#include "src/net/checksum.h"
#include "src/net/ip.h"

namespace newtos::net {

void IpEngine::handle_icmp(int ifindex, const chan::RichPtr& frame,
                           const Ipv4Header& ip_hdr, std::uint16_t l4_offset,
                           std::uint16_t l4_length) {
  (void)ifindex;
  auto bytes = env_.pools->read(frame);
  if (bytes.size() < static_cast<std::size_t>(l4_offset) + kIcmpHeaderLen)
    return;
  if (l4_length < kIcmpHeaderLen ||
      bytes.size() < static_cast<std::size_t>(l4_offset) + l4_length)
    return;
  auto icmp_bytes = bytes.subspan(l4_offset, l4_length);
  ByteReader r{icmp_bytes};
  auto icmp = IcmpHeader::parse(r);
  if (!icmp) return;
  // Verify the ICMP checksum over header + payload: garbage pings — the
  // "ping of death" family — are dropped, not crashed on.
  if (checksum(icmp_bytes) != 0) {
    ++stats_.dropped_malformed;
    return;
  }
  if (icmp->type != kIcmpEchoRequest || icmp->code != 0) return;

  // Build the reply: ICMP header + echoed payload in one IP-owned chunk.
  chan::RichPtr reply = env_.hdr_pool->alloc(l4_length);
  if (!reply.valid()) return;
  auto view = env_.hdr_pool->write_view(reply);
  ByteWriter w{view};
  IcmpHeader reply_hdr;
  reply_hdr.type = kIcmpEchoReply;
  reply_hdr.code = 0;
  reply_hdr.checksum = 0;
  reply_hdr.id = icmp->id;
  reply_hdr.seq = icmp->seq;
  reply_hdr.serialize(w);
  w.raw(icmp_bytes.subspan(kIcmpHeaderLen));
  const std::uint16_t csum = checksum(view);
  view[2] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
  view[3] = std::byte{static_cast<std::uint8_t>(csum)};

  ++stats_.icmp_echo_replies;

  TxSeg seg;
  seg.l4_header = reply;
  seg.src = ip_hdr.dst;
  seg.dst = ip_hdr.src;
  seg.protocol = kProtoIcmp;
  // IP's own request: nobody is told when it is done, and IP frees the
  // reply chunk itself (once it is copied into the frame, or dropped).
  output(std::move(seg), L4Req{L4Req::kIp});
}

}  // namespace newtos::net
