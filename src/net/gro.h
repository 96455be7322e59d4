// Receive-side aggregation (GRO): classification and the merge loop, shared
// between the central IP engine's input_burst and the per-shard RX fast
// path.  The two callers differ only in what they do with the results (see
// gro_merge).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "src/chan/pool.h"
#include "src/net/addr.h"
#include "src/net/headers.h"
#include "src/net/ip.h"

namespace newtos::net {

// The per-frame facts GRO needs to decide mergeability, parsed once per
// frame of a burst; ineligible frames re-parse on the classic input() path
// (they are the rare case by construction of the burst).
struct GroInfo {
  bool eligible = false;        // in-order-mergeable TCP data segment
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint8_t flags = 0;
  std::uint16_t l4_offset = 0;
  std::uint16_t l4_length = 0;
  std::uint16_t payload_len = 0;
};

inline GroInfo gro_classify(std::span<const std::byte> bytes,
                            Ipv4Addr our_addr) {
  GroInfo info;
  if (bytes.size() < kEthHeaderLen + kIpHeaderLen) return info;
  ByteReader r{bytes};
  auto eth = EthHeader::parse(r);
  if (!eth || eth->ethertype != kEtherTypeIpv4) return info;
  auto ip = Ipv4Header::parse(r);
  if (!ip || ip->protocol != kProtoTcp || ip->dst != our_addr) return info;
  if (ip->total_length > bytes.size() - kEthHeaderLen) return info;
  const std::uint16_t l4_offset =
      static_cast<std::uint16_t>(kEthHeaderLen + kIpHeaderLen);
  const std::uint16_t l4_length =
      static_cast<std::uint16_t>(ip->total_length - kIpHeaderLen);
  if (l4_length < kTcpHeaderLen ||
      bytes.size() < static_cast<std::size_t>(l4_offset) + kTcpHeaderLen) {
    return info;
  }
  ByteReader tr{bytes.subspan(l4_offset, kTcpHeaderLen)};
  auto h = TcpHeader::parse(tr);
  if (!h) return info;
  const std::uint16_t payload =
      static_cast<std::uint16_t>(l4_length - kTcpHeaderLen);
  // Only plain in-stream data merges: SYN/FIN/RST (and anything else
  // exotic) must be seen by TCP one segment at a time, and a pure ACK
  // carries sender-clocking information per frame.
  if (payload == 0 ||
      (h->flags & ~(tcpflag::kAck | tcpflag::kPsh)) != 0 ||
      !h->has(tcpflag::kAck)) {
    return info;
  }
  info.eligible = true;
  info.src = ip->src;
  info.dst = ip->dst;
  info.sport = h->src_port;
  info.dport = h->dst_port;
  info.seq = h->seq;
  info.flags = h->flags;
  info.l4_offset = l4_offset;
  info.l4_length = l4_length;
  info.payload_len = payload;
  return info;
}

// The merge loop.  Walks a burst in arrival order and merges consecutive
// in-sequence data segments of one flow; a PSH segment closes its
// aggregate, and flags beyond ACK/PSH, out-of-order arrivals and flow
// changes flush the aggregate under construction.  Two sinks take the
// results, strictly in burst order:
//
//   on_agg(L4AggPacket&&, std::uint8_t tcp_flags)
//       a finished aggregate of >= 2 segments, with the flags its PF query
//       carries (ACK, or ACK|PSH when a member pushed);
//   on_frame(const chan::RichPtr&)
//       a frame that takes the caller's per-frame path: every ineligible
//       frame, and the lone member of an aggregate of one — so single-frame
//       behaviour is exactly the classic path's.
//
// Without an interface (`ifp == nullptr`) nothing is eligible.
template <typename AggSink, typename FrameSink>
void gro_merge(const chan::PoolRegistry& pools, const Interface* ifp,
               std::span<const chan::RichPtr> frames, AggSink&& on_agg,
               FrameSink&& on_frame) {
  L4AggPacket agg;  // aggregate under construction
  std::uint32_t next_seq = 0;
  bool psh = false;  // a PSH frame closes its aggregate

  auto finish = [&] {
    if (agg.segs.size() == 1) {
      const chan::RichPtr lone = agg.segs.front().frame;
      agg = L4AggPacket{};
      on_frame(lone);
    } else if (!agg.segs.empty()) {
      on_agg(std::move(agg),
             psh ? static_cast<std::uint8_t>(tcpflag::kAck | tcpflag::kPsh)
                 : tcpflag::kAck);
      agg = L4AggPacket{};
    }
  };

  for (const chan::RichPtr& frame : frames) {
    const GroInfo info = ifp == nullptr
                             ? GroInfo{}
                             : gro_classify(pools.read(frame), ifp->addr);
    if (!info.eligible) {
      finish();
      on_frame(frame);
      continue;
    }
    const bool continues = !agg.segs.empty() && !psh &&
                           info.src == agg.src && info.sport == agg.sport &&
                           info.dport == agg.dport && info.seq == next_seq;
    if (!continues) finish();
    if (agg.segs.empty()) {
      agg.src = info.src;
      agg.dst = info.dst;
      agg.sport = info.sport;
      agg.dport = info.dport;
      psh = false;
    }
    agg.segs.push_back(L4Packet{frame, info.l4_offset, info.l4_length,
                                info.src, info.dst});
    next_seq = info.seq + info.payload_len;
    if ((info.flags & tcpflag::kPsh) != 0) psh = true;
  }
  finish();
}

}  // namespace newtos::net
