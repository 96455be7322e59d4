// The IP component: routing, Ethernet framing, ARP, ICMP, the packet-filter
// T junction, and ownership of the receive pool drivers DMA into.
//
// IP is the only component that talks to drivers (Section V, Figure 3).  For
// every packet it hands work to another component three times: to PF for the
// verdict, to the driver for transmission, and (on receive) up to TCP/UDP.
// All hand-offs are asynchronous: IP records each packet it hands to PF or
// a driver in a chan::RequestDb, whose ids are the cookies, with everything
// a completion or a resend needs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chan/pool.h"
#include "src/chan/request_db.h"
#include "src/net/addr.h"
#include "src/net/arp.h"
#include "src/net/env.h"
#include "src/net/headers.h"
#include "src/net/pbuf.h"
#include "src/net/pf.h"

namespace newtos::net {

struct Interface {
  int index = 0;
  MacAddr mac;
  Ipv4Addr addr;
  Ipv4Net subnet;
  std::uint32_t mtu = 1500;
};

struct Route {
  Ipv4Net dest;        // 0.0.0.0/0 for the default route
  Ipv4Addr gateway;    // 0.0.0.0 when the destination is on-link
  int ifindex = 0;
};

// The small static state that makes IP easy to restart (Table I): interface
// addressing and routes, saved in the storage server.
struct IpConfig {
  std::vector<Interface> interfaces;
  std::vector<Route> routes;

  std::vector<std::byte> serialize() const;
  static std::optional<IpConfig> parse(std::span<const std::byte>);
};

// A packet delivered up to TCP/UDP: the frame stays where the NIC put it
// (one chunk in IP's receive pool); only offsets travel.
struct L4Packet {
  chan::RichPtr frame;        // whole-frame chunk; release via rx_done
  std::uint16_t l4_offset = 0;  // where the transport header starts
  std::uint16_t l4_length = 0;  // transport header + payload length
  Ipv4Addr src;
  Ipv4Addr dst;
};

// A GRO super-segment: consecutive in-order TCP segments of one flow,
// merged at the IP -> TCP boundary so the transport pays its per-segment
// charge once per aggregate.  Because all members share one 4-tuple, an
// aggregate can never span transport shards.
struct L4AggPacket {
  std::vector<L4Packet> segs;   // in arrival order, seq-consecutive
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t sport = 0;      // steering tuple (remote end first)
  std::uint16_t dport = 0;
};

// The transport request an outbound segment belongs to, handed back
// through seg_done: the host's name for the transport (`peer`) and that
// transport's own request id.  IP's own ICMP replies carry kIp: nobody is
// told, and IP frees the reply chunk itself.
struct L4Req {
  static constexpr std::uint32_t kIp = ~std::uint32_t{0};
  std::uint32_t peer = 0;
  std::uint64_t id = 0;
};

class IpEngine {
 public:
  struct Env {
    Clock* clock = nullptr;
    TimerService* timers = nullptr;
    chan::PoolRegistry* pools = nullptr;
    chan::Pool* hdr_pool = nullptr;  // IP-owned: frame headers, ARP, ICMP
    chan::Pool* rx_pool = nullptr;   // IP-owned: drivers DMA received frames here

    // Hand a frame to the driver of `ifindex`.  The driver answers through
    // tx_done(cookie, ok); `frame` is valid during the call only.  Returns
    // the descriptor the host packed in hdr_pool, which the engine frees
    // with the frame, or an invalid pointer when nothing is left to free.
    std::function<chan::RichPtr(int ifindex, const TxFrame&,
                                std::uint64_t cookie)>
        send_frame;
    // Ask the packet filter.  The verdict arrives via pf_verdict(cookie).
    // May be empty: no filter configured, everything passes.
    std::function<void(const PfQuery&, std::uint64_t cookie)> pf_check;
    // Deliver transport payloads upward.
    std::function<void(L4Packet&&)> deliver_tcp;
    std::function<void(L4Packet&&)> deliver_udp;
    // Deliver a GRO aggregate upward.  May be empty: aggregates then fall
    // back to per-segment deliver_tcp (GRO effectively off above IP).
    std::function<void(L4AggPacket&&)> deliver_tcp_agg;
    // Batched variant of pf_check: all aggregate queries raised by one RX
    // burst travel together.  May be empty: queries go out one by one.
    std::function<void(
        std::span<const std::pair<PfQuery, std::uint64_t>>)>
        pf_check_batch;
    // Completion towards L4: the segment of `req` was transmitted (or
    // dropped, sent=false).  Only after this may L4 free its header.
    std::function<void(const L4Req& req, bool sent)> seg_done;

    bool csum_offload = true;  // NIC finishes L4 checksums on TX
  };

  struct Stats {
    std::uint64_t tx_segs = 0;
    std::uint64_t tx_frames = 0;
    std::uint64_t rx_frames = 0;
    std::uint64_t rx_delivered = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_pf = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t dropped_arp_timeout = 0;
    std::uint64_t icmp_echo_replies = 0;
    std::uint64_t gro_aggs = 0;    // aggregates delivered (>= 2 frames each)
    std::uint64_t gro_frames = 0;  // frames merged into aggregates
  };

  IpEngine(Env env, IpConfig cfg);

  // --- L4 -> IP ----------------------------------------------------------------
  // Takes ownership of seg.l4_header (freed back to its owner by seg_done)
  // and of the payload refs for the duration of transmission.
  void output(TxSeg&& seg, const L4Req& req);

  // --- driver -> IP ------------------------------------------------------------
  void input(int ifindex, chan::RichPtr frame);
  // A coalesced RX burst.  Consecutive in-order same-4-tuple TCP data
  // segments are merged into aggregates (GRO); everything else — and every
  // aggregate of one — takes the exact per-frame input() path.  Flags
  // beyond ACK/PSH, out-of-order arrivals and flow changes flush the
  // aggregate under construction.
  void input_burst(int ifindex, std::span<const chan::RichPtr> frames);
  void tx_done(std::uint64_t cookie, bool ok);

  // --- PF -> IP ------------------------------------------------------------------
  void pf_verdict(std::uint64_t cookie, bool allow);
  // When PF (re)announces: send every unanswered query again, oldest first
  // (no packet is ever lost across a PF restart, Section V-D).  Returns how
  // many were sent.
  std::size_t resubmit_pf_pending();
  // After a driver crash: the acks for in-flight frames will never arrive;
  // IP prefers duplicates over losses and resubmits them, oldest first
  // (Section V-D, "Drivers").  Returns how many frames were resent.
  std::size_t resubmit_tx(int ifindex);

  // --- L4 -> IP (receive-pool bookkeeping) --------------------------------------
  // L4 finished with a delivered frame chunk.
  void rx_done(const chan::RichPtr& frame);
  // Allocate / hand out receive buffers for drivers.
  chan::RichPtr alloc_rx_buffer(std::uint32_t len);

  // --- recovery -----------------------------------------------------------------
  const IpConfig& config() const { return cfg_; }
  void set_config(IpConfig cfg) { cfg_ = std::move(cfg); }

  const Stats& stats() const { return stats_; }
  ArpEngine& arp() { return arp_; }

  // Number of TX requests whose driver ack is still outstanding.
  std::size_t tx_pending() const { return tx_pending_.size(); }

 private:
  struct PendingTx {   // waiting for the driver's transmit ack
    L4Req req;                    // kIp for ARP and ICMP: nobody to notify
    int ifindex = 0;
    TxFrame frame;                // header is IP's; kept for resubmission
    chan::RichPtr desc;           // the host's descriptor for the driver
  };
  struct PendingPf {   // waiting for a PF verdict
    PfQuery query;
    bool outbound = false;
    // outbound:
    TxSeg seg;
    L4Req req;
    // inbound:
    int ifindex = 0;
    chan::RichPtr frame;
    std::uint16_t l4_offset = 0;
    std::uint16_t l4_length = 0;
    Ipv4Header ip_hdr;
    // inbound GRO aggregate (is_agg: `agg` replaces `frame`):
    bool is_agg = false;
    L4AggPacket agg;
  };
  struct AwaitingArp {  // routed, allowed, waiting for next-hop MAC
    TxSeg seg;
    L4Req req;
    int ifindex = 0;
  };

  std::optional<std::pair<int, Ipv4Addr>> route(Ipv4Addr dst) const;
  const Interface* iface(int ifindex) const;
  void continue_output(TxSeg&& seg, const L4Req& req, int ifindex,
                       Ipv4Addr next_hop);
  void transmit(TxSeg&& seg, const L4Req& req, int ifindex, MacAddr dst_mac);
  // Hands a frame to the host under a fresh transmit record.
  void send_frame(int ifindex, TxFrame&& frame, const L4Req& req);
  void deliver_inbound(int ifindex, chan::RichPtr frame,
                       const Ipv4Header& ip_hdr, std::uint16_t l4_offset,
                       std::uint16_t l4_length);
  void deliver_agg(L4AggPacket&& agg);
  void drop_agg(L4AggPacket&& agg);
  void handle_icmp(int ifindex, const chan::RichPtr& frame,
                   const Ipv4Header& ip_hdr, std::uint16_t l4_offset,
                   std::uint16_t l4_length);
  void send_arp_frame(int ifindex, const ArpPacket& pkt);
  void arp_resolved(int ifindex, Ipv4Addr ip, MacAddr mac);
  void drop_seg(TxSeg&& seg, const L4Req& req);

  Env env_;
  IpConfig cfg_;
  ArpEngine arp_;
  Stats stats_;

  std::uint16_t next_ip_id_ = 1;
  chan::RequestDb<PendingTx> tx_pending_;
  chan::RequestDb<PendingPf> pf_pending_;
  std::unordered_map<std::uint32_t, std::deque<AwaitingArp>> arp_waiting_;
};

}  // namespace newtos::net
