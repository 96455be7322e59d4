#include "src/drv/nic.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/net/checksum.h"
#include "src/net/headers.h"
#include "src/net/steering.h"

namespace newtos::drv {

SimNic::SimNic(sim::Simulator& sim, chan::PoolRegistry& pools,
               net::MacAddr mac, Config cfg)
    : sim_(sim), pools_(pools), mac_(mac), cfg_(cfg) {
  num_queues_ = std::max(1, cfg_.rx_queues);
  rx_rings_.resize(num_queues_);
  rx_accums_.resize(num_queues_);
  rx_timer_gens_.resize(num_queues_, 0);
  qstats_.resize(num_queues_);
}

// The hash unit's shallow parse: no checksum verification, no payload walk —
// just the fixed-offset fields a real RSS engine reads.  A frame whose IP
// total_length cannot cover the L4 ports (a fragment/truncation) is not
// steerable; neither is anything that is not IPv4 TCP/UDP.
SimNic::RssInfo SimNic::rss_classify(std::span<const std::byte> bytes) {
  RssInfo info;
  constexpr std::size_t kL4Off = net::kEthHeaderLen + net::kIpHeaderLen;
  if (bytes.size() < kL4Off + 4) return info;
  auto u8 = [&bytes](std::size_t i) {
    return std::to_integer<std::uint8_t>(bytes[i]);
  };
  const std::uint16_t ethertype =
      static_cast<std::uint16_t>((u8(12) << 8) | u8(13));
  if (ethertype != net::kEtherTypeIpv4) return info;
  if (u8(net::kEthHeaderLen) != 0x45) return info;  // version/IHL: no options
  const std::uint8_t proto = u8(net::kEthHeaderLen + 9);
  if (proto != net::kProtoTcp && proto != net::kProtoUdp) return info;
  const std::uint16_t total_length = static_cast<std::uint16_t>(
      (u8(net::kEthHeaderLen + 2) << 8) | u8(net::kEthHeaderLen + 3));
  if (total_length < net::kIpHeaderLen + 4) return info;  // ports truncated
  if (total_length > bytes.size() - net::kEthHeaderLen) return info;
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  src.value = (static_cast<std::uint32_t>(u8(net::kEthHeaderLen + 12)) << 24) |
              (static_cast<std::uint32_t>(u8(net::kEthHeaderLen + 13)) << 16) |
              (static_cast<std::uint32_t>(u8(net::kEthHeaderLen + 14)) << 8) |
              u8(net::kEthHeaderLen + 15);
  dst.value = (static_cast<std::uint32_t>(u8(net::kEthHeaderLen + 16)) << 24) |
              (static_cast<std::uint32_t>(u8(net::kEthHeaderLen + 17)) << 16) |
              (static_cast<std::uint32_t>(u8(net::kEthHeaderLen + 18)) << 8) |
              u8(net::kEthHeaderLen + 19);
  const std::uint16_t sport =
      static_cast<std::uint16_t>((u8(kL4Off) << 8) | u8(kL4Off + 1));
  const std::uint16_t dport =
      static_cast<std::uint16_t>((u8(kL4Off + 2) << 8) | u8(kL4Off + 3));
  info.steerable = true;
  info.proto = proto;
  info.hash = net::flow_hash(src, dst, sport, dport);
  return info;
}

void SimNic::attach_wire(Wire* wire, int end) {
  wire_ = wire;
  wire_end_ = end;
  wire_->attach(end, [this](std::vector<std::byte>&& bytes) {
    wire_deliver(std::move(bytes));
  });
}

bool SimNic::tx_post(net::TxFrame frame, std::uint64_t cookie) {
  if (static_cast<int>(tx_ring_.size()) >= kTxRing) {
    ++stats_.tx_ring_full;
    return false;
  }
  ++stats_.tx_descs;
  tx_ring_.push_back(TxEntry{std::move(frame), cookie});
  if (!tx_pumping_) pump_tx();
  return true;
}

bool SimNic::rx_post(int queue, chan::RichPtr buffer) {
  if (queue < 0 || queue >= num_queues_) return false;
  auto& ring = rx_rings_[queue];
  if (static_cast<int>(ring.size()) >= kRxRing) return false;
  ring.push_back(buffer);
  return true;
}

int SimNic::rx_ring_level() const {
  int n = 0;
  for (const auto& ring : rx_rings_) n += static_cast<int>(ring.size());
  return n;
}

int SimNic::rx_ring_level(int queue) const {
  if (queue < 0 || queue >= num_queues_) return 0;
  return static_cast<int>(rx_rings_[queue].size());
}

void SimNic::pump_tx() {
  if (tx_ring_.empty() || !link_up_ || wire_ == nullptr) {
    tx_pumping_ = false;
    return;
  }
  tx_pumping_ = true;
  const TxEntry& entry = tx_ring_.front();

  // Scatter-gather DMA: the device walks the chain and serializes.
  std::vector<std::byte> bytes =
      net::flatten(pools_, entry.frame.header, entry.frame.payload);

  sim::Time done_at = sim_.now();
  if (entry.frame.offload.tso &&
      entry.frame.payload_len() > entry.frame.offload.mss) {
    for (auto& piece : tso_split(bytes, entry.frame.offload.mss)) {
      ++stats_.tx_frames;
      done_at = wire_->transmit(wire_end_, std::move(piece));
    }
  } else {
    ++stats_.tx_frames;
    done_at = wire_->transmit(wire_end_, std::move(bytes));
  }

  const std::uint64_t cookie = entry.cookie;
  const std::uint32_t epoch = reset_epoch_;
  sim_.at(done_at, [this, cookie, epoch] {
    if (epoch != reset_epoch_) return;  // reset while in flight
    assert(!tx_ring_.empty() && tx_ring_.front().cookie == cookie);
    tx_ring_.pop_front();
    if (on_tx_done_) on_tx_done_(cookie, true);
    pump_tx();
  });
}

// Splits a flattened ETH+IP+TCP superframe into MTU-sized frames, patching
// sequence numbers, IP ids/lengths and the IP header checksum — exactly the
// job a TSO engine does in hardware.
std::vector<std::vector<std::byte>> SimNic::tso_split(
    const std::vector<std::byte>& super, std::uint16_t mss) const {
  std::vector<std::vector<std::byte>> out;
  constexpr std::size_t kHdr =
      net::kEthHeaderLen + net::kIpHeaderLen + net::kTcpHeaderLen;
  if (super.size() <= kHdr) {
    out.emplace_back(super);
    return out;
  }
  const std::size_t payload_len = super.size() - kHdr;

  // Header template fields we patch per piece.
  std::uint32_t base_seq;
  std::memcpy(&base_seq, super.data() + net::kEthHeaderLen +
                             net::kIpHeaderLen + 4, 4);
  base_seq = __builtin_bswap32(base_seq);
  std::uint16_t base_id;
  std::memcpy(&base_id, super.data() + net::kEthHeaderLen + 4, 2);
  base_id = static_cast<std::uint16_t>(__builtin_bswap16(base_id));
  const std::uint8_t flags =
      std::to_integer<std::uint8_t>(
          super[net::kEthHeaderLen + net::kIpHeaderLen + 13]);

  std::size_t off = 0;
  std::uint16_t piece_idx = 0;
  while (off < payload_len) {
    const std::size_t n = std::min<std::size_t>(mss, payload_len - off);
    const bool last = off + n == payload_len;
    std::vector<std::byte> frame(kHdr + n);
    std::memcpy(frame.data(), super.data(), kHdr);
    std::memcpy(frame.data() + kHdr, super.data() + kHdr + off, n);

    // Patch IP: total_length, id, checksum.
    const std::uint16_t tot =
        static_cast<std::uint16_t>(net::kIpHeaderLen + net::kTcpHeaderLen + n);
    frame[net::kEthHeaderLen + 2] =
        std::byte{static_cast<std::uint8_t>(tot >> 8)};
    frame[net::kEthHeaderLen + 3] = std::byte{static_cast<std::uint8_t>(tot)};
    const std::uint16_t id = static_cast<std::uint16_t>(base_id + piece_idx);
    frame[net::kEthHeaderLen + 4] =
        std::byte{static_cast<std::uint8_t>(id >> 8)};
    frame[net::kEthHeaderLen + 5] = std::byte{static_cast<std::uint8_t>(id)};
    frame[net::kEthHeaderLen + 10] = std::byte{0};
    frame[net::kEthHeaderLen + 11] = std::byte{0};
    const std::uint16_t ipsum = net::checksum(std::span<const std::byte>(
        frame.data() + net::kEthHeaderLen, net::kIpHeaderLen));
    frame[net::kEthHeaderLen + 10] =
        std::byte{static_cast<std::uint8_t>(ipsum >> 8)};
    frame[net::kEthHeaderLen + 11] =
        std::byte{static_cast<std::uint8_t>(ipsum)};

    // Patch TCP: seq, and clear FIN/PSH on all but the last piece.
    const std::uint32_t seq =
        base_seq + static_cast<std::uint32_t>(off);
    const std::size_t tcp_at = net::kEthHeaderLen + net::kIpHeaderLen;
    frame[tcp_at + 4] = std::byte{static_cast<std::uint8_t>(seq >> 24)};
    frame[tcp_at + 5] = std::byte{static_cast<std::uint8_t>(seq >> 16)};
    frame[tcp_at + 6] = std::byte{static_cast<std::uint8_t>(seq >> 8)};
    frame[tcp_at + 7] = std::byte{static_cast<std::uint8_t>(seq)};
    const std::uint8_t piece_flags =
        last ? flags
             : static_cast<std::uint8_t>(
                   flags &
                   ~(net::tcpflag::kFin | net::tcpflag::kPsh));
    frame[tcp_at + 13] = std::byte{piece_flags};

    out.push_back(std::move(frame));
    off += n;
    ++piece_idx;
  }
  return out;
}

void SimNic::wire_deliver(std::vector<std::byte>&& bytes) {
  if (!link_up_) return;
  if (bytes.size() < net::kEthHeaderLen) return;
  // MAC filter: us or broadcast.
  net::MacAddr dst;
  for (int i = 0; i < 6; ++i)
    dst.bytes[i] = std::to_integer<std::uint8_t>(bytes[i]);
  if (dst != mac_ && !dst.is_broadcast()) return;

  // The PHY saw the frame; a wedged (misconfigured) device drops it *after*
  // the MAC counters advanced, which is exactly how the driver's watchdog
  // tells "wedged" from "quiet wire".
  ++stats_.rx_phy_frames;
  if (wedged_) return;

  // RSS: the hash unit picks the queue for steerable frames; everything
  // else (and the whole single-queue device) stays on queue 0.
  const RssInfo rss = rss_classify(bytes);
  const int queue =
      (num_queues_ > 1 && rss.steerable)
          ? static_cast<int>(rss.hash % static_cast<std::uint32_t>(num_queues_))
          : 0;
  auto& ring = rx_rings_[queue];
  if (ring.empty()) {
    ++stats_.rx_no_buffer;
    ++qstats_[queue].rx_no_buffer;
    return;
  }
  chan::RichPtr buf = ring.front();
  ring.pop_front();
  chan::Pool* pool = pools_.find(buf.pool);
  if (pool == nullptr || bytes.size() > buf.length ||
      !pool->dma_write(buf, bytes)) {
    ++stats_.rx_bad_addr;  // stale buffer (pool reset under us): drop
    return;
  }
  ++stats_.rx_frames;
  ++qstats_[queue].rx_frames;
  // Interrupt coalescing: park the completed descriptor; the interrupt
  // fires when the burst threshold is met or the hold-off timer expires,
  // whichever is first.  Each queue accumulates and times out on its own.
  // A device that does not coalesce raises it for every frame.
  auto& accum = rx_accums_[queue];
  accum.push_back(RxCompletion{buf, static_cast<std::uint32_t>(bytes.size()),
                               rss.hash, static_cast<std::uint16_t>(queue),
                               rss.steerable, rss.proto});
  if (static_cast<int>(accum.size()) >= std::max(1, cfg_.rx_coalesce_frames)) {
    flush_rx_burst(queue, false);
    return;
  }
  if (accum.size() == 1) {
    const std::uint64_t gen = ++rx_timer_gens_[queue];
    const std::uint32_t epoch = reset_epoch_;
    sim_.after(static_cast<sim::Time>(cfg_.rx_coalesce_usecs) *
                   sim::kMicrosecond,
               [this, queue, gen, epoch] {
                 if (epoch != reset_epoch_ || gen != rx_timer_gens_[queue])
                   return;
                 flush_rx_burst(queue, true);
               });
  }
}

void SimNic::flush_rx_burst(int queue, bool timer_expired) {
  auto& accum = rx_accums_[queue];
  if (accum.empty()) return;
  if (coalescing()) {
    ++rx_timer_gens_[queue];  // cancel the armed hold-off timer, if any
    ++stats_.rx_bursts;
    ++qstats_[queue].rx_bursts;
    if (timer_expired) {
      ++stats_.rx_timer_flushes;
      ++qstats_[queue].rx_timer_flushes;
    }
  }
  if (on_rx_) on_rx_(queue, std::move(accum));
  accum.clear();
}

void SimNic::reset() {
  ++stats_.resets;
  ++reset_epoch_;
  tx_ring_.clear();  // shadow descriptors are gone; completions never fire
  for (auto& ring : rx_rings_) ring.clear();
  // Coalesced-but-unraised completions die with the rings: like the posted
  // RX buffers above, the chunks belong to IP's pool and are recovered when
  // IP reposts after the link comes back.
  for (auto& accum : rx_accums_) accum.clear();
  for (auto& gen : rx_timer_gens_) ++gen;
  tx_pumping_ = false;
  wedged_ = false;  // reconfiguration clears a misconfigured device
  if (link_up_) {
    link_up_ = false;
    if (on_link_) on_link_(false);
  }
  const std::uint32_t epoch = reset_epoch_;
  sim_.after(kResetLinkDelay, [this, epoch] {
    if (epoch != reset_epoch_) return;
    link_up_ = true;
    if (on_link_) on_link_(true);
    pump_tx();
  });
}

}  // namespace newtos::drv
