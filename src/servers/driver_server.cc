#include "src/servers/driver_server.h"

#include <cstring>
#include <span>

#include "src/net/headers.h"
#include "src/net/pbuf.h"

namespace newtos::servers {

void DriverServer::forward_rx_frame(const drv::SimNic::RxCompletion& c,
                                    sim::Context& ctx) {
  chan::Message m;
  m.opcode = kDrvRx;
  m.ptr = c.buffer;
  m.ptr.length = c.len;  // actual frame length within the buffer
  ++rx_msgs_;
  if (!send_to(ip_name_, m, ctx)) {
    // IP is down or its queue is full: the frame is dropped and counted
    // in rx_dropped(); the buffer itself belongs to IP's pool and will be
    // recovered when IP reposts buffers.
    ++rx_dropped_;
  }
}

DriverServer::DriverServer(NodeEnv* env, sim::SimCore* core, drv::SimNic* nic,
                           int ifindex, std::string ip_name)
    : Server(env, driver_name(ifindex), core),
      nic_(nic),
      ifindex_(ifindex),
      ip_name_(std::move(ip_name)) {}

void DriverServer::enable_fast_path(int tcp_shards, int udp_shards) {
  fast_path_ = true;
  tcp_shards_ = tcp_shards;
  udp_shards_ = udp_shards;
}

std::string DriverServer::fast_target(
    const drv::SimNic::RxCompletion& c) const {
  if (!fast_path_ || !c.steerable) return {};
  // A frame goes fast only when its home shard IS the queue's shard: the
  // NIC hash and steer_shard agree by construction, so with rx_queues ==
  // shards every steerable frame qualifies; with fewer queues the rest
  // keeps the classic path (and rx_queues = 1 means nothing ever does).
  if (c.proto == net::kProtoTcp) {
    const int shard =
        static_cast<int>(c.rss_hash % static_cast<std::uint32_t>(tcp_shards_));
    return shard == c.queue ? tcp_shard_name(shard) : std::string{};
  }
  const int shard =
      static_cast<int>(c.rss_hash % static_cast<std::uint32_t>(udp_shards_));
  return shard == c.queue ? udp_shard_name(shard) : std::string{};
}

void DriverServer::send_rx_credit(std::size_t frames, sim::Context& ctx) {
  if (frames == 0) return;
  // Fast-path frames consumed RX buffers IP never saw: tell it how many so
  // it keeps the rings fed.  If IP is down the posted-count reset on its
  // restart covers the difference.
  chan::Message m;
  m.opcode = kDrvRxCredit;
  m.arg0 = frames;
  send_to(ip_name_, m, ctx);
}

chan::RichPtr DriverServer::pack_run(
    std::span<const drv::SimNic::RxCompletion> run) {
  if (burst_pool_ == nullptr) return {};
  const std::uint32_t bytes =
      static_cast<std::uint32_t>(run.size() * sizeof(WireRxFrame));
  chan::RichPtr desc = burst_pool_->alloc(bytes);
  if (!desc.valid()) return desc;
  auto view = burst_pool_->write_view(desc);
  for (std::size_t i = 0; i < run.size(); ++i) {
    WireRxFrame rec;
    rec.frame = run[i].buffer;
    rec.frame.length = run[i].len;
    std::memcpy(view.data() + i * sizeof(WireRxFrame), &rec, sizeof(rec));
  }
  return desc;
}

void DriverServer::send_run_to_ip(
    std::span<const drv::SimNic::RxCompletion> run, sim::Context& ctx) {
  chan::RichPtr desc = run.size() > 1 ? pack_run(run) : chan::RichPtr{};
  if (!desc.valid()) {
    // A lone frame travels as itself; a longer run whose descriptor pool is
    // exhausted degrades to per-frame messages rather than being dropped.
    for (const auto& c : run) forward_rx_frame(c, ctx);
    return;
  }
  chan::Message m;
  m.opcode = kDrvRxBurst;
  m.ptr = desc;
  m.arg0 = run.size();
  ++rx_msgs_;
  if (!send_to(ip_name_, m, ctx)) {
    rx_dropped_ += run.size();
    burst_pool_->release(desc);
  }
}

std::size_t DriverServer::send_run_fast(
    const std::string& target, std::span<const drv::SimNic::RxCompletion> run,
    sim::Context& ctx) {
  chan::RichPtr desc = pack_run(run);
  if (!desc.valid()) {
    for (const auto& c : run) forward_rx_frame(c, ctx);
    return 0;
  }
  chan::Message m;
  m.opcode = kDrvRxFast;
  m.ptr = desc;
  m.arg0 = run.size();
  m.arg1 = static_cast<std::uint64_t>(ifindex_);
  ++rx_msgs_;
  if (!send_to(target, m, ctx)) {
    // The replica is down or backlogged (reincarnation in progress): its
    // queue drains through the classic IP path until it is back.
    burst_pool_->release(desc);
    send_run_to_ip(run, ctx);
    return 0;
  }
  rx_fast_frames_ += run.size();
  // The frame references are now on loan to the replica: if it dies with
  // the message still queued, IP's reclaim on the replica's restart
  // recovers them (the replica note_returns each frame as it unpacks).
  const char proto = run.front().proto == net::kProtoUdp ? 'U' : 'T';
  for (const auto& c : run) {
    chan::Pool* pool = env().pools->find(c.buffer.pool);
    if (pool != nullptr)
      pool->note_borrow(c.buffer, transport_borrower(proto, c.queue));
  }
  return run.size();
}

void DriverServer::receive(std::span<const drv::SimNic::RxCompletion> burst,
                           sim::Context& ctx) {
  // The per-frame descriptor work is charged per frame; the trap, the
  // receive and the mwait wakeup were paid once for the interrupt.
  charge(ctx, sim().costs().drv_packet_proc *
                  static_cast<sim::Cycles>(burst.size()));
  rx_frames_ += burst.size();
  // Split the burst into consecutive runs per target: the queue's home
  // replica for fast-eligible frames, IP for the rest.  A single-target
  // burst (every classic device) stays one message.
  std::size_t fast = 0;
  std::size_t i = 0;
  while (i < burst.size()) {
    const std::string target = fast_target(burst[i]);
    std::size_t j = i + 1;
    while (j < burst.size() && fast_target(burst[j]) == target) ++j;
    const auto run = burst.subspan(i, j - i);
    if (target.empty()) {
      send_run_to_ip(run, ctx);
    } else {
      fast += send_run_fast(target, run, ctx);
    }
    i = j;
  }
  send_rx_credit(fast, ctx);
}

void DriverServer::start(bool restart) {
  expose_in_queue(ip_name_, 512);
  connect_out(ip_name_);
  if (fast_path_) {
    for (int s = 0; s < tcp_shards_; ++s) connect_out(tcp_shard_name(s));
    for (int s = 0; s < udp_shards_; ++s) connect_out(udp_shard_name(s));
  }
  if (env().knobs.supervision) {
    expose_in_queue(kRsName, 64);
    connect_out(kRsName);
  }
  if (nic_->coalescing() || fast_path_) {
    burst_pool_ = env().get_pool(name() + ".buf", 1u << 20);
  }
  install_device_handlers();
  if (restart) {
    // A restarted driver cannot trust the device state it inherited
    // (Section V-D): full reset, link bounces, IP resubmits.
    nic_->reset();
  }
  if (env().knobs.supervision) {
    // Arm the device wedge watchdog.  TimerAdapter invalidates by
    // incarnation, so every restart re-arms a fresh one here.
    wd_last_phy_ = nic_->stats().rx_phy_frames;
    wd_last_rx_ = nic_->stats().rx_frames;
    wedge_strikes_ = 0;
    timers()->schedule(kWatchdogInterval, [this] { watchdog_tick(); });
  }
  announce(restart);
}

void DriverServer::watchdog_tick() {
  // e1000-style "hung adapter" heuristic: the MAC's good-packets counter
  // advances but no completed descriptor reaches the driver, with the link
  // up.  Two consecutive flat intervals mean the device is wedged (not just
  // a quiet wire — a quiet wire leaves BOTH counters flat); reset it.
  const auto& s = nic_->stats();
  const bool phy_advanced = s.rx_phy_frames != wd_last_phy_;
  const bool rx_advanced = s.rx_frames != wd_last_rx_;
  wd_last_phy_ = s.rx_phy_frames;
  wd_last_rx_ = s.rx_frames;
  if (nic_->link_up() && phy_advanced && !rx_advanced) {
    if (++wedge_strikes_ >= 2) {
      wedge_strikes_ = 0;
      ++wedge_resets_;
      // The reset clears the wedge (a misconfigured card reconfigures from
      // scratch) at the price of a link bounce; IP resubmits.
      tx_backlog_.clear();
      nic_->reset();
    }
  } else {
    wedge_strikes_ = 0;
  }
  timers()->schedule(kWatchdogInterval, [this] { watchdog_tick(); });
}

void DriverServer::install_device_handlers() {
  const std::uint32_t inc = incarnation();
  // Interrupts are converted to kernel messages by the microkernel
  // (Section V-B); each handler charges the receive path on our core.
  nic_->set_tx_done([this, inc](std::uint64_t cookie, bool ok) {
    if (incarnation() != inc) return;
    post_kernel_msg(
        [this, cookie, ok](sim::Context& ctx) {
          chan::Message m;
          m.opcode = kDrvTxDone;
          m.req_id = cookie;
          m.arg0 = ok ? 1 : 0;
          send_to(ip_name_, m, ctx);
          drain_backlog(ctx);  // a ring slot just freed up
        },
        100);
  });
  // ONE kernel message per receive interrupt, however many frames it holds.
  nic_->set_rx([this, inc](int,
                           std::vector<drv::SimNic::RxCompletion>&& burst) {
    if (incarnation() != inc) return;
    post_kernel_msg(
        [this, b = drv::SimNic::RxBurst(std::move(burst))](
            sim::Context& ctx) { receive(b.frames(), ctx); },
        100);
  });
  nic_->set_link_change([this, inc](bool up) {
    if (incarnation() != inc) return;
    post_kernel_msg(
        [this, up](sim::Context& ctx) {
          if (up) drain_backlog(ctx);  // the reset emptied the TX ring
          chan::Message m;
          m.opcode = kDrvLink;
          m.arg0 = up ? 1 : 0;
          send_to(ip_name_, m, ctx);
        },
        50);
  });
}

void DriverServer::on_message(const std::string& from, const chan::Message& m,
                              sim::Context& ctx) {
  (void)from;
  switch (m.opcode) {
    case kDrvTx: {
      charge(ctx, sim().costs().drv_packet_proc);
      auto chain = net::unpack_chain(*env().pools, m.ptr);
      if (!chain) {
        chan::Message done;
        done.opcode = kDrvTxDone;
        done.req_id = m.req_id;
        done.arg0 = 0;
        send_to(ip_name_, done, ctx);
        return;
      }
      net::TxFrame frame;
      frame.header = chain->header;
      frame.payload = std::move(chain->payload);
      frame.offload = chain->offload;
      drain_backlog(ctx);  // opportunistic: ring slots may have freed up
      if (!tx_backlog_.empty() || nic_->tx_ring_free() == 0) {
        if (tx_backlog_.size() >= kMaxBacklog) {
          // Shed load: tell IP the frame was not accepted (never block).
          chan::Message done;
          done.opcode = kDrvTxDone;
          done.req_id = m.req_id;
          done.arg0 = 0;
          send_to(ip_name_, done, ctx);
          return;
        }
        tx_backlog_.emplace_back(std::move(frame), m.req_id);
        return;
      }
      nic_->tx_post(std::move(frame), m.req_id);
      return;
    }
    case kDrvRxBuf: {
      charge(ctx, 80);
      // Feed the emptiest queue ring: RSS load is hash-spread, so keeping
      // the rings level keeps every queue fed.  Single-queue devices see
      // exactly the old rx_post.
      int best = 0;
      for (int q = 1; q < nic_->rx_queue_count(); ++q) {
        if (nic_->rx_ring_level(q) < nic_->rx_ring_level(best)) best = q;
      }
      nic_->rx_post(best, m.ptr);
      return;
    }
    case kWorkProbe: {
      // Supervision probe: a driver's "work" is servicing the device, but
      // for liveness purposes dequeuing the probe proves the event loop
      // turns (device health is the watchdog's job, not the probe's).  The
      // ack follows the canary charge so its latency reflects a slowdown.
      charge(ctx, sim().costs().probe_canary);
      reply_after_charges([this, cookie = m.req_id](sim::Context& c) {
        chan::Message ack;
        ack.opcode = kWorkProbeAck;
        ack.req_id = cookie;
        ack.arg0 = 1;
        send_to(kRsName, ack, c);
      });
      return;
    }
    default:
      return;  // validate-and-ignore (Section IV-A)
  }
}

void DriverServer::drain_backlog(sim::Context& ctx) {
  (void)ctx;
  while (!tx_backlog_.empty() && nic_->tx_ring_free() > 0) {
    auto [frame, cookie] = std::move(tx_backlog_.front());
    tx_backlog_.pop_front();
    nic_->tx_post(std::move(frame), cookie);
  }
}

void DriverServer::on_peer_up(const std::string& peer, bool restarted,
                              sim::Context& ctx) {
  (void)ctx;
  if (peer == ip_name_ && restarted) {
    // The Intel gigabit adapters have no knob to invalidate their shadow
    // copies of the RX/TX descriptors, which point into the dead IP's pools:
    // a crash of IP means de facto restart of the network drivers too
    // (Section V-D).  Frames queued for the dead incarnation are dropped;
    // the new IP resubmits what still matters.
    tx_backlog_.clear();
    nic_->reset();
  }
}

}  // namespace newtos::servers
