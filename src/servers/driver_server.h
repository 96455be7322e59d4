// Network driver server: one per NIC, the paper's near-stateless component.
//
// The driver fills device descriptors from the zero-copy chains IP sends,
// converts device interrupts into receive messages, and posts IP-owned
// receive buffers into the RX ring.  It holds no recoverable state: a
// restart resets the device (losing whatever was in the rings — IP
// resubmits) and the link bounces.
//
// Every receive interrupt is one burst from one queue (a burst of one when
// the device does not coalesce) and one kernel message, handled in one
// place: a lone frame goes to IP as kDrvRx, a longer run as one
// kDrvRxBurst.  With multi-queue RSS enabled, a queue's steerable frames go
// straight to the queue's home transport replica (kDrvRxFast), skipping the
// central IP hop; everything else — and every frame when a replica is
// down — goes through IP.
#pragma once

#include <cstdint>
#include <span>

#include "src/drv/nic.h"
#include "src/servers/proto.h"
#include "src/servers/server.h"

namespace newtos::servers {

class DriverServer : public Server {
 public:
  // `ip_name` is the peer hosting the IP layer: the IP server in the split
  // stack, the combined "stack" server otherwise.
  DriverServer(NodeEnv* env, sim::SimCore* core, drv::SimNic* nic,
               int ifindex, std::string ip_name = kIpName);

  // Turns on the RSS fast path: a queue's frames whose 4-tuple hash homes
  // on the shard with the queue's index bypass IP.  Must be called before
  // boot; a driver without this keeps the classic single-target RX path.
  void enable_fast_path(int tcp_shards, int udp_shards);

  drv::SimNic& nic() { return *nic_; }
  int ifindex() const { return ifindex_; }

  // Receive-path accounting (the bench's msgs-per-frame datapoint and the
  // Section IV-A drop policy made visible).
  std::uint64_t rx_msgs() const { return rx_msgs_; }
  std::uint64_t rx_frames() const { return rx_frames_; }
  // Frames dropped because IP's queue was full (or IP was down).
  std::uint64_t rx_dropped() const { return rx_dropped_; }
  // Frames that took the RSS fast path straight to a transport replica.
  std::uint64_t rx_fast_frames() const { return rx_fast_frames_; }
  // Device resets issued by the wedge watchdog (supervision only): the MAC
  // counters kept advancing while no completed descriptor reached us, with
  // the link up — the paper's "misconfigured card" fault, cleared by reset.
  std::uint64_t wedge_resets() const { return wedge_resets_; }

 protected:
  void start(bool restart) override;
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  void on_peer_up(const std::string& peer, bool restarted,
                  sim::Context& ctx) override;
  void on_killed() override { tx_backlog_.clear(); }

 private:
  void install_device_handlers();
  // Supervision: e1000-style watchdog tick comparing the device's PHY
  // counter against delivered frames; two flat strikes reset the device.
  void watchdog_tick();
  void drain_backlog(sim::Context& ctx);
  void forward_rx_frame(const drv::SimNic::RxCompletion& c,
                        sim::Context& ctx);
  // Home replica for a completion; empty = classic IP path.
  std::string fast_target(const drv::SimNic::RxCompletion& c) const;
  // One receive interrupt's frames, all from one queue.
  void receive(std::span<const drv::SimNic::RxCompletion> burst,
               sim::Context& ctx);
  // Packs `run` into one WireRxFrame descriptor of the staging pool;
  // invalid when there is no staging pool or it is exhausted.
  chan::RichPtr pack_run(std::span<const drv::SimNic::RxCompletion> run);
  // Sends `run` to IP: a lone frame as kDrvRx, a longer run as one
  // kDrvRxBurst (per-frame kDrvRx when no descriptor can be packed).
  void send_run_to_ip(std::span<const drv::SimNic::RxCompletion> run,
                      sim::Context& ctx);
  // Sends `run` to `target` as one kDrvRxFast; returns the number of
  // frames that actually went fast (0 = the run was degraded to IP).
  std::size_t send_run_fast(const std::string& target,
                            std::span<const drv::SimNic::RxCompletion> run,
                            sim::Context& ctx);
  void send_rx_credit(std::size_t frames, sim::Context& ctx);

  drv::SimNic* nic_;
  int ifindex_;
  std::string ip_name_;
  bool fast_path_ = false;
  int tcp_shards_ = 1;
  int udp_shards_ = 1;
  // Staging pool for burst descriptors; created only when the device
  // coalesces or the fast path packs records (the classic per-frame driver
  // allocates nothing).
  chan::Pool* burst_pool_ = nullptr;
  std::uint64_t rx_msgs_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t rx_dropped_ = 0;
  std::uint64_t rx_fast_frames_ = 0;
  // Frames waiting for TX ring slots.  The driver never blocks on a full
  // ring (Section IV-A); it buffers a bounded backlog and sheds beyond it.
  std::deque<std::pair<net::TxFrame, std::uint64_t>> tx_backlog_;
  static constexpr std::size_t kMaxBacklog = 1024;
  // Wedge watchdog state (supervision only).
  std::uint64_t wd_last_phy_ = 0;
  std::uint64_t wd_last_rx_ = 0;
  int wedge_strikes_ = 0;
  std::uint64_t wedge_resets_ = 0;
  static constexpr sim::Time kWatchdogInterval = 250 * sim::kMillisecond;
};

}  // namespace newtos::servers
