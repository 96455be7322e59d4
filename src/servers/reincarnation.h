// The reincarnation server: parent of all system servers (Section V-D).
//
// It receives a "signal" when a child crashes and resets children that stop
// responding to periodic heartbeats; either way the child is restarted
// after a short exec+init delay, in restart mode, so it knows to recover its
// state from the storage server.  Faults are never injected into the
// reincarnation server itself (as in the paper).
//
// Heartbeats cannot see a *silently wedged* server — one that still answers
// kernel notifies but drops its real work (the paper's "we had to manually
// restart the TCP component").  With RuntimeKnobs::supervision on, the
// reincarnation server additionally sends periodic end-to-end WORK probes
// (kWorkProbe/kWorkProbeAck) to every component class (tcp/udp/ip/pf/drv);
// a transport's probe travels the synthetic echo rs -> tcpN -> ip -> pf and
// is acked back along the same path.  The two signals form an escalation
// ladder:
//
//   missed heartbeats            => Hang        => kill + reincarnate
//   heartbeats OK, probes missed => SilentWedge => kill + reincarnate
//   probe RTT > EWMA-based SLO   => Slowdown    => kill + reincarnate
//   (NIC counters flat, link up  => DeviceWedge => driver resets the device
//    — detected by the driver's own watchdog, see driver_server.h)
//
// Probe acks carry an RTT sample: a slowed-down server still answers, but
// late (its in-queue backlog grows without bound), so acks that exceed
// max(SLO floor, SLO factor * EWMA(healthy RTT)) for two probes in a row
// are treated as a detection.  Restarts are budgeted under supervision:
// more than five restarts of one child inside the budget window quarantines
// it (held down for a full window — peers degrade to their classic paths,
// as they do for any dead peer) and each consecutive restart doubles the
// exec+init delay up to a cap, so a crash-looping component degrades
// gracefully instead of flapping.  The tuning constants live in
// reincarnation.cc.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/servers/server.h"

namespace newtos::servers {

class ReincarnationServer : public Server {
 public:
  ReincarnationServer(NodeEnv* env, sim::SimCore* core);

  // Registers a child.  Children are booted by the node; we only restart.
  void manage(Server* child);
  // Declares which children receive end-to-end work probes.  Must be
  // called before boot; no-op without knobs.supervision.
  void set_probe_targets(std::vector<std::string> targets);

  // Crash signal (wired to NodeEnv::report_crash by the node).
  void child_crashed(Server* child);

  struct ChildStats {
    std::uint64_t crashes = 0;
    std::uint64_t hang_resets = 0;
    std::uint64_t probe_resets = 0;  // silent wedges caught by work probes
    std::uint64_t slowdown_resets = 0;  // SLO-rung detections
    std::uint64_t restarts = 0;
    // Detection latency of the most recent escalation: time from the last
    // positive signal (heartbeat or probe ack) to the kill.  -1 until the
    // first detection.
    double detect_ms = -1.0;
  };
  const std::map<std::string, ChildStats>& child_stats() const {
    return stats_;
  }
  std::uint64_t total_restarts() const;
  // Milliseconds of restart delay charged beyond the base exec+init time by
  // the backoff/budget machinery (0 unless a child crash-looped).
  std::uint64_t backoff_ms_total() const {
    return static_cast<std::uint64_t>(backoff_total_ / sim::kMillisecond);
  }

 protected:
  void start(bool restart) override;
  void on_message(const std::string&, const chan::Message&,
                  sim::Context&) override;

 private:
  struct Child {
    Server* server = nullptr;
    int missed = 0;
    bool restart_pending = false;
    sim::Time last_ok = 0;      // last heartbeat/probe ack seen
    int recent_restarts = 0;    // restarts inside the current budget window
    sim::Time last_restart = 0;
  };
  struct Probe {
    std::uint64_t outstanding = 0;  // cookie of the unanswered probe, or 0
    int missed = 0;
    int slo_strikes = 0;
    double ewma = 0.0;  // EWMA of healthy probe RTTs (ns)
    int samples = 0;
  };
  struct SentProbe {
    std::string target;
    sim::Time sent_at = 0;
  };

  void tick();
  void probe_tick();
  void schedule_restart(Server* child);
  Child* child_by_name(const std::string& name);
  // One rung of the ladder fired: record the detection and kill the child.
  void escalate(Child& child, std::uint64_t ChildStats::* counter);
  std::vector<Child> children_;
  std::map<std::string, ChildStats> stats_;
  std::vector<std::string> probe_targets_;
  std::map<std::string, Probe> probes_;
  // Every probe in flight, kept past its miss: a LATE ack is exactly the
  // slowdown signal, so cookies survive until answered or evicted (bounded).
  std::map<std::uint64_t, SentProbe> probe_cookies_;
  std::uint64_t next_probe_ = 1;
  sim::Time backoff_total_ = 0;
};

}  // namespace newtos::servers
