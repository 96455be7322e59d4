#include "src/servers/reincarnation.h"

#include <algorithm>

#include "src/servers/proto.h"

namespace newtos::servers {

namespace {
// Bound on retained probe cookies: late acks older than this horizon carry
// no useful RTT signal any more (their sender was reset long ago).
constexpr std::size_t kMaxProbeCookies = 1024;

constexpr sim::Time kHeartbeatInterval = 50 * sim::kMillisecond;
constexpr int kMaxMissedBeats = 2;
constexpr sim::Time kRestartDelay = 5 * sim::kMillisecond;  // exec + init

// --- supervision only ----------------------------------------------------------
constexpr sim::Time kProbeInterval = 100 * sim::kMillisecond;
// Three missed probes give the slowdown rung — two consecutive LATE acks —
// first claim on a slow-but-alive server; the wedge rung still fires when
// acks stop entirely.
constexpr int kMaxMissedProbes = 3;
// Slowdown rung: an ack with RTT > max(kSloFloor, kSloFactor * ewma) is an
// SLO strike; kSloStrikes consecutive strikes reset the child.  The floor
// is sized against the probe canary (~105 us service + <=0.5 ms of
// queueing jitter at baseline): a x64 slowdown inflates the canary to
// ~6.7 ms, a comfortable 3x past the floor, while a healthy-but-busy
// component stays 4x under it.
constexpr double kSloFactor = 4.0;
constexpr sim::Time kSloFloor = 2 * sim::kMillisecond;
constexpr int kSloStrikes = 2;
// Restart budget + exponential backoff: more than five restarts of one
// child inside ten seconds is a crash loop — quarantine it for the rest of
// the window.  Unsupervised, every restart waits exactly kRestartDelay.
constexpr int kRestartBudget = 5;
constexpr sim::Time kBudgetWindow = 10 * sim::kSecond;
constexpr sim::Time kBackoffCap = 2 * sim::kSecond;
}  // namespace

ReincarnationServer::ReincarnationServer(NodeEnv* env, sim::SimCore* core)
    : Server(env, "rs", core) {}

void ReincarnationServer::manage(Server* child) {
  // Idempotent: re-managing a child must not push a duplicate entry, which
  // would double-heartbeat it and double-count its restarts.
  for (const auto& c : children_) {
    if (c.server == child) return;
  }
  children_.push_back(Child{child, 0, false, 0, 0, 0});
  stats_.emplace(child->name(), ChildStats{});
}

void ReincarnationServer::set_probe_targets(
    std::vector<std::string> targets) {
  probe_targets_ = std::move(targets);
}

ReincarnationServer::Child* ReincarnationServer::child_by_name(
    const std::string& name) {
  for (auto& c : children_) {
    if (c.server->name() == name) return &c;
  }
  return nullptr;
}

void ReincarnationServer::start(bool restart) {
  const bool supervised = env().knobs.supervision;
  if (supervised) {
    for (const auto& t : probe_targets_) {
      expose_in_queue(t, 64);
      connect_out(t);
    }
  }
  announce(restart);
  timers()->schedule(kHeartbeatInterval, [this] { tick(); });
  if (supervised && !probe_targets_.empty()) {
    timers()->schedule(kProbeInterval, [this] { probe_tick(); });
  }
}

void ReincarnationServer::escalate(Child& child,
                                   std::uint64_t ChildStats::* counter) {
  ChildStats& s = stats_[child.server->name()];
  ++(s.*counter);
  const sim::Time now = sim().now();
  s.detect_ms = child.last_ok > 0 && now > child.last_ok
                    ? static_cast<double>(now - child.last_ok) /
                          sim::kMillisecond
                    : 0.0;
  child.missed = 0;
  child.server->kill();  // triggers child_crashed via report_crash
}

void ReincarnationServer::on_message(const std::string& from,
                                     const chan::Message& m, sim::Context&) {
  if (m.opcode != kWorkProbeAck) return;
  auto cit = probe_cookies_.find(m.req_id);
  if (cit == probe_cookies_.end() || cit->second.target != from) return;
  const sim::Time rtt = sim().now() - cit->second.sent_at;
  probe_cookies_.erase(cit);
  Probe& p = probes_[from];
  if (p.outstanding == m.req_id) {
    p.outstanding = 0;
    p.missed = 0;
  }
  Child* child = child_by_name(from);
  if (child != nullptr) child->last_ok = sim().now();

  // Slowdown rung: the child answers — but late.  The first samples seed
  // the EWMA unconditionally; after that only healthy acks feed it, so a
  // slowed-down server cannot drag its own SLO up.
  const bool warmed = p.samples >= 4;
  const double slo =
      std::max(static_cast<double>(kSloFloor), kSloFactor * p.ewma);
  if (warmed && static_cast<double>(rtt) > slo) {
    if (++p.slo_strikes >= kSloStrikes && child != nullptr &&
        child->server->alive() && !child->restart_pending) {
      p.slo_strikes = 0;
      escalate(*child, &ChildStats::slowdown_resets);
    }
    return;
  }
  p.slo_strikes = 0;
  p.ewma = p.samples == 0
               ? static_cast<double>(rtt)
               : p.ewma * 0.875 + static_cast<double>(rtt) * 0.125;
  ++p.samples;
}

void ReincarnationServer::probe_tick() {
  for (const auto& t : probe_targets_) {
    Probe& p = probes_[t];
    Child* child = child_by_name(t);
    if (child == nullptr || !child->server->alive() ||
        child->restart_pending) {
      // Dead or already reincarnating: crash/heartbeat machinery owns it.
      p.outstanding = 0;
      p.missed = 0;
      p.slo_strikes = 0;
      continue;
    }
    if (p.outstanding != 0) {
      // The cookie stays in probe_cookies_: a late ack is the slowdown
      // signal, not garbage.  The map is bounded below.
      ++p.missed;
      p.outstanding = 0;
      if (p.missed >= kMaxMissedProbes) {
        // Answers heartbeats but drops work: the silent wedge the paper
        // fixed by hand.  Reset it like a hung child.
        p.missed = 0;
        escalate(*child, &ChildStats::probe_resets);
        continue;
      }
    }
    chan::Message m;
    m.opcode = kWorkProbe;
    m.req_id = next_probe_++;
    sim::Context* ctx = in_handler() ? &cur() : nullptr;
    if (ctx != nullptr && send_to(t, m, *ctx)) {
      p.outstanding = m.req_id;
      probe_cookies_[m.req_id] = SentProbe{t, sim().now()};
      while (probe_cookies_.size() > kMaxProbeCookies) {
        probe_cookies_.erase(probe_cookies_.begin());  // oldest cookie first
      }
    }
  }
  timers()->schedule(kProbeInterval, [this] { probe_tick(); });
}

void ReincarnationServer::tick() {
  for (auto& child : children_) {
    if (child.restart_pending || !child.server->alive()) continue;
    if (child.missed >= kMaxMissedBeats) {
      // Unresponsive: reset it (Section V-D: "...resets it when it stops
      // responding to periodic heartbeats").
      escalate(child, &ChildStats::hang_resets);
      continue;
    }
    ++child.missed;
    Server* s = child.server;
    s->post_heartbeat([this, s] {
      for (auto& c : children_) {
        if (c.server == s) {
          c.missed = 0;
          c.last_ok = sim().now();
        }
      }
    });
  }
  timers()->schedule(kHeartbeatInterval, [this] { tick(); });
}

void ReincarnationServer::child_crashed(Server* child) {
  ++stats_[child->name()].crashes;
  schedule_restart(child);
}

void ReincarnationServer::schedule_restart(Server* child) {
  for (auto& c : children_) {
    if (c.server != child || c.restart_pending) continue;
    c.restart_pending = true;
    sim::Time delay = kRestartDelay;
    if (env().knobs.supervision) {
      const sim::Time now = sim().now();
      if (c.last_restart != 0 && now - c.last_restart > kBudgetWindow)
        c.recent_restarts = 0;
      c.last_restart = now;
      ++c.recent_restarts;
      // Exponential backoff: the Nth restart inside the window waits
      // 2^(N-1) times the exec+init delay, capped.
      for (int i = 1; i < c.recent_restarts && delay < kBackoffCap; ++i)
        delay *= 2;
      delay = std::min(delay, kBackoffCap);
      if (c.recent_restarts > kRestartBudget) {
        // Crash loop: quarantine.  The child stays down for a full budget
        // window; its peers already treat a down peer gracefully (classic
        // IP path, dead-replica queue drains), so the stack degrades
        // instead of flapping.
        delay = kBudgetWindow;
      }
      backoff_total_ += delay - kRestartDelay;
    }
    sim().after(delay, [this, child] {
      for (auto& c2 : children_) {
        if (c2.server == child) {
          c2.restart_pending = false;
          c2.missed = 0;
        }
      }
      ++stats_[child->name()].restarts;
      child->boot(/*restart=*/true);
    });
  }
}

std::uint64_t ReincarnationServer::total_restarts() const {
  std::uint64_t n = 0;
  for (const auto& [name, s] : stats_) n += s.restarts;
  return n;
}

}  // namespace newtos::servers
