#include "src/servers/server.h"

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/servers/proto.h"

namespace newtos::servers {

Server::Server(NodeEnv* env, std::string name, sim::SimCore* core)
    : env_(env), name_(std::move(name)), core_(core) {}

Server::~Server() = default;

sim::Time Server::ClockAdapter::now() const { return s_->sim().now(); }

net::TimerService::TimerId Server::TimerAdapter::schedule(
    sim::Time delay, std::function<void()> fn) {
  Server* s = s_;
  const std::uint32_t inc = s->incarnation_;
  return s->sim().after(delay, [s, inc, fn = std::move(fn)] {
    // Timers die with the incarnation that armed them.
    if (!s->alive_ || s->hung_ || inc != s->incarnation_) return;
    s->post_control([fn](sim::Context&) { fn(); }, 150);
  });
}

void Server::TimerAdapter::cancel(TimerId id) { s_->sim().cancel(id); }

void Server::charge(sim::Context& ctx, sim::Cycles c) const {
  ctx.charge(static_cast<sim::Cycles>(static_cast<double>(c) *
                                      env_->knobs.cost_scale * slowdown_));
}

// --- lifecycle -----------------------------------------------------------------------

void Server::boot(bool restart) {
  assert(!alive_);
  alive_ = true;
  hung_ = false;
  announced_ = false;
  sleeping_ = true;
  pump_scheduled_ = false;
  slowdown_ = 1.0;
  drop_work_ = false;
  ++incarnation_;
  start(restart);
}

void Server::kill() {
  if (!alive_) return;
  alive_ = false;
  hung_ = false;
  on_killed();
  // The process is gone: its subscriptions, publications and pending work
  // evaporate.  Queues are node-owned and merely reset.
  for (auto id : subs_) env_->registry->unsubscribe(id);
  subs_.clear();
  for (auto& key : published_keys_) env_->registry->unpublish(key);
  published_keys_.clear();
  env_->channels->revoke_all(name_);
  for (auto& in : in_queues_) in.queue->reset();
  in_queues_.clear();
  outs_.clear();
  const std::deque<Control> dropped = std::exchange(control_, {});
  rdb_.clear();
  for (const Control& c : dropped) {
    if (c.on_drop) c.on_drop();
  }
  if (env_->report_crash) env_->report_crash(this);
}

void Server::hang() { hung_ = true; }

void Server::post_heartbeat(std::function<void()> ack) {
  if (!alive_ || hung_) return;  // a dead or wedged server cannot answer
  post_control([ack = std::move(ack)](sim::Context&) { ack(); }, 120);
}

void Server::post_kernel_msg(std::function<void(sim::Context&)> fn,
                             sim::Cycles extra_cost,
                             std::function<void()> on_drop) {
  if (!alive_) return;
  const sim::Cycles cost = env_->kernel->receive(sizeof(chan::Message)) +
                           extra_cost;
  control_.push_back(Control{std::move(fn), cost, std::move(on_drop)});
  wake();
}

void Server::post_control(std::function<void(sim::Context&)> fn,
                          sim::Cycles cost) {
  if (!alive_) return;
  control_.push_back(Control{std::move(fn), cost, {}});
  wake();
}

void Server::on_peer_up(const std::string&, bool, sim::Context&) {}
void Server::on_peer_down(const std::string&, sim::Context&) {}
void Server::store_state(sim::Context&) {}
void Server::on_stored(std::uint32_t, std::span<const std::byte>,
                       sim::Context&) {}

// --- storage client --------------------------------------------------------------------

bool Server::store_put(std::uint32_t key, std::span<const std::byte> value,
                       chan::Pool& pool, sim::Context& ctx) {
  chan::RichPtr chunk = pool.alloc(static_cast<std::uint32_t>(value.size()));
  if (!chunk.valid()) return false;
  auto view = pool.write_view(chunk);
  std::copy(value.begin(), value.end(), view.begin());
  chan::Message m;
  m.opcode = kStorePut;
  m.arg0 = key;
  m.req_id = rdb_.add(Request{key, chunk});
  m.ptr = chunk;
  if (send_to(kStoreName, m, ctx)) return true;
  rdb_.take(m.req_id);
  pool.release(chunk);
  return false;
}

bool Server::store_get(std::uint32_t key, sim::Context& ctx) {
  chan::Message m;
  m.opcode = kStoreGet;
  m.arg0 = key;
  m.req_id = rdb_.add(Request{key, {}});
  if (send_to(kStoreName, m, ctx)) return true;
  rdb_.take(m.req_id);
  return false;
}

void Server::dispatch(const std::string& from, const chan::Message& m,
                      sim::Context& ctx) {
  switch (m.opcode) {
    case kStoreAck:
      // The storage server copied the value: the chunk the put recorded
      // goes back to our pool.  A stale ack, from before our own restart,
      // is ignored.
      if (auto req = rdb_.take(m.req_id)) env_->pools->release(req->chunk);
      return;
    case kStoreReply: {
      const auto req = rdb_.take(m.req_id);
      if (!req) return;
      const bool found = m.arg0 != 0;
      on_stored(req->key,
                found ? env_->pools->read(m.ptr)
                      : std::span<const std::byte>{},
                ctx);
      // Only after on_stored: a restore that chains its next kStoreGet from
      // the handler gets it queued ahead of this release.
      if (found) {
        chan::Message rel;
        rel.opcode = kStoreRelease;
        rel.ptr = m.ptr;
        send_to(kStoreName, rel, ctx);
      }
      return;
    }
    default:
      on_message(from, m, ctx);
      return;
  }
}

// --- channel plumbing -----------------------------------------------------------------

chan::Queue* Server::expose_in_queue(const std::string& from,
                                     std::size_t capacity) {
  const std::string qname = from + ">" + name_;
  chan::Queue* q = env_->get_queue(qname, capacity);
  q->reset();
  q->doorbell().arm([this] { wake(); });
  in_queues_.push_back(InQueue{from, q});
  // Export to the producer and publish the credential; the producer's
  // subscription to "chan.<qname>" fires and it attaches (Section IV-C).
  const auto cred = env_->channels->export_queue(name_, from, q);
  const std::string key = "chan." + qname;
  env_->registry->publish(key, chan::Published{name_, cred});
  published_keys_.push_back(key);
  return q;
}

void Server::connect_out(const std::string& peer) {
  if (outs_.count(peer)) return;
  outs_[peer] = OutPeer{};
  // Attach to the peer's in-queue for us when it (re)appears.
  subs_.push_back(env_->registry->subscribe(
      "chan." + name_ + ">" + peer,
      [this, peer](const std::string&, const chan::Published& pub, bool up,
                   bool /*replay*/) {
        if (!alive_) return;
        if (up) {
          chan::Queue* q = env_->channels->attach(name_, pub.value);
          outs_[peer].queue = q;
        } else {
          outs_[peer].queue = nullptr;
        }
      }));
  // Track the peer's lifecycle announcements.
  subs_.push_back(env_->registry->subscribe(
      "server." + peer + ".up",
      [this, peer](const std::string&, const chan::Published& pub, bool up,
                   bool replay) {
        if (!alive_) return;
        // A replayed announcement is not a live restart transition: recovery
        // actions (state re-store, resubmission) must not fire from it.
        const bool restarted = pub.value != 0 && !replay;
        outs_[peer].up = up;
        post_control(
            [this, peer, up, restarted](sim::Context& ctx) {
              if (up) {
                // The storage server came back empty: store everything
                // again.
                if (restarted && peer == kStoreName) store_state(ctx);
                on_peer_up(peer, restarted, ctx);
              } else {
                on_peer_down(peer, ctx);
              }
            },
            200);
      }));
}

bool Server::peer_ready(const std::string& peer) const {
  auto it = outs_.find(peer);
  return it != outs_.end() && it->second.up && it->second.queue != nullptr;
}

bool Server::send_to(const std::string& peer, const chan::Message& m,
                     sim::Context& ctx) {
  // Gate on the attached queue only, not on the peer's "up" announcement: a
  // restarting server must be able to talk to the storage server (and
  // receive its reply) *before* it announces itself recovered.
  auto it = outs_.find(peer);
  if (it == outs_.end() || it->second.queue == nullptr) return false;
  if (env_->knobs.ipc == IpcMode::kKernelSync) {
    // Classic path: trap into the kernel, copy, context switch (Table II
    // line 1 runs everything on one core, so the switch is real).
    charge(ctx, env_->kernel->sync_send_same_core(sizeof m));
  } else {
    charge(ctx, sim().costs().channel_enqueue);
  }
  return it->second.queue->try_send(m);
}

void Server::send_to_all(const std::vector<std::string>& peers,
                         const chan::Message& m, sim::Context& ctx) {
  for (const auto& peer : peers) send_to(peer, m, ctx);
}

void Server::reply_after_charges(std::function<void(sim::Context&)> fn) {
  core_->exec(sim().now(),
              [this, inc = incarnation_, fn = std::move(fn)](sim::Context& c) {
                if (!alive_ || hung_ || inc != incarnation_) return;
                fn(c);
              });
}

void Server::announce(bool restarted) {
  announced_ = true;
  const std::string key = "server." + name_ + ".up";
  env_->registry->publish(key,
                          chan::Published{name_, restarted ? 1ull : 0ull});
  published_keys_.push_back(key);
}

// --- event pump ------------------------------------------------------------------------

void Server::wake() {
  if (!alive_ || hung_ || pump_scheduled_) return;
  pump_scheduled_ = true;
  core_->exec(sim().now(), [this, inc = incarnation_](sim::Context& ctx) {
    if (!alive_ || hung_ || inc != incarnation_) {
      pump_scheduled_ = false;
      return;
    }
    pump(ctx);
  });
}

namespace {
const bool g_trace = std::getenv("NEWTOS_TRACE") != nullptr;
}  // namespace

void Server::pump(sim::Context& ctx) {
  if (g_trace)
    std::fprintf(stderr, "[%.6f] pump %s/%s\n", sim().now() / 1e9,
                 env_->node_name.c_str(), name_.c_str());
  const auto& costs = sim().costs();
  if (sleeping_) {
    // The kernel restores our user context after MWAIT (Section IV-B).
    charge(ctx, costs.mwait_wakeup);
    sleeping_ = false;
    ++wakeups_;
  }

  current_ctx_ = &ctx;
  int handled = 0;
  while (handled < kBatch) {
    if (!control_.empty()) {
      Control c = std::move(control_.front());
      control_.pop_front();
      charge(ctx, c.cost);
      c.fn(ctx);
      ++handled;
      ++messages_handled_;
      if (!alive_ || hung_) {
        current_ctx_ = nullptr;
        pump_scheduled_ = false;
        return;
      }
      continue;
    }
    bool got = false;
    bool died = false;
    for (std::size_t i = 0; i < in_queues_.size(); ++i) {
      chan::Message m;
      if (!in_queues_[i].queue->try_recv(m)) continue;
      if (env_->knobs.ipc == IpcMode::kKernelSync) {
        charge(ctx, env_->kernel->receive(sizeof m) + costs.context_switch);
      } else {
        charge(ctx, costs.channel_dequeue + costs.cache_line_pull);
      }
      // By reference: in_queues_ only mutates in start() (boot-time) and
      // kill() (never self-invoked from a handler), so the name outlives
      // the on_message call — no per-message heap churn.
      const std::string& from = in_queues_[i].from;
      if (g_trace)
        std::fprintf(stderr, "[%.6f]   msg %s->%s op=%u\n", sim().now() / 1e9,
                     from.c_str(), name_.c_str(), m.opcode);
      if (!drop_work_) dispatch(from, m, ctx);
      ++handled;
      ++messages_handled_;
      got = true;
      if (!alive_ || hung_) {  // killed ourselves while handling a message
        died = true;
        break;
      }
      if (handled >= kBatch) break;
    }
    if (died) {
      current_ctx_ = nullptr;
      pump_scheduled_ = false;
      return;
    }
    if (!got) break;
  }
  current_ctx_ = nullptr;

  // More work pending?  Yield the core briefly (other events interleave) and
  // continue; otherwise arm the doorbells and halt the core.
  bool pending = !control_.empty();
  for (auto& in : in_queues_) pending = pending || !in.queue->empty();
  if (pending) {
    core_->exec(sim().now(), [this, inc = incarnation_](sim::Context& c2) {
      if (!alive_ || hung_ || inc != incarnation_) {
        pump_scheduled_ = false;
        return;
      }
      pump(c2);
    });
  } else {
    enter_idle(ctx);
  }
}

void Server::enter_idle(sim::Context& ctx) {
  pump_scheduled_ = false;
  for (auto& in : in_queues_) in.queue->doorbell().arm([this] { wake(); });
  // Entering kernel-assisted MWAIT costs a trap.
  charge(ctx, env_->kernel->mwait_enter());
  sleeping_ = true;

  // Re-check: a message may have raced in between our last scan and arming
  // the doorbells (the classic sleep/wakeup race, resolved by MONITOR
  // semantics: re-inspect after arming).
  bool pending = !control_.empty();
  for (auto& in : in_queues_) pending = pending || !in.queue->empty();
  if (pending) wake();
}

}  // namespace newtos::servers
