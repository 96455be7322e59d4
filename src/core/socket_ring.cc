#include "src/core/socket_ring.h"

#include <utility>

#include "src/core/node.h"
#include "src/servers/proto.h"

namespace newtos {

SocketRing::SocketRing(Node& node, AppActor& app, std::size_t depth)
    : node_(node), app_(app), sq_(depth), cq_(depth) {}

bool SocketRing::enqueue(SockSqe op, CompletionFn cb) {
  op.req_id = next_cookie_++;
  if (!sq_.try_push(op)) {
    // Full SQ: never block (Section IV-A).  The op fails with an error
    // completion and the application's retry policy takes over.
    cbs_[op.req_id] = PendingCb{op.opcode, std::move(cb)};
    fail(op);
    return false;
  }
  cbs_[op.req_id] = PendingCb{op.opcode, std::move(cb)};
  if (op.opcode == servers::kSockOpen) {
    (op.proto == 'U' ? last_open_u_ : last_open_t_) = op.req_id;
  }
  schedule_flush();
  return true;
}

void SocketRing::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // The deferred doorbell: ops enqueued for the rest of this handler turn
  // join the batch; the flush itself is the one trap they all share.
  app_.call(
      [this](sim::Context& ctx) {
        flush_scheduled_ = false;
        do_flush(ctx);
      },
      50);
}

void SocketRing::do_flush(sim::Context& ctx) {
  std::vector<SockSqe> batch;
  SockSqe e;
  while (sq_.try_pop(e)) batch.push_back(e);
  flush_watermark_ = next_cookie_;
  if (batch.empty()) return;

  ops_ += batch.size();
  ++doorbells_;
  node_.stats().add("sockring.ops", batch.size());
  node_.stats().add("sockring.doorbells");

  const auto& cfg = node_.config();
  const auto& costs = node_.sim().costs();

  // The app-side trap — ONE for the whole batch.  The per-op cost is only
  // the copy of the packed descriptors into the submission window.
  if (cfg.mode == StackMode::kIdealMonolithic) {
    ctx.charge(80 + static_cast<sim::Cycles>(8 * batch.size()));
  } else {
    ctx.charge(costs.trap_hot +
               static_cast<sim::Cycles>(costs.copy_per_byte *
                                        sizeof(servers::WireSockOp) *
                                        batch.size()));
  }

  if (servers::SyscallServer* sys = node_.syscall()) {
    sys->submit_batch(std::move(batch), reply_);
    return;
  }
  route_direct(std::move(batch));
}

void SocketRing::route_direct(std::vector<SockSqe> batch) {
  const auto& cfg = node_.config();
  const auto& costs = node_.sim().costs();

  if (cfg.combined_stack()) {
    servers::StackServer* stack = node_.stack_server();
    if (stack == nullptr || !stack->alive()) {
      for (const auto& op : batch) fail(op, kSockEDown);
      return;
    }
    // Direct kernel IPC into the combined stack: it pays one (cold) trap
    // for the whole batch instead of one per op.
    const sim::Cycles toll = cfg.mode == StackMode::kIdealMonolithic
                                 ? 0
                                 : costs.trap_cold - costs.trap_hot;
    auto drop = fail_all(batch);
    stack->post_kernel_msg(
        [this, stack, batch = std::move(batch)](sim::Context& sctx) {
          stack->sock_batch(batch, sctx, reply_);
        },
        toll, std::move(drop));
    return;
  }

  // Table II line 2: no SYSCALL server — the app traps straight into the
  // transports, polluting their caches.  The batch still amortizes the
  // cold trap, but each reply keeps its synchronous toll (trap + IPI +
  // context restore on the blocked app).  With a sharded plane the app
  // traps once per replica it targets; opens spread round-robin and every
  // later op follows the shard its socket id encodes.
  std::vector<int> shard_of(batch.size(), 0);
  servers::route_sock_shards(
      batch, node_.tcp_shard_count(), node_.udp_shard_count(),
      node_.direct_open_cursors(),
      [&](std::size_t i, int shard) { shard_of[i] = shard; },
      [&](char proto, int shard) {
        servers::Server* s = node_.transport_server(proto, shard);
        return s != nullptr && s->alive();
      });

  for (const char proto : {'T', 'U'}) {
    const int shards = proto == 'T' ? node_.tcp_shard_count()
                                    : node_.udp_shard_count();
    for (int shard = 0; shard < shards; ++shard) {
      std::vector<std::size_t> idxs;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].proto == proto && shard_of[i] == shard) idxs.push_back(i);
      }
      if (idxs.empty()) continue;
      auto* srv = static_cast<servers::TransportServer*>(
          node_.transport_server(proto, shard));
      if (srv == nullptr || !srv->alive()) {
        for (std::size_t i : idxs) fail(batch[i], kSockEDown);
        continue;
      }
      const sim::Cycles reply_toll =
          costs.trap_hot + costs.ipi + costs.mwait_wakeup;
      std::vector<SockSqe> ops;
      ops.reserve(idxs.size());
      for (std::size_t i : idxs) ops.push_back(batch[i]);
      auto drop = fail_all(ops);
      auto run = [this, srv, reply_toll,
                  ops = std::move(ops)](sim::Context& sctx) {
        srv->sock_batch(ops, sctx, [&](const chan::Message& r) {
          srv->cur().charge(reply_toll);
          on_reply(r);
        });
      };
      srv->post_kernel_msg(std::move(run), costs.trap_cold, std::move(drop));
    }
  }
}

std::function<void()> SocketRing::fail_all(std::vector<SockSqe> ops) {
  return [this, ops = std::move(ops)] {
    for (const auto& op : ops) fail(op, kSockEDown);
  };
}

void SocketRing::on_reply(const chan::Message& r) {
  const auto it = cbs_.find(r.req_id);
  if (it == cbs_.end()) return;  // settled already
  SockCqe c;
  c.cookie = r.req_id;
  c.opcode = it->second.opcode;
  c.sock = r.socket;
  c.value = r.arg0;
  c.ok = (r.flags & 1) == 0 &&
         (c.opcode == servers::kSockClose || r.arg0 != 0);
  c.err = c.ok ? kSockOk : kSockERejected;
  push_cqe(c);
}

void SocketRing::fail_local(SockSqe op, CompletionFn cb, std::uint16_t err) {
  op.req_id = next_cookie_++;
  cbs_[op.req_id] = PendingCb{op.opcode, std::move(cb)};
  fail(op, err);
}

void SocketRing::fail(const SockSqe& op, std::uint16_t err) {
  // The op never reached a transport: hand any pre-allocated payload back
  // to its pool (the engine only takes ownership once the op executes).
  // Forwarded payloads are sub-ranges; the registry resolves the owner.
  node_.pools().release(op.ptr);
  SockCqe c;
  c.cookie = op.req_id;
  c.opcode = op.opcode;
  c.sock = op.sock;
  c.ok = false;
  c.err = err;
  push_cqe(c);
}

void SocketRing::push_cqe(const SockCqe& cqe) {
  if (!cq_.try_push(cqe)) {
    // CQ overflow: degrade to a dedicated kernel message for this one
    // completion rather than dropping it.
    app_.post_kernel_msg(
        [this, cqe](sim::Context&) {
          auto it = cbs_.find(cqe.cookie);
          if (it == cbs_.end()) return;
          CompletionFn fn = std::move(it->second.fn);
          cbs_.erase(it);
          ++completions_;
          if (fn) fn(cqe);
        },
        100);
    return;
  }
  if (drain_scheduled_) return;
  drain_scheduled_ = true;
  // One kernel message back into the app's address space drains every
  // completion that accumulated — the reply-side half of the amortization.
  app_.post_kernel_msg(
      [this](sim::Context&) {
        drain_scheduled_ = false;
        drain_cq();
      },
      100);
}

void SocketRing::drain_cq() {
  SockCqe c;
  while (cq_.try_pop(c)) {
    auto it = cbs_.find(c.cookie);
    if (it == cbs_.end()) continue;
    CompletionFn fn = std::move(it->second.fn);
    cbs_.erase(it);
    ++completions_;
    if (fn) fn(c);
  }
}

}  // namespace newtos
