#include "src/servers/syscall_server.h"

#include <algorithm>
#include <utility>

namespace newtos::servers {

namespace {

chan::Message error_reply(const WireSockOp& op) {
  chan::Message err;
  err.opcode = kSockReply;
  err.req_id = op.req_id;
  err.socket = op.sock;
  err.arg0 = 0;
  err.flags = 1;  // error
  return err;
}

}  // namespace

SyscallServer::SyscallServer(NodeEnv* env, sim::SimCore* core,
                             std::vector<std::string> tcp_targets,
                             std::vector<std::string> udp_targets)
    : Server(env, kSyscallName, core),
      tcp_targets_(std::move(tcp_targets)),
      udp_targets_(std::move(udp_targets)) {
  // Deterministic group/channel order: TCP shards first, then UDP shards
  // (the combined stack collapses to one shared target).
  targets_ = tcp_targets_;
  for (const auto& t : udp_targets_) {
    if (std::find(targets_.begin(), targets_.end(), t) == targets_.end())
      targets_.push_back(t);
  }
}

SyscallServer::~SyscallServer() {
  // Staged payloads (op.ptr) are NOT touched: the transport may have
  // executed the op already and own them — its own teardown releases them.
  pending_.for_each(
      [this](std::uint64_t, const Pending& p) { release_chunk(p); });
}

void SyscallServer::start(bool restart) {
  pool_ = env().get_pool("syscall.batch", 4u << 20);
  for (const auto& t : targets_) {
    expose_in_queue(t, 1024);
    connect_out(t);
  }
  // Stateless: restart is trivial (Section V-B).  In-flight calls got
  // errors when we died (on_killed); their late replies only free the
  // batch chunks.
  announce(restart);
}

void SyscallServer::submit_batch(std::vector<WireSockOp> ops,
                                 const SockReplyFn& reply) {
  if (ops.empty()) return;
  calls_ += ops.size();
  ++batches_;
  if (!alive()) {
    // Dead, waiting for reincarnation: no kernel message can reach us.
    for (const WireSockOp& op : ops) refuse(op, reply);
    return;
  }
  // The whole batch arrives under one kernel-IPC message — this is the
  // trap amortization the submission ring buys.
  inbox_.push_back(Submission{std::move(ops), &reply});
  post_kernel_msg(
      [this](sim::Context& ctx) {
        const Submission s = std::move(inbox_[inbox_head_++]);
        if (inbox_head_ == inbox_.size()) {
          inbox_.clear();
          inbox_head_ = 0;
        }
        forward_batch(s.ops, *s.reply, ctx);
      },
      100);
}

void SyscallServer::on_killed() {
  // These ops reached a transport, which may have run them and so own
  // their payloads (see ~SyscallServer), or may not have read their batch
  // yet: each fails now but keeps its chunk reference, so the chunk cannot
  // carry a later batch while the old message still names it.
  pending_.for_each([](std::uint64_t, Pending& p) {
    const SockReplyFn* reply = std::exchange(p.reply, nullptr);
    if (reply != nullptr) (*reply)(error_reply(p.op));
  });
  for (; inbox_head_ < inbox_.size(); ++inbox_head_) {
    const Submission& s = inbox_[inbox_head_];
    for (const WireSockOp& op : s.ops) refuse(op, *s.reply);
  }
  inbox_.clear();
  inbox_head_ = 0;
}

void SyscallServer::refuse(const WireSockOp& op, const SockReplyFn& reply) {
  // The engine only takes ownership of a payload the app staged in the
  // transport's exported buffer once the op executes.
  if (op.ptr.valid()) {
    if (chan::Pool* pool = env().pools->find(op.ptr.pool)) {
      pool->release(op.ptr);
    }
  }
  reply(error_reply(op));
}

void SyscallServer::fail_op(const Pending& p) {
  if (p.reply != nullptr) refuse(p.op, *p.reply);
  release_chunk(p);
}

void SyscallServer::release_chunk(const Pending& p) {
  if (p.chunk.valid()) pool_->release(p.chunk);
}

chan::RichPtr SyscallServer::send_batch(const std::string& target,
                                        std::span<const WireSockOp> ops,
                                        sim::Context& ctx) {
  chan::RichPtr chunk = pack_records<WireSockOp>(*pool_, ops);
  if (!chunk.valid()) return chunk;
  chan::Message m;
  m.opcode = kSockBatch;
  m.arg0 = ops.size();
  m.ptr = chunk;
  if (!send_to(target, m, ctx)) {
    pool_->release(chunk);
    return {};
  }
  // Every op holds one reference on the staging chunk; alloc provided
  // the first, so add one per additional op.  The reference drops as
  // each op settles (reply, error, or restart abort) — a transport
  // crash can therefore never strand the chunk.
  for (std::size_t k = 1; k < ops.size(); ++k) pool_->addref(chunk);
  return chunk;
}

void SyscallServer::forward_batch(const std::vector<WireSockOp>& ops,
                                  const SockReplyFn& reply,
                                  sim::Context& ctx) {
  // Resolve the transport shard of every op (opens round-robin, sentinel
  // ops with their open, the rest by socket id), then group per target:
  // each group travels as ONE packed kSockBatch channel message.
  std::vector<std::string> target_of(ops.size());
  route_sock_shards(
      ops, static_cast<int>(tcp_targets_.size()),
      static_cast<int>(udp_targets_.size()), open_rr_,
      [&](std::size_t i, int shard) {
        target_of[i] =
            ops[i].proto == 'U' ? udp_targets_[shard] : tcp_targets_[shard];
      },
      [&](char proto, int shard) {
        return peer_ready(proto == 'U' ? udp_targets_[shard]
                                       : tcp_targets_[shard]);
      });

  for (std::size_t t = 0; t < targets_.size(); ++t) {
    const std::string& target = targets_[t];
    std::vector<WireSockOp> wire;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (target_of[i] != target) continue;
      // Our own request id goes only into the copy that travels.
      WireSockOp fwd = ops[i];
      fwd.req_id = pending_.add(Pending{t, ops[i], &reply, {}});
      wire.push_back(fwd);
    }
    if (wire.empty()) continue;
    const chan::RichPtr chunk = send_batch(target, wire, ctx);
    for (const WireSockOp& w : wire) {
      if (chunk.valid()) {
        pending_.find(w.req_id)->chunk = chunk;
      } else {
        // Transport down or staging pool exhausted: fail every op of this
        // group (the apps retry).
        fail_op(*pending_.take(w.req_id));
      }
    }
  }
}

void SyscallServer::on_message(const std::string& from,
                               const chan::Message& m, sim::Context& ctx) {
  (void)from;
  (void)ctx;
  if (m.opcode != kSockReply) return;
  const auto p = pending_.take(m.req_id);
  if (!p) return;
  if (p->reply != nullptr) {  // null: it failed when we died
    chan::Message r = m;
    r.req_id = p->op.req_id;  // back to the submitter's id
    (*p->reply)(r);
  }
  release_chunk(*p);  // the transport has read the batch
}

void SyscallServer::on_peer_up(const std::string& peer, bool restarted,
                               sim::Context& ctx) {
  if (!restarted) return;
  // Section V-D: for UDP we resubmit the last unfinished operation per
  // socket (duplicates preferred over losses); TCP "returns error to any
  // operation the SYSCALL server resubmits except listen".  Only the ops
  // that were in flight towards the restarted replica are affected — its
  // siblings' flows never notice.  Oldest first, in either case.
  pending_.for_each([&](std::uint64_t id, Pending& p) {
    if (targets_[p.target] != peer) return;
    // An op still naming the in-batch open sentinel cannot be resubmitted
    // standalone — its open's identity died with the batch; fail it so the
    // app reopens.  One that failed when we died only drops its chunk
    // reference: its batch went with the peer's queues.
    const bool resubmit =
        p.reply != nullptr &&
        (p.op.proto == 'U' || p.op.opcode == kSockListen) &&
        p.op.sock != kSockFromBatchOpen;
    if (resubmit) {
      // As a one-op kSockBatch, the one way ops enter a transport; it
      // holds the op's reference in place of the old batch chunk.
      WireSockOp fwd = p.op;
      fwd.req_id = id;
      const chan::RichPtr chunk = send_batch(peer, {&fwd, 1}, ctx);
      if (chunk.valid()) {
        release_chunk(p);
        p.chunk = chunk;
        return;
      }
    }
    fail_op(*pending_.take(id));
  });
}

}  // namespace newtos::servers
