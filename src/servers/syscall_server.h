// The SYSCALL server (Section V-B): decouples the synchronous POSIX system
// calls of applications from the asynchronous internals of the stack.
//
// It is the only server that frequently uses kernel IPC — it "pays the
// trapping toll for the rest of the system".  It merely peeks into requests
// and forwards them over channels; it has no state worth recovering, except
// that it remembers the last unfinished operation per socket so it can
// resubmit (UDP, listen) or return an error (TCP) when a transport restarts.
//
// Sharded transport plane: each protocol may be served by N replicas.  The
// SYSCALL server is the control-path steering point: opens are spread
// round-robin over the replicas, every later op routes by the shard its
// socket id encodes, and in-batch sentinel ops travel with their open.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/chan/request_db.h"
#include "src/servers/proto.h"
#include "src/servers/server.h"

namespace newtos::servers {

class SyscallServer : public Server {
 public:
  // `tcp_targets`/`udp_targets` name the servers handling each protocol,
  // one per shard: the TCP/UDP replicas in the split stack, or the single
  // combined "stack" server.
  SyscallServer(NodeEnv* env, sim::SimCore* core,
                std::vector<std::string> tcp_targets = {kTcpName},
                std::vector<std::string> udp_targets = {kUdpName});
  // Teardown: drops the staging-chunk references of ops that never got a
  // reply.
  ~SyscallServer() override;

  // Entry point for application system calls: a whole submission-queue
  // flush arrives under ONE kernel-IPC message (the caller models the
  // app-side trap), then travels to each transport shard as ONE packed
  // kSockBatch channel message.  Each op's kSockReply goes to `reply` with
  // the op's own req_id (the submitter's cookie); `reply` is the
  // submitter's one callback and must outlive the ops.  Every op gets
  // exactly one reply: an error when this server is down, or dies before
  // the op's own reply reaches it.
  void submit_batch(std::vector<WireSockOp> ops, const SockReplyFn& reply);

  std::uint64_t calls() const { return calls_; }
  std::uint64_t batches() const { return batches_; }

 protected:
  void start(bool restart) override;
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  void on_peer_up(const std::string& peer, bool restarted,
                  sim::Context& ctx) override;
  // Fails every op a crash leaves without a reply: the flushes not taken
  // yet and the ops still waiting for a transport.  The latter stay in
  // pending_, failed, until the transport's reply or its restart shows
  // that their batch is no longer unread.
  void on_killed() override;

 private:
  struct Pending {
    std::size_t target = 0;  // the transport shard it went to (targets_)
    WireSockOp op;           // as submitted: req_id is the submitter's
    // Null once the op failed because this server died.
    const SockReplyFn* reply = nullptr;
    // The packed batch chunk this op rode in on; each op holds one
    // reference, dropped when the op's reply (or abort) settles it.
    chan::RichPtr chunk;
  };

  // Drops a settled op's reference on its batch chunk.
  void release_chunk(const Pending& p);
  // Packs `ops` (req_ids already ours) into one kSockBatch to `target`;
  // the chunk holds one reference per op.  Invalid when the staging pool is
  // exhausted or the message could not leave (nothing stays allocated).
  chan::RichPtr send_batch(const std::string& target,
                           std::span<const WireSockOp> ops, sim::Context& ctx);

  // A submission-queue flush waiting for its kernel message.
  struct Submission {
    std::vector<WireSockOp> ops;
    const SockReplyFn* reply = nullptr;
  };

  void forward_batch(const std::vector<WireSockOp>& ops,
                     const SockReplyFn& reply, sim::Context& ctx);
  // Fails an op that never reached a transport, handing back the payload
  // it staged.
  void refuse(const WireSockOp& op, const SockReplyFn& reply);
  void fail_op(const Pending& p);

  std::vector<std::string> tcp_targets_;
  std::vector<std::string> udp_targets_;
  std::vector<std::string> targets_;  // tcp ∪ udp, deduplicated, in order
  ShardCursors open_rr_;        // round-robin cursors for new sockets
  chan::Pool* pool_ = nullptr;  // staging for packed kSockBatch arrays
  chan::RequestDb<Pending> pending_;
  // Flushes posted but not taken yet, from inbox_head_ on: each kernel
  // message takes the next one, so a crash can fail the rest.  Emptied
  // when drained, the vector keeps its capacity: a flush allocates nothing
  // here.
  std::vector<Submission> inbox_;
  std::size_t inbox_head_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace newtos::servers
