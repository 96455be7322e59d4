// Per-application submission/completion rings for socket control ops.
//
// The paper's SYSCALL server decouples synchronous POSIX calls from the
// asynchronous stack, but one kernel-IPC trap per call still bounds the
// control path (Table II).  The ring amortizes it, io_uring-style: an
// application queues N socket ops into its submission queue (SQ) and a
// single doorbell — one trap — flushes the whole batch to the SYSCALL
// server (or straight into the transports when the configuration has none).
// Completions accumulate in a completion queue (CQ) on the app's core and
// drain under one kernel message as well, so the reply side is amortized
// the same way.  Data still bypasses everything through the exported socket
// buffers (Section V-B); only control rides the rings.
//
// Both queues reuse chan::SpscRing — the same cache-friendly structure as
// the inter-server channels (Section IV).  Neither side ever blocks: a full
// SQ fails the op with an error completion and the application's retry
// policy applies, exactly like a full channel queue (Section IV-A).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/chan/rich_ptr.h"
#include "src/chan/spsc_ring.h"
#include "src/servers/proto.h"
#include "src/sim/sim.h"

namespace newtos {

class AppActor;
class Node;

// One submission-queue entry: a socket control op, the same record that
// travels to the transports and into the engine call.  enqueue() assigns
// req_id (the ring's cookie); ptr is the exported-buffer chunk of a
// send/sendto; sock may be servers::kSockFromBatchOpen.
using SockSqe = servers::WireSockOp;

// Why a completion failed (SockCqe::err).  ENOBUFS-style conditions are
// distinguishable so applications can apply backpressure instead of
// treating transient pool exhaustion like a dead socket.
enum SockErr : std::uint16_t {
  kSockOk = 0,
  kSockENoBufs,    // payload pool exhausted; retry after completions drain
  kSockERejected,  // the transport refused the op (bad state, full queue, ...)
  kSockEDown,      // no transport to take the op
};

// One completion-queue entry.
struct SockCqe {
  std::uint64_t cookie = 0;
  std::uint16_t opcode = 0;  // the submitted op
  std::uint32_t sock = 0;    // the socket acted on (the new id for open)
  bool ok = false;
  std::uint16_t err = kSockOk;
  std::uint64_t value = 0;   // reply arg0 (e.g. the id an open returned)
};

class SocketRing {
 public:
  using CompletionFn = std::function<void(const SockCqe&)>;

  SocketRing(Node& node, AppActor& app, std::size_t depth = 256);

  // SQ producer side.  Queues one op; the doorbell is deferred to the end
  // of the current handler turn, so every op enqueued while the app runs
  // rides the same flush.  Returns false (and posts an error completion)
  // when the SQ is full — never blocks.
  bool enqueue(SockSqe op, CompletionFn cb);

  // Completes `op` locally with an error CQE — it never reaches the SQ.
  // Used when submission-side staging fails (e.g. ENOBUFS from the payload
  // pool) so the failure flows through the ordinary completion path instead
  // of a side-channel callback.
  void fail_local(SockSqe op, CompletionFn cb, std::uint16_t err);

  // Cookie of the most recent enqueue.
  std::uint64_t last_cookie() const { return next_cookie_ - 1; }
  // True while `cookie` still sits in the SQ, i.e. it will ride the next
  // doorbell (used to decide whether an in-batch open sentinel can still
  // refer to it).
  bool rides_next_flush(std::uint64_t cookie) const {
    return cookie >= flush_watermark_;
  }
  // Cookie of the most recently queued kSockOpen of `proto`.  The batch
  // sentinel binds to the nearest preceding open, so a chained op may only
  // use it while its own open is still the latest one queued.
  std::uint64_t last_open_cookie(char proto) const {
    return proto == 'U' ? last_open_u_ : last_open_t_;
  }

  Node& node() { return node_; }
  AppActor& app() { return app_; }

  // --- statistics -----------------------------------------------------------------
  // ops() / doorbells() is the amortization datapoint: socket ops completed
  // per kernel-IPC trap (≥ 2 once batching does anything at all).
  std::uint64_t ops() const { return ops_; }
  std::uint64_t doorbells() const { return doorbells_; }
  std::uint64_t completions() const { return completions_; }
  std::size_t pending() const { return sq_.size(); }
  // SQ slots still free this flush window (forward() budgets against it so
  // a spliced chain never overflows into error completions).
  std::size_t sq_free() const { return sq_.capacity() - sq_.size(); }

 private:
  struct PendingCb {
    std::uint16_t opcode = 0;
    CompletionFn fn;
  };

  void schedule_flush();
  void do_flush(sim::Context& ctx);
  void route_direct(std::vector<SockSqe> batch);
  // The drop action of a batch trapped into a transport: if the transport
  // dies before it takes the batch, none of its ops ran, and each fails
  // once with kSockEDown.
  std::function<void()> fail_all(std::vector<SockSqe> ops);
  // The one reply path: converts a kSockReply (req_id = our cookie) into a
  // CQE and queues it for the next CQ drain (one kernel message back into
  // the app covers all of them).
  void on_reply(const chan::Message& r);
  void fail(const SockSqe& op, std::uint16_t err = kSockERejected);
  void push_cqe(const SockCqe& cqe);
  void drain_cq();

  Node& node_;
  AppActor& app_;
  chan::SpscRing<SockSqe> sq_;
  chan::SpscRing<SockCqe> cq_;
  std::map<std::uint64_t, PendingCb> cbs_;
  const servers::SockReplyFn reply_ = [this](const chan::Message& r) {
    on_reply(r);
  };
  std::uint64_t next_cookie_ = 1;
  std::uint64_t flush_watermark_ = 1;
  std::uint64_t last_open_t_ = 0;
  std::uint64_t last_open_u_ = 0;
  bool flush_scheduled_ = false;
  bool drain_scheduled_ = false;

  std::uint64_t ops_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t completions_ = 0;
};

}  // namespace newtos
