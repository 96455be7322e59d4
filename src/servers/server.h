// Server: the base class for every OS component in NewtOS.
//
// A server is a single-threaded, event-driven, unprivileged process pinned
// to a dedicated core (Section III).  It consumes messages from SPSC channel
// queues, never blocks, and when all queues run dry it arms the doorbells
// and halts its core with kernel-assisted MWAIT (Section IV-B); the next
// producer write wakes it, which costs CostModel::mwait_wakeup.
//
// The base class also implements the crash/restart machinery of
// Section IV-D: queues are published/attached through the registry and the
// channel manager, peers learn about deaths and rebirths through
// publish/subscribe, and subclasses hook on_peer_up/on_peer_down to run
// their request-database abort actions and resubmission policies.
//
// Every stateful server reloads what it kept in the storage server
// (Section V-D, Table I) through one client that lives here.  store_put
// copies a value into the caller's pool and frees that chunk when the
// storage server's kStoreAck echoes it; store_get fetches a key.  The base
// consumes kStoreAck and kStoreReply before on_message, and a server
// implements two hooks: store_state puts everything it keeps (the base also
// calls it when the storage server comes back empty after a restart), and
// on_stored takes a get's answer, after which the base hands the storage
// server's chunk back with kStoreRelease.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/chan/channel.h"
#include "src/chan/pool.h"
#include "src/chan/registry.h"
#include "src/chan/request_db.h"
#include "src/kipc/kipc.h"
#include "src/net/env.h"
#include "src/sim/sim.h"

namespace newtos::servers {

class Server;

// How messages between OS components travel (Table II line 1 vs the rest).
enum class IpcMode {
  kChannels,    // user-space shared-memory channels, no kernel
  kKernelSync,  // classic MINIX 3: trap + copy + context switch per message
};

// Per-node knobs the servers consult while charging costs.  This is their
// only home: no server Config repeats one of them.
struct RuntimeKnobs {
  IpcMode ipc = IpcMode::kChannels;
  bool tso = false;
  bool csum_offload = true;
  double cost_scale = 1.0;  // scales protocol-processing costs (ideal peer)
  // Extra per-packet path length of the legacy MINIX stack (Table II line 1).
  sim::Cycles legacy_per_packet = 0;
  // Self-healing supervision plane: the reincarnation server escalates from
  // heartbeats/probes to automatic restarts (hang, silent wedge, slowdown)
  // and the drivers watch their NIC for receive wedges.  Servers only
  // create the probe channels when this is on.
  bool supervision = false;
};

// Everything a server needs from its node; filled in by core/node.cc.
struct NodeEnv {
  sim::Simulator* sim = nullptr;
  chan::PoolRegistry* pools = nullptr;
  chan::Registry* registry = nullptr;
  chan::ChannelManager* channels = nullptr;
  kipc::KernelIpc* kernel = nullptr;
  RuntimeKnobs knobs;
  std::string node_name;
  // Queue directory: queues survive server restarts (a new incarnation
  // inherits the address space, Section IV-D).
  std::function<chan::Queue*(const std::string& name, std::size_t cap)>
      get_queue;
  // Pool directory.  Pools persist across their owner's restarts: the paper
  // keeps old receive pools alive until drained (Section V-D); chunks that
  // were in flight when their owner died are leaked, bounded per crash.
  std::function<chan::Pool*(const std::string& name, std::size_t size)>
      get_pool;
  // Crash signal to the reincarnation server (the parent of all servers).
  std::function<void(Server*)> report_crash;
  // Socket events (readable/connected/reset/...) routed to the owning
  // application actor; the data path bypasses the SYSCALL server
  // (Section V-B).  `shard` names the transport replica that raised the
  // event — for replicated state (listener accept queues, UDP sockets) it
  // can differ from the shard the socket id encodes.
  std::function<void(int shard, char proto, std::uint32_t sock,
                     std::uint8_t event)>
      sock_event;
};

// --- shared teardown helper ----------------------------------------------------------
//
// Every engine-hosting server tears down the same way: a dying (or
// destructing) process has no handler context to send done-reports from, so
// the engine's queued receive frames detach to direct pool releases before
// the engine drops.

// Detaches the engine's rx_done report (queued receive frames release
// directly through the pool registry) and destroys it.
template <typename EnginePtr>
inline void drop_engine(EnginePtr& engine) {
  if (engine) {
    engine->detach_rx_done();
    engine.reset();
  }
}

class Server {
 public:
  Server(NodeEnv* env, std::string name, sim::SimCore* core);
  virtual ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& name() const { return name_; }
  sim::SimCore& core() { return *core_; }
  NodeEnv& env() { return *env_; }
  sim::Simulator& sim() { return *env_->sim; }

  // --- lifecycle (driven by the node / reincarnation server) ---------------------
  // First boot or post-crash restart.  Calls start(restart).
  void boot(bool restart);
  // Kills the server: engine state is lost, publications withdrawn, queues
  // reset.  `silent` hangs instead of crashing: the process stops consuming
  // but nobody is signalled — only heartbeat timeouts catch it.
  void kill();
  void hang();
  // Degraded-operation faults (Table IV's "slowdown, no crash" cases).
  void set_slowdown(double factor) { slowdown_ = factor; }
  // Silent wedge: the process keeps answering heartbeats but drops its real
  // work — the fault class the reincarnation server cannot detect, needing
  // the paper's "manually restarting ... solved the problem".
  void set_drop_work(bool v) { drop_work_ = v; }
  bool drop_work() const { return drop_work_; }

  bool alive() const { return alive_; }
  bool hung() const { return hung_; }
  bool ready() const { return alive_ && !hung_ && announced_; }
  std::uint32_t incarnation() const { return incarnation_; }

  // Heartbeat from the reincarnation server (kernel notify).  The ack
  // callback runs only if the server is actually processing events.
  void post_heartbeat(std::function<void()> ack);

  // Inject a kernel-IPC message (app syscalls, interrupts).  Charged as a
  // trap + receive on this server's core.  If the server dies before it
  // takes the message, kill() runs `on_drop` once, after the teardown, so
  // the sender learns that the message was lost.
  void post_kernel_msg(std::function<void(sim::Context&)> fn,
                       sim::Cycles extra_cost = 0,
                       std::function<void()> on_drop = {});
  // Cheap internal control event (library fast path, timer callbacks).
  void post_control(std::function<void(sim::Context&)> fn,
                    sim::Cycles cost = 50);

  // Statistics.
  std::uint64_t messages_handled() const { return messages_handled_; }
  std::uint64_t wakeups() const { return wakeups_; }

  // The context of the handler currently executing on this server's core.
  // Engine callbacks (which have no context parameter) charge through this.
  sim::Context& cur() {
    assert(current_ctx_ != nullptr && "engine callback outside a handler");
    return *current_ctx_;
  }
  // True while a handler is executing (engine callbacks from teardown paths
  // have no context to charge against).
  bool in_handler() const { return current_ctx_ != nullptr; }

  // Socket-buffer fast path (Section V-B): the application's C library
  // manipulates the exported socket buffers directly, so engine calls made
  // from an application actor charge the application's own context.  RAII
  // guard installing that context for the duration of the call.
  class BorrowContext {
   public:
    BorrowContext(Server& s, sim::Context& ctx)
        : s_(s), prev_(s.current_ctx_) {
      s_.current_ctx_ = &ctx;
    }
    ~BorrowContext() { s_.current_ctx_ = prev_; }
    BorrowContext(const BorrowContext&) = delete;
    BorrowContext& operator=(const BorrowContext&) = delete;

   private:
    Server& s_;
    sim::Context* prev_;
  };

 protected:
  // --- subclass interface ----------------------------------------------------------
  virtual void start(bool restart) = 0;
  virtual void on_message(const std::string& from, const chan::Message& m,
                          sim::Context& ctx) = 0;
  virtual void on_peer_up(const std::string& peer, bool restarted,
                          sim::Context& ctx);
  virtual void on_peer_down(const std::string& peer, sim::Context& ctx);
  // Release engine state on death (before a restart re-creates it).
  virtual void on_killed() {}
  // The storage hooks (see the header comment).  on_stored's `value` is
  // empty when nothing was stored under `key`, and it lives in the storage
  // server's pool only until on_stored returns.
  virtual void store_state(sim::Context& ctx);
  virtual void on_stored(std::uint32_t key, std::span<const std::byte> value,
                         sim::Context& ctx);

  // --- storage client (Section V-D) ------------------------------------------------
  // Both return false when the request could not leave (pool exhausted,
  // storage server unreachable); nothing stays allocated then.
  bool store_put(std::uint32_t key, std::span<const std::byte> value,
                 chan::Pool& pool, sim::Context& ctx);
  bool store_get(std::uint32_t key, sim::Context& ctx);

  // --- channel plumbing --------------------------------------------------------------
  // Creates/resets the queue `from` -> me, exports it to `from` and
  // publishes the credential under "chan.<from>><me>".
  chan::Queue* expose_in_queue(const std::string& from,
                               std::size_t capacity = 256);
  // Subscribes to the peer's published queue me -> peer and to its
  // up/down announcements.
  void connect_out(const std::string& peer);
  // Sends on the out-queue to `peer`; charges channel or kernel-IPC costs
  // per the node's IpcMode.  Returns false when the queue is full or the
  // peer is down (callers apply their drop/defer policy).
  bool send_to(const std::string& peer, const chan::Message& m,
               sim::Context& ctx);
  // Best-effort broadcast of `m` to every peer in `peers` (replica
  // maintenance fan-out); down peers simply miss it and resync on announce.
  void send_to_all(const std::vector<std::string>& peers,
                   const chan::Message& m, sim::Context& ctx);
  bool peer_ready(const std::string& peer) const;
  // Runs `fn` in a follow-up task on this server's core, i.e. only after
  // every cycle charged by the current handler (scaled by any slowdown) has
  // elapsed.  Messages sent inside a handler are delivered at the task's
  // START time, so a reply whose latency must reflect the handler's work —
  // the supervision probe ack and its canary quantum — has to be issued
  // from here.  Dropped if the server dies, hangs or reincarnates first.
  void reply_after_charges(std::function<void(sim::Context&)> fn);

  // Declares this server announced ("server.<name>.up" published).  Called
  // by subclasses when their state is restored and they are open for
  // business (possibly asynchronously, after talking to the storage server).
  void announce(bool restarted);

  // Charges `c` cycles scaled by the node's cost_scale and the fault
  // slowdown factor.
  void charge(sim::Context& ctx, sim::Cycles c) const;

  // Engine adapters.
  net::Clock* clock() { return &clock_adapter_; }
  net::TimerService* timers() { return &timer_adapter_; }

  // What this server remembers of a request it sent through the base: the
  // key a storage get asked for, or the chunk a put copied its value into
  // (freed when the storage server acks it).  PF's connection-list queries
  // need neither.
  struct Request {
    std::uint32_t key = 0;
    chan::RichPtr chunk;
  };
  chan::RequestDb<Request>& request_db() { return rdb_; }

 private:
  struct OutPeer {
    chan::Queue* queue = nullptr;
    bool up = false;
  };

  class ClockAdapter : public net::Clock {
   public:
    explicit ClockAdapter(Server* s) : s_(s) {}
    sim::Time now() const override;

   private:
    Server* s_;
  };
  class TimerAdapter : public net::TimerService {
   public:
    explicit TimerAdapter(Server* s) : s_(s) {}
    TimerId schedule(sim::Time delay, std::function<void()> fn) override;
    void cancel(TimerId id) override;

   private:
    Server* s_;
  };

  void wake();
  void pump(sim::Context& ctx);
  void enter_idle(sim::Context& ctx);
  // Consumes the storage server's answers (kStoreAck, kStoreReply) and
  // passes every other message to on_message.
  void dispatch(const std::string& from, const chan::Message& m,
                sim::Context& ctx);

  NodeEnv* env_;
  std::string name_;
  sim::SimCore* core_;

  bool alive_ = false;
  bool hung_ = false;
  bool announced_ = false;
  bool pump_scheduled_ = false;
  bool sleeping_ = true;
  bool drop_work_ = false;
  double slowdown_ = 1.0;
  std::uint32_t incarnation_ = 0;

  struct InQueue {
    std::string from;
    chan::Queue* queue = nullptr;
  };
  std::vector<InQueue> in_queues_;
  std::map<std::string, OutPeer> outs_;
  std::vector<chan::Registry::SubId> subs_;
  std::vector<std::string> published_keys_;
  struct Control {
    std::function<void(sim::Context&)> fn;
    sim::Cycles cost = 0;
    std::function<void()> on_drop;
  };
  std::deque<Control> control_;
  chan::RequestDb<Request> rdb_;

  ClockAdapter clock_adapter_{this};
  TimerAdapter timer_adapter_{this};
  sim::Context* current_ctx_ = nullptr;

  std::uint64_t messages_handled_ = 0;
  std::uint64_t wakeups_ = 0;

  static constexpr int kBatch = 16;
};

}  // namespace newtos::servers
