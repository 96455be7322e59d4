// Open-loop RPC load against an echo service.
//
// Requests arrive as a Poisson process in simulated time, independent of how
// fast the system answers (independent users, not callers waiting on their
// previous reply), so a stall grows a backlog instead of slowing the load.
// Each request picks one of the persistent connections and a size uniformly
// from [min_bytes, max_bytes], all drawn from the seed.  Its payload is a
// pattern derived from the seed and the request id; the client checks every
// reply byte against it in per-connection FIFO order, so a lost, duplicated,
// corrupted or reordered byte is caught.  Latency is timed from the moment
// the request was due, so time it spent waiting for the client core counts.
// Like an RPC client with retries, it keeps the requests of a connection
// that was reset, and those due while it is down, and sends them again in
// order once it has reconnected.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/core/socket.h"
#include "src/sim/rng.h"
#include "trace.h"

namespace newtos {
class Node;
}

namespace newtos::bench {

class RpcLoad {
 public:
  struct Config {
    net::Ipv4Addr dst;
    std::uint16_t port = 7000;
    int conns = 64;
    int conns_per_app = 16;  // one client actor (core) per this many
    std::uint32_t min_bytes = 64;
    std::uint32_t max_bytes = 256;
    std::uint64_t seed = 1;
    // Trace request ids start here so several loads share one trace.
    std::uint64_t trace_id_base = 0;
  };

  struct Request {
    sim::Time due = 0;
    sim::Time submit = -1;  // the client handler ran and queued the send
    sim::Time done = -1;    // the last reply byte was checked
    std::uint32_t bytes = 0;
    std::uint16_t conn = 0;
    bool refused = false;   // refused or reset at least once
    bool dropped = false;   // never sent again: it cannot complete
  };

  // 1 in this many requests is traced as rpc -> rpc.queue / rpc.net.
  static constexpr std::uint32_t kTraceEvery = 16;

  RpcLoad(Node& client, Config cfg, Trace& trace);

  // Opens every connection, staggered so the listener's accept queue never
  // overflows.
  void connect();
  bool all_connected() const;
  // Schedules Poisson arrivals at `rate` per second, due in [from, to).
  void generate(double rate, sim::Time from, sim::Time to);
  // True when every request due before `t` is done or dropped.
  bool settled(sim::Time t) const;

  const std::vector<Request>& requests() const { return requests_; }
  // Reply bytes that did not match the expected stream; must stay 0.
  std::uint64_t bad_bytes() const { return bad_bytes_; }

 private:
  struct Conn {
    AppActor* app = nullptr;
    std::unique_ptr<TcpSocket> sock;
    bool up = false;
    // Request ids in send order: sent and awaiting their reply, or, while
    // the connection is down, waiting to be sent.
    std::deque<std::uint32_t> outstanding;
    std::uint32_t offset = 0;  // reply bytes of the front request checked
    std::uint32_t resets = 0;  // tells a dead socket's callbacks apart
  };

  void open(int c);
  void on_event(int c, net::TcpEvent ev);
  void arrive(sim::Time due, double rate, sim::Time to);
  void submit(std::uint32_t id);
  void send(int c, std::uint32_t id);
  void check_replies(int c);
  void finish(std::uint32_t id, sim::Time now);
  std::uint8_t pattern(std::uint32_t id, std::uint32_t k) const;

  Node& node_;
  Config cfg_;
  Trace& trace_;
  sim::Rng rng_;
  std::vector<AppActor*> apps_;
  std::vector<Conn> conns_;
  std::vector<Request> requests_;
  std::uint64_t bad_bytes_ = 0;
};

// An echo service that keeps every byte until the transport accepted its
// echo.  apps::EchoServer splices with forward(), which consumes the
// received bytes before the send completes, so a send aborted by a TCP
// server crash loses them.  This service copies what it reads, keeps one
// send in flight per connection and resubmits one that failed.
class EchoService {
 public:
  EchoService(AppActor& app, std::uint16_t port);
  void start();

 private:
  struct Conn {
    std::unique_ptr<TcpSocket> sock;
    std::vector<std::byte> pending;  // read, not yet accepted for sending
    bool sending = false;
    bool retry_armed = false;
  };

  void accept_all();
  void pump(Conn& c);
  void retry_later(Conn& c);

  AppActor& app_;
  std::uint16_t port_;
  std::unique_ptr<TcpListener> listener_;
  // Never erased: callbacks and timers hold Conn pointers.
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace newtos::bench
