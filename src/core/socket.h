// Application actors and the object-oriented async socket API.
//
// Applications are event-driven actors on application cores.  Socket
// *control* ops (open/bind/listen/connect/send submission/close) are queued
// into the app's per-process submission ring and flushed in batches — one
// kernel-IPC trap per batch — to the SYSCALL server when the configuration
// has one, straight into the transports otherwise (Table II line 2: the
// transports then pay the trapping toll).  Completions drain from the app's
// completion ring, again under a single kernel message (see
// src/core/socket_ring.h).
//
// The *data* path bypasses all of that: socket buffers are exported to the
// application, which reads received data and writes send payloads directly
// into the transport's pool (Section V-B, "the actual data bypass the
// SYSCALL").
//
// Since the chunk-lending redesign the data plane is zero-copy end to end
// (Section V-C): recv_zc()/consume() lend the application read-only views
// over the live pool chunks in the receive queue, reserve()/submit() lend
// it writable chunks it fills in place and submits as a rich-pointer chain,
// and forward() re-submits received chunks on another socket without
// touching a byte.  recv(span)/send(len) survive as thin copying wrappers
// over the same machinery; every byte they copy shows up in the node's
// "sock.bytes_copied" counter, which stays at zero on the lending paths.
//
// TcpSocket / UdpSocket / TcpListener are RAII handles owned by application
// code: destroying one closes the kernel socket (batched like any other op)
// and unregisters its event handler.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "src/core/config.h"
#include "src/core/socket_ring.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/servers/server.h"

namespace newtos {

class Node;

// An application process pinned to an application core.
class AppActor : public servers::Server {
 public:
  AppActor(servers::NodeEnv* env, std::string name, sim::SimCore* core);
  ~AppActor() override;

  // Entry point, run once at boot.
  void set_main(std::function<void(sim::Context&)> main);
  // Schedules `fn` on this app's core.
  void call(std::function<void(sim::Context&)> fn, sim::Cycles cost = 200);
  // Schedules `fn` after a delay (sleep/poll loops).
  void call_after(sim::Time delay, std::function<void(sim::Context&)> fn);

  // The app's submission/completion ring (attached by Node::add_app).
  SocketRing& ring() { return *ring_; }
  void attach_ring(std::unique_ptr<SocketRing> ring);

  // Identity under which this app appears in the pools' loan ledgers
  // (borrowed datagram views, send reservations).  Set by Node::add_app.
  std::uint32_t borrower_id() const { return borrower_id_; }
  void set_borrower_id(std::uint32_t id) { borrower_id_ = id; }

 protected:
  void start(bool restart) override;
  void on_message(const std::string&, const chan::Message&,
                  sim::Context&) override {}
  // A dying app cannot return its loans: reclaim every chunk it still
  // borrowed so a crash never strands one (Pool::reclaim).
  void on_killed() override;

 private:
  std::function<void(sim::Context&)> main_;
  std::unique_ptr<SocketRing> ring_;
  std::uint32_t borrower_id_ = 0;
};

// --- zero-copy data-plane currency (Section V-C) -------------------------------------

// A bounded scatter list of read-only views over the live pool chunks that
// hold a TCP socket's in-order received data.  No bytes move; the views
// stay valid until the application consume()s past them (or the handler
// turn ends — do not stash a RecvView).
struct RecvView {
  static constexpr std::size_t kMaxChunks = 8;
  std::array<std::span<const std::byte>, kMaxChunks> chunk{};
  std::size_t chunks = 0;
  std::size_t bytes = 0;
  bool empty() const { return bytes == 0; }
};

// Writable pool chunks obtained once and filled in place — the exported
// socket buffer of Section V-B, handed out as an explicit loan.  submit()
// (on the owning socket) passes the chunk chain down the submission ring
// without copying; destroying an unsubmitted reservation returns the loan.
class SendReservation {
 public:
  SendReservation() = default;
  SendReservation(SendReservation&& o) noexcept;
  SendReservation& operator=(SendReservation&& o) noexcept;
  ~SendReservation() { cancel(); }
  SendReservation(const SendReservation&) = delete;
  SendReservation& operator=(const SendReservation&) = delete;

  bool valid() const { return !chunks_.empty(); }
  std::size_t size() const { return bytes_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  // Writable in-place view of chunk `i` (stale after a transport restart
  // reset the pool; the span is then empty).
  std::span<std::byte> chunk(std::size_t i);
  // Returns the chunks to the pool without sending.  Safe to call twice.
  void cancel();

 private:
  friend class TcpSocket;
  friend class UdpSocket;

  Node* node_ = nullptr;
  std::uint32_t borrower_ = 0;
  std::size_t bytes_ = 0;
  std::vector<chan::RichPtr> chunks_;
};

// A datagram lent to the application: a read-only view straight into the
// receive-pool frame the NIC wrote.  The frame reference travels with this
// object; release() (or the destructor) hands it back to the owning pool
// exactly once — double releases and releases against a reset pool (stale
// generation) are safe no-ops thanks to the pool's loan ledger.
class BorrowedDatagram {
 public:
  BorrowedDatagram() = default;
  BorrowedDatagram(BorrowedDatagram&& o) noexcept;
  BorrowedDatagram& operator=(BorrowedDatagram&& o) noexcept;
  ~BorrowedDatagram() { release(); }
  BorrowedDatagram(const BorrowedDatagram&) = delete;
  BorrowedDatagram& operator=(const BorrowedDatagram&) = delete;

  bool valid() const { return frame_.valid(); }
  // Empty once the owning pool was reset (the loan went stale).
  std::span<const std::byte> data() const;
  net::Ipv4Addr src() const { return src_; }
  std::uint16_t sport() const { return sport_; }
  void release();

 private:
  friend class UdpSocket;

  Node* node_ = nullptr;
  std::uint32_t borrower_ = 0;
  chan::RichPtr frame_;
  chan::RichPtr data_;
  net::Ipv4Addr src_;
  std::uint16_t sport_ = 0;
};

using SockStatusFn = std::function<void(bool ok)>;
using SockEventFn = std::function<void(net::TcpEvent)>;

// Base of the RAII socket objects.  Not copyable or movable: event handlers
// and in-flight completions are anchored to a shared state block, so the
// object itself can die at any time without dangling callbacks.
class Socket {
 public:
  virtual ~Socket();
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return st_->id != 0; }
  std::uint32_t id() const { return st_->id; }
  char proto() const { return st_->proto; }
  AppActor& app() const { return *st_->app; }

  // Registers the readiness-event handler (Connected/Readable/Writable/
  // Reset/...).  May be called before the kernel socket exists; the
  // registration happens as soon as the open completes.
  void on_event(SockEventFn fn);

  // Releases the kernel socket (one batched op).  Safe to call twice; the
  // destructor calls it implicitly.
  void close(SockStatusFn cb = {});

 protected:
  struct State {
    AppActor* app = nullptr;
    Node* node = nullptr;
    char proto = 'T';
    std::uint32_t id = 0;
    bool opening = false;
    bool closed = false;
    std::uint64_t open_cookie = 0;
    // Payload bytes submitted but not yet completed by the transport.
    // forward() subtracts this from the engine's send space so it never
    // consumes bytes an un-flushed submission will already occupy.
    std::uint64_t inflight_tx = 0;
    // Ops issued after the open's batch already flushed but before its
    // completion arrived; replayed (with the real id) when it does.
    std::vector<std::pair<SockSqe, SocketRing::CompletionFn>> deferred;
    SockEventFn on_event;
  };

  Socket(AppActor& app, char proto);
  Socket(AppActor& app, char proto, std::uint32_t adopt_id);

  // Submits a control op against this socket.  When the kernel socket does
  // not exist yet, a kSockOpen is queued first and the op targets it via
  // the in-batch sentinel — one trap for open+connect, or open+bind+listen.
  // If the open already flushed but has not completed, the op is held and
  // replayed on completion.
  void submit_ctl(SockSqe op, SocketRing::CompletionFn cb);
  SocketRing& ring() const;
  Node& node() const { return *st_->node; }
  // Wraps a user callback so it is dropped once the object died and
  // adapts the CQE to the bool the app cares about.
  SocketRing::CompletionFn status_cb(SockStatusFn cb) const;

  static void register_events(const std::shared_ptr<State>& st);

  std::shared_ptr<State> st_;
};

// A TCP connection endpoint.
class TcpSocket : public Socket {
 public:
  explicit TcpSocket(AppActor& app);
  // Wraps an already-established connection (TcpListener::accept).
  TcpSocket(AppActor& app, std::uint32_t accepted_id);

  // Queues open (if needed) + connect in one flush.  `cb` reports whether
  // the transport accepted the call; the Connected/Reset event reports the
  // handshake outcome.
  void connect(net::Ipv4Addr dst, std::uint16_t port, SockStatusFn cb);
  // LEGACY copy path: copies `len` bytes into the exported socket buffer
  // (counted in "sock.bytes_copied") and queues the send submission.  A
  // thin wrapper over reserve()+submit().
  void send(std::uint32_t len, SockStatusFn cb);

  // --- zero-copy data plane (chunk lending, Section V-C) --------------------------
  // Views over the live pool chunks holding the in-order received stream.
  // (Purges stale front chunks — a pool the owner reset — as a side
  // effect, so the queue can never wedge behind dead frames.)
  RecvView recv_zc();
  // Advances the stream by up to `n` bytes: releases fully consumed chunks
  // back to their owner and drives the window-update logic.  Returns the
  // bytes consumed.  Invalidates outstanding RecvViews.
  std::size_t consume(std::size_t n);
  // Obtains writable pool chunks covering `len` bytes, split into pieces of
  // at most `chunk_bytes` (0 = one chunk).  !valid() on pool exhaustion
  // ("sock.enobufs" counts it); nothing was queued in that case.
  SendReservation reserve(std::uint32_t len, std::uint32_t chunk_bytes = 0);
  // Submits a filled reservation: one kSockSend per chunk, all riding the
  // same flush — the rich-pointer chain travels untouched to the NIC.  `cb`
  // fires once with the combined outcome (err kSockENoBufs for an invalid
  // reservation).
  void submit(SendReservation res, SockStatusFn cb = {});
  // Zero-copy splice: re-submits up to `max_bytes` of received chunks on
  // `dst` (same node) without touching the bytes, consuming them from this
  // socket.  Bounded by dst's send space.  Returns the bytes moved.
  std::size_t forward(TcpSocket& dst, std::size_t max_bytes,
                      SockStatusFn cb = {});

  // --- data fast path (exported socket buffers, Section V-B) ---------------------
  std::size_t send_space() const;
  // LEGACY copy path: copies out of the receive queue through
  // TcpEngine::recv; counted in "sock.bytes_copied".
  std::size_t recv(std::span<std::byte> out);
  std::size_t recv_available() const;

 private:
  // Submits `pieces` as kSockSend ops riding one flush, with in-flight
  // byte accounting and one aggregate completion for the whole chain.
  void submit_chain(std::vector<chan::RichPtr> pieces, SockStatusFn cb);
};

// A passive TCP socket.
class TcpListener : public Socket {
 public:
  explicit TcpListener(AppActor& app);

  // Queues open + bind + listen as ONE batch — three ops, one trap.  `cb`
  // fires once with the combined outcome.
  void bind_listen(net::Ipv4Addr addr, std::uint16_t port, int backlog,
                   SockStatusFn cb);
  // Fast path: pops one pending connection from the accept queue, nullptr
  // when it is empty.  Call on TcpEvent::AcceptReady.
  std::unique_ptr<TcpSocket> accept();
};

// A UDP socket.
class UdpSocket : public Socket {
 public:
  explicit UdpSocket(AppActor& app);

  void bind(net::Ipv4Addr addr, std::uint16_t port, SockStatusFn cb);
  // Presets the peer; datagrams from others are filtered by the engine.
  void connect(net::Ipv4Addr peer, std::uint16_t port, SockStatusFn cb);
  // LEGACY copy path: copies `len` payload bytes into the exported buffer
  // (counted in "sock.bytes_copied") and queues the datagram; a zero `dst`
  // uses the connected peer.  A thin wrapper over reserve()+submit().
  void sendto(std::uint32_t len, net::Ipv4Addr dst, std::uint16_t port,
              SockStatusFn cb);

  // --- zero-copy data plane (chunk lending, Section V-C) --------------------------
  // One writable chunk for a `len`-byte datagram; !valid() on exhaustion.
  SendReservation reserve(std::uint32_t len);
  // Submits the filled chunk as the datagram payload, no copy.  A zero
  // `dst` uses the connected peer.
  void submit(SendReservation res, net::Ipv4Addr dst, std::uint16_t port,
              SockStatusFn cb = {});
  // Borrows the next datagram as a view into the live receive-pool frame;
  // the caller releases it (RAII) when done.
  std::optional<BorrowedDatagram> recvfrom_zc();

  // LEGACY copy path: copies the datagram out through UdpEngine::recv;
  // counted in "sock.bytes_copied".
  std::optional<net::UdpEngine::Datagram> recvfrom();
};

}  // namespace newtos
