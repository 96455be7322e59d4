// TCP: sockets, the full connection state machine, reliable transport and
// Reno congestion control, with TSO-aware segmentation.
//
// Design notes tied to the paper:
//  - The engine is single-threaded and event-driven, hosted by the TCP
//    server (split stack) or a combined stack component (Section III-B).
//  - Send data lives in engine-owned pool chunks; segments reference them
//    as sub-range rich pointers, so retransmission never copies and a
//    component crash downstream never loses the original bytes
//    (Section V-C).  Headers are freed when IP reports the segment done;
//    payload is freed when ACKed.
//  - With TSO enabled, the engine emits superframes up to ~61 KB and the
//    NIC cuts them into MSS-sized frames, collapsing the number of
//    stack-internal hand-offs per byte — the key to Table II lines 5/6.
//  - Recovery (Table I): established connections have "large, frequently
//    changing state" and are NOT recoverable; listening sockets are, via
//    listeners()/restore_listener().  connection_keys() feeds the packet
//    filter's state rebuild after a PF crash.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chan/pool.h"
#include "src/chan/request_db.h"
#include "src/net/cc/congestion.h"
#include "src/net/env.h"
#include "src/net/ip.h"
#include "src/net/pf.h"
#include "src/net/steering.h"
#include "src/net/udp.h"  // SockId

namespace newtos::net {

enum class TcpState : std::uint8_t {
  Closed,
  Listen,
  SynSent,
  SynRcvd,
  Established,
  FinWait1,
  FinWait2,
  CloseWait,
  Closing,
  LastAck,
  TimeWait,
};

const char* to_string(TcpState s);

enum class TcpEvent : std::uint8_t {
  Connected,    // active open completed
  AcceptReady,  // a child connection is waiting in the accept queue
  Readable,     // receive queue went non-empty
  Writable,     // send space became available again
  PeerClosed,   // FIN received (read side drained)
  Reset,        // connection reset / failed
  Closed,       // fully closed
};

// Protocol constants every node shares.
inline constexpr std::uint16_t kMss = 1460;
// Max payload of one TSO superframe; keeps total_length <= 65535.
inline constexpr std::uint32_t kTsoMaxPayload = 42 * kMss;  // 61320
// Initial congestion window, in segments.
inline constexpr std::uint32_t kInitialCwndSegs = 10;
// Window scale applied by both ends of the simulation (negotiation is not
// modelled on the wire; see DESIGN.md fidelity notes).
inline constexpr std::uint8_t kWscale = 6;
inline constexpr sim::Time kRtoInitial = 1 * sim::kSecond;
inline constexpr sim::Time kRtoMax = 60 * sim::kSecond;
inline constexpr sim::Time kDelayedAck = 40 * sim::kMillisecond;
inline constexpr sim::Time kTimeWait = 1 * sim::kSecond;
inline constexpr int kSynRetries = 5;

struct TcpOptions {
  bool tso = false;
  std::uint32_t sndbuf_max = 1 << 20;
  std::uint32_t rcvbuf_max = 1 << 20;
  sim::Time rto_min = 200 * sim::kMillisecond;
  // Connection checkpointing (the Table I limitation, removed): established
  // connections journal their TCB through the host server's checkpoint sink
  // and survive a TCP server crash.  Off by default: the classic behaviour
  // (established connections die with the server) is byte-for-byte intact.
  bool checkpoint = false;
  // Congestion-control algorithm (src/net/cc): "newreno" (the default,
  // byte-identical to the previously inlined cwnd math), "cubic" or "bbr".
  std::string cc_algo = "newreno";
  // Per-port overrides for mixed-algorithm experiments (bench_cc's
  // dumbbell): a connection whose local or peer port matches takes that
  // algorithm instead of cc_algo.
  std::vector<std::pair<std::uint16_t, std::string>> cc_by_port;
  // Receive-side out-of-order reassembly queue, in segments per
  // connection.  0 (the default) keeps the classic drop-and-dup-ACK
  // receiver; with a budget, displaced segments are buffered and the
  // cumulative ACK jumps when the hole fills — reordering on a WAN wire no
  // longer masquerades as loss.
  std::uint32_t ooo_queue_segs = 0;
  // Initial slow-start threshold in bytes — a cached path estimate, the way
  // production stacks seed ssthresh from route metrics.  0 (the default)
  // keeps the classic unbounded slow start.  Without SACK a slow-start
  // overshoot of hundreds of segments takes one RTT per hole to repair, so
  // benches over a shallow bottleneck set this near the known pipe size.
  std::uint32_t ssthresh_init = 0;
};

// Host-side sink for connection checkpointing (implemented by the TCP
// server's CheckpointWriter, src/servers/checkpoint.h).  The engine reports
// every recoverable-state change through it:
//  - scalar updates are plain stores into a pool-resident checkpoint page
//    (shared memory that outlives the process — no IPC, safe per segment);
//  - queue membership changes move chunk references onto/off the owning
//    pool's loan ledger, so unacked send data and undelivered receive data
//    survive the crash as live chunks;
//  - establish/destroy transitions additionally journal a compact record
//    into the storage server (the only IPC this subsystem generates).
class TcpCheckpointSink {
 public:
  // Serialized congestion-control state: the engine-level RTT estimator
  // plus the algorithm's own blob (cc::CongestionControl::serialize).
  // algo == 0 means "absent" — restore falls back to conservative fresh
  // state, exactly the pre-blob behaviour.
  struct CcState {
    std::uint8_t algo = 0;  // cc::Algo
    std::uint8_t len = 0;   // bytes used in data[]
    std::int64_t srtt = 0;
    std::int64_t rttvar = 0;
    std::int64_t rto = 0;
    std::uint8_t data[cc::kCcBlobMax] = {};
  };
  static_assert(std::is_trivially_copyable_v<CcState>);
  struct Scalars {
    TcpState state = TcpState::Closed;
    std::uint32_t snd_una = 0;
    std::uint32_t snd_wnd = 0;
    std::uint32_t rcv_nxt = 0;
    bool peer_fin = false;
    bool fin_queued = false;
    CcState cc;
  };
  struct ConnMeta {
    SockId sock = 0;
    Ipv4Addr local;
    std::uint16_t lport = 0;
    Ipv4Addr peer;
    std::uint16_t pport = 0;
    SockId parent_listener = 0;  // nonzero for passive opens
    bool accept_pending = false;
  };

  virtual ~TcpCheckpointSink() = default;
  // Connection reached Established: start checkpointing it.  Returns false
  // when the sink cannot (page pool exhausted) — the connection then runs
  // un-checkpointed, exactly like the feature was off.
  virtual bool ckpt_established(const ConnMeta& meta, const Scalars& s) = 0;
  virtual void ckpt_scalars(SockId s, const Scalars& sc) = 0;
  // One chunk appended to / released from the send queue (seq = first byte).
  virtual void ckpt_sndq_push(SockId s, const chan::RichPtr& chunk,
                              std::uint32_t seq) = 0;
  virtual void ckpt_sndq_pop(SockId s, const chan::RichPtr& chunk) = 0;
  // One in-order frame queued on the receive side (payload at off/len
  // within the frame chunk), and the app consuming n bytes off the front.
  virtual void ckpt_rcvq_push(SockId s, const chan::RichPtr& frame,
                              std::uint16_t off, std::uint16_t len) = 0;
  virtual void ckpt_rcvq_consume(SockId s, std::size_t n) = 0;
  // The pending child was accepted by the application.
  virtual void ckpt_accepted(SockId s) = 0;
  // The connection left the recoverable world (closed, reset, TIME_WAIT).
  virtual void ckpt_destroyed(SockId s) = 0;
};

class TcpEngine {
 public:
  struct Env {
    Clock* clock = nullptr;
    TimerService* timers = nullptr;
    chan::PoolRegistry* pools = nullptr;
    chan::Pool* buf_pool = nullptr;  // TCP-owned: headers + send payload
    // Hands a segment to IP; `cookie` comes back through seg_done.  Returns
    // the descriptor the host packed in buf_pool, which the engine frees
    // with the header, or an invalid pointer when nothing is left to free.
    std::function<chan::RichPtr(TxSeg&&, std::uint64_t cookie)> output;
    std::function<void(const chan::RichPtr&)> rx_done;  // to IP
    std::function<void(SockId, TcpEvent)> notify;
    std::function<Ipv4Addr(Ipv4Addr dst)> src_for;
    // Connection-checkpoint sink; nullptr (the default) disables the whole
    // subsystem — no calls, no cost, no behaviour change.
    TcpCheckpointSink* ckpt = nullptr;

    // Sharded transport plane: this engine's replica index and the replica
    // count, plus the socket-id range the replica allocates from.  Active
    // connects constrain their ephemeral port so the inbound 4-tuple hash
    // steers back here; restore/replication only advances the id counter
    // for ids inside our own range (replica listeners keep foreign ids).
    int shard = 0;
    int shard_count = 1;
    SockId sock_base = 0;
    SockId sock_span = 0;  // 0 = unbounded (single-shard arrangements)
  };

  struct Stats {
    std::uint64_t segs_out = 0;
    std::uint64_t segs_in = 0;
    std::uint64_t bytes_out = 0;      // payload bytes first-transmitted
    std::uint64_t bytes_in = 0;       // payload bytes accepted in order
    std::uint64_t bytes_retx = 0;
    std::uint64_t acks_out = 0;
    std::uint64_t rtos = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t dup_acks_in = 0;
    std::uint64_t ooo_dropped = 0;
    std::uint64_t resets_out = 0;
    std::uint64_t conns_established = 0;
    std::uint64_t aggs_in = 0;        // GRO aggregates taken on the fast path
    std::uint64_t agg_frames_in = 0;  // frames those aggregates carried
    std::uint64_t conns_restored = 0; // rebuilt from a connection checkpoint
    std::uint64_t pacing_delays = 0;  // TX stalls waiting on the pacing timer
    std::uint64_t ooo_buffered = 0;   // segments held in the reassembly queue
  };

  TcpEngine(Env env, TcpOptions opts);
  ~TcpEngine();

  TcpEngine(const TcpEngine&) = delete;
  TcpEngine& operator=(const TcpEngine&) = delete;

  // --- socket API --------------------------------------------------------------
  SockId open();
  bool bind(SockId s, Ipv4Addr local, std::uint16_t port);
  bool listen(SockId s, int backlog);
  std::optional<SockId> accept(SockId s);
  bool connect(SockId s, Ipv4Addr dst, std::uint16_t port);
  bool is_listener(SockId s) const { return listeners_.count(s) != 0; }

  std::size_t send_space(SockId s) const;
  chan::RichPtr alloc_payload(std::uint32_t len);
  // Enqueues `payload` — one reference's worth of ownership passes to the
  // engine.  Usually a chunk from alloc_payload; a forwarded payload may be
  // a sub-range of any live pool chunk (the engine releases the containing
  // chunk, through its owning pool, once the bytes are ACKed).
  bool send(SockId s, chan::RichPtr payload);
  std::size_t recv_available(SockId s) const;
  // Copies up to out.size() bytes of in-order data; releases consumed frames.
  // Legacy copy path: implemented over peek()/consume().
  std::size_t recv(SockId s, std::span<std::byte> out);

  // --- zero-copy receive (Section V-C) -----------------------------------------
  // One unconsumed in-order piece of the receive queue.  `data` is a
  // read-only sub-range rich pointer over the payload bytes still queued in
  // the live frame chunk; `frame` is the whole chunk (what forward() bumps
  // a reference on).  No bytes move; the engine keeps its frame references
  // until consume().
  struct PeekChunk {
    chan::RichPtr frame;
    chan::RichPtr data;
  };
  // Fills `out` with up to out.size() pieces from the front of the receive
  // queue; returns the piece count.
  std::size_t peek(SockId s, std::span<PeekChunk> out) const;
  // Advances the stream by up to `n` bytes: releases fully consumed frames
  // (rx_done back to their owner) and sends the window-reopen ACK exactly
  // like recv() always did.  Returns the bytes actually consumed.
  std::size_t consume(SockId s, std::size_t n);
  // Asks for a Writable notification once send space frees up (what a
  // failed send() arms implicitly; forward() uses it when bounded by the
  // destination's send space).
  void want_writable(SockId s);
  // Graceful close.  Returns false for unknown sockets.
  bool close(SockId s);
  // Hard reset.
  void abort(SockId s);

  TcpState state(SockId s) const;
  struct TupleInfo {
    Ipv4Addr local;
    std::uint16_t lport = 0;
    Ipv4Addr peer;
    std::uint16_t pport = 0;
  };
  std::optional<TupleInfo> tuple(SockId s) const;

  // --- from IP ------------------------------------------------------------------
  void input(L4Packet&& pkt);
  // A GRO aggregate: same-flow, seq-consecutive data segments merged by IP.
  // The fast path charges the connection machinery once for the whole
  // aggregate and answers with ONE (stretch) ACK; anything that fails the
  // fast-path preconditions falls back to per-segment input().
  void input_agg(std::vector<L4Packet>&& segs);
  void seg_done(std::uint64_t cookie, bool sent);
  // After an IP crash: replies to old cookies will never arrive.  Frees all
  // pending headers (data stays in sndq) and retransmits aggressively so the
  // connection recovers its bitrate quickly (Section V-D "IP").
  void on_ip_restart();
  // The path below us healed (link back up after a device reset): stop
  // waiting out backed-off RTOs and retransmit immediately (Section V-D:
  // "it is much more important that we quickly retransmit").
  void on_path_restored();

  // --- recovery -----------------------------------------------------------------
  struct ListenRec {
    SockId id = 0;
    Ipv4Addr addr;
    std::uint16_t port = 0;
    int backlog = 8;
  };
  std::vector<ListenRec> listeners() const;
  void restore_listener(const ListenRec& rec);
  static std::vector<std::byte> serialize_listeners(
      const std::vector<ListenRec>&);
  static std::optional<std::vector<ListenRec>> parse_listeners(
      std::span<const std::byte>);
  std::vector<PfStateKey> connection_keys() const;

  // --- connection checkpointing (transparent TCP recovery) ----------------------
  // Rebuilds one established connection from its checkpoint: the scalars
  // come from the pool-resident checkpoint page, the queue chunks from the
  // loan ledger via the page's slot arrays.  The engine re-takes ownership
  // of every chunk reference (they were parked, never released).  cwnd/RTT
  // restart conservatively; snd_nxt rewinds to snd_una so resync_restored()
  // retransmits from the last acked watermark.
  struct RestoredSndChunk {
    std::uint32_t seq = 0;
    chan::RichPtr chunk;
  };
  struct RestoredRcvChunk {
    chan::RichPtr frame;
    std::uint16_t offset = 0;
    std::uint16_t len = 0;
    std::uint16_t consumed = 0;
  };
  struct RestoredConn {
    SockId sock = 0;
    TcpState state = TcpState::Closed;
    Ipv4Addr local;
    std::uint16_t lport = 0;
    Ipv4Addr peer;
    std::uint16_t pport = 0;
    std::uint32_t snd_una = 0;
    std::uint32_t snd_wnd = 0;
    std::uint32_t rcv_nxt = 0;
    bool peer_fin = false;
    bool fin_queued = false;
    SockId parent_listener = 0;
    bool accept_pending = false;
    std::vector<RestoredSndChunk> sndq;
    std::vector<RestoredRcvChunk> rcvq;
    // Congestion-control snapshot from the checkpoint page; algo == 0
    // (e.g. a pre-blob v1 journal record) restores conservatively.
    TcpCheckpointSink::CcState cc;
  };
  bool restore_conn(const RestoredConn& rec);
  // Resynchronizes every restored connection with its peer: go-back-N
  // retransmission from snd_una, a window-announcing ACK, and the readiness
  // events (Readable/Writable/AcceptReady) the application missed.
  void resync_restored();
  // Crash path (on_killed): checkpointed connections drop their queue
  // references WITHOUT releasing them — the references live on in the loan
  // ledger and the checkpoint pages, which is what restore_conn() adopts.
  // Detaches the sink; the remaining (un-checkpointed) state tears down as
  // it always did.
  void park_checkpointed();
  // Stops checkpointing one connection (sink overflow): it reverts to the
  // classic non-recoverable behaviour.
  void drop_checkpoint(SockId s);

  // Human-readable connection state (diagnostics and examples).
  std::string debug(SockId s) const;

  // --- congestion-control observability -----------------------------------------
  struct CcInfo {
    const char* algo = "";
    std::uint32_t cwnd = 0;
    std::uint32_t ssthresh = 0;
    std::uint64_t pacing_rate = 0;  // bytes/sec; 0 = unpaced
  };
  std::optional<CcInfo> cc_info(SockId s) const;
  std::vector<SockId> connection_socks() const;

  const Stats& stats() const { return stats_; }
  const TcpOptions& options() const { return opts_; }
  std::size_t connection_count() const { return conns_.size(); }

  // Teardown/crash support: replaces the rx_done report with a direct
  // release through the pool registry.  A dying or destructed host has no
  // handler context to send kL4RxDone messages from.
  void detach_rx_done() {
    env_.rx_done = [pools = env_.pools](const chan::RichPtr& frame) {
      pools->release(frame);
    };
  }

 private:
  struct SendChunk {
    std::uint32_t seq = 0;  // sequence number of first byte
    chan::RichPtr chunk;
  };
  struct RecvChunk {
    chan::RichPtr frame;          // held until consumed, then rx_done
    std::uint16_t offset = 0;     // payload start within frame
    std::uint16_t len = 0;
    std::uint16_t consumed = 0;
  };
  struct ConnKey {
    std::uint32_t peer = 0;
    std::uint16_t pport = 0;
    std::uint16_t lport = 0;
    auto operator<=>(const ConnKey&) const = default;
  };
  // Wraparound-safe sequence ordering for the reassembly map.
  struct SeqLess {
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return static_cast<std::int32_t>(a - b) < 0;
    }
  };
  struct Conn {
    SockId sock = 0;
    TcpState state = TcpState::Closed;
    Ipv4Addr local;
    std::uint16_t lport = 0;
    Ipv4Addr peer;
    std::uint16_t pport = 0;

    // Send side.
    std::uint32_t iss = 0;
    std::uint32_t snd_una = 0;
    std::uint32_t snd_nxt = 0;
    std::uint32_t snd_buf_end = 0;  // seq after last byte queued
    std::uint32_t snd_wnd = 0;      // peer-advertised (scaled)
    // cwnd/ssthresh mirror the congestion-control module (synced after
    // every hook); tcp_output() and debug() read them as they always did.
    std::uint32_t cwnd = 0;
    std::uint32_t ssthresh = 0;
    std::unique_ptr<cc::CongestionControl> cc;
    // Pacing (rate-based controllers): earliest time the next data segment
    // may leave, and the timer that resumes tcp_output() at that instant.
    sim::Time pace_next = 0;
    TimerService::TimerId pace_timer = 0;
    std::uint32_t dup_acks = 0;
    std::uint32_t high_water = 0;  // highest snd_nxt reached (retx detection)
    bool in_recovery = false;      // NewReno fast recovery (RFC 6582)
    std::uint32_t recover = 0;     // recovery point: snd_nxt at loss entry
    bool fin_queued = false;
    std::deque<SendChunk> sndq;
    std::uint32_t sndq_bytes = 0;
    bool was_send_blocked = false;

    // RTT estimation (Jacobson) + RTO.
    sim::Time srtt = 0;
    sim::Time rttvar = 0;
    sim::Time rto = 0;
    bool rtt_sampling = false;
    std::uint32_t rtt_seq = 0;
    sim::Time rtt_sent_at = 0;
    TimerService::TimerId rto_timer = 0;
    int syn_attempts = 0;

    // Receive side.
    std::uint32_t irs = 0;
    std::uint32_t rcv_nxt = 0;
    std::deque<RecvChunk> rcvq;
    std::uint32_t rcvq_bytes = 0;
    // Out-of-order reassembly (TcpOptions::ooo_queue_segs > 0), keyed by
    // sequence number with wraparound-safe ordering.  Frames here are NOT
    // readable, not counted in rcvq_bytes and never checkpointed (the peer
    // retransmits them after a restore).
    std::map<std::uint32_t, RecvChunk, SeqLess> ooo;
    bool peer_fin = false;
    bool fin_acked_by_us = false;
    int segs_since_ack = 0;
    TimerService::TimerId ack_timer = 0;
    TimerService::TimerId timewait_timer = 0;

    SockId parent_listener = 0;
    bool ckpt = false;  // journaled through the checkpoint sink
  };
  struct Listener {
    SockId sock = 0;
    Ipv4Addr addr;
    std::uint16_t port = 0;
    int backlog = 8;
    std::deque<SockId> acceptq;
  };

  // Sequence-space comparisons (wraparound-safe).
  static bool seq_lt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) < 0;
  }
  static bool seq_leq(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) <= 0;
  }

  Conn* conn_for(SockId s);
  const Conn* conn_for(SockId s) const;
  // Releases one reference on a payload chunk through its owning pool
  // (resolves sub-ranges; forwarded payloads live in foreign pools).
  void release_payload(const chan::RichPtr& p);
  Conn* conn_by_tuple(Ipv4Addr peer, std::uint16_t pport, std::uint16_t lport);
  // Picks a free ephemeral port; with replicas, one whose inbound 4-tuple
  // (peer:pport -> local:port) steers back to this shard.
  std::uint16_t ephemeral_port(Ipv4Addr local, Ipv4Addr peer,
                               std::uint16_t pport);
  // True when `s` lies in this replica's own id range.
  bool own_sock(SockId s) const {
    return env_.sock_span == 0 ||
           (s > env_.sock_base && s - env_.sock_base < env_.sock_span);
  }
  std::uint32_t next_isn();

  void tcp_output(Conn& c);
  void send_segment(Conn& c, std::uint32_t seq, std::uint32_t len,
                    std::uint8_t flags, bool retransmission);
  void send_ack(Conn& c);
  void send_rst(Ipv4Addr src, Ipv4Addr dst, std::uint16_t sport,
                std::uint16_t dport, std::uint32_t seq, std::uint32_t ack,
                bool with_ack);
  void schedule_ack(Conn& c);
  void arm_rto(Conn& c);
  void cancel_rto(Conn& c);
  void on_rto(SockId sock);
  // A segment IP has not completed yet: the engine's header and the host's
  // descriptor, both in buf_pool.
  struct InFlight {
    chan::RichPtr hdr;
    chan::RichPtr desc;
  };
  // Hands `seg` to the host under the in-flight record `cookie`.
  void output(TxSeg&& seg, std::uint64_t cookie);
  void free_in_flight(const InFlight& f);
  void process_ack(Conn& c, const TcpHeader& h);
  // Returns true when the engine retained a reference to pkt.frame (queued
  // in rcvq or the reassembly map).
  bool accept_data(Conn& c, const L4Packet& pkt, const TcpHeader& h,
                   std::uint16_t data_off, std::uint16_t data_len);
  // Drains now-in-order segments from the reassembly map into rcvq;
  // returns true when any bytes were promoted (send an immediate ACK so
  // the sender sees the cumulative jump).
  bool flush_ooo(Conn& c);
  void enter_time_wait(Conn& c);
  void destroy_conn(SockId s, bool notify_reset);
  std::uint32_t flight_size(const Conn& c) const {
    return c.snd_nxt - c.snd_una;
  }
  std::uint32_t rcv_space(const Conn& c) const;
  std::uint16_t window_field(const Conn& c) const;
  void notify(SockId s, TcpEvent e);

  // --- congestion-control plumbing ---------------------------------------------------
  cc::CcConfig cc_config() const {
    return cc::CcConfig{kMss, kInitialCwndSegs * std::uint32_t{kMss},
                        opts_.ssthresh_init};
  }
  // Builds the module for a connection: a cc_by_port match (local or peer
  // port) overrides cc_algo; an unknown name falls back to NewReno.
  std::unique_ptr<cc::CongestionControl> make_cc(std::uint16_t lport,
                                                 std::uint16_t pport) const;
  // Mirrors the module's outputs into the Conn fields the TX path reads.
  void sync_cc(Conn& c) {
    c.cwnd = c.cc->cwnd();
    c.ssthresh = c.cc->ssthresh();
  }
  void cancel_pace(Conn& c) {
    if (c.pace_timer) {
      env_.timers->cancel(c.pace_timer);
      c.pace_timer = 0;
    }
  }

  // --- checkpoint plumbing ---------------------------------------------------------
  bool ckpt_on(const Conn& c) const {
    return c.ckpt && env_.ckpt != nullptr;
  }
  TcpCheckpointSink::Scalars ckpt_scalars_of(const Conn& c) const;
  // Pushes the current scalars into the checkpoint page (no-op when the
  // connection is not checkpointed).
  void ckpt_touch(Conn& c);
  // Marks the connection established towards the sink; clears c.ckpt when
  // the sink cannot take it.
  void ckpt_establish(Conn& c, bool accept_pending);

  Env env_;
  TcpOptions opts_;
  Stats stats_;

  SockId next_sock_ = 1;  // rebased onto env_.sock_base by the constructor
  std::uint16_t next_port_ = 30000;
  std::uint32_t isn_ = 0x1000;

  std::unordered_map<SockId, Listener> listeners_;
  std::unordered_map<std::uint16_t, SockId> listen_ports_;
  std::unordered_map<SockId, Conn> conns_;
  std::map<ConnKey, SockId> by_tuple_;
  chan::RequestDb<InFlight> inflight_;
  // Sockets created by open() but not yet listener/connection.
  std::unordered_map<SockId, TupleInfo> embryos_;
  // Connections restore_conn() rebuilt, awaiting resync_restored().
  std::vector<SockId> pending_resync_;
};

}  // namespace newtos::net
