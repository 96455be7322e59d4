#include "src/core/socket.h"

#include <utility>

#include "src/core/node.h"
#include "src/servers/proto.h"

namespace newtos {

AppActor::AppActor(servers::NodeEnv* env, std::string name,
                   sim::SimCore* core)
    : Server(env, std::move(name), core) {}

AppActor::~AppActor() = default;

void AppActor::set_main(std::function<void(sim::Context&)> main) {
  main_ = std::move(main);
}

void AppActor::attach_ring(std::unique_ptr<SocketRing> ring) {
  ring_ = std::move(ring);
}

void AppActor::start(bool restart) {
  announce(restart);
  if (main_) post_control(main_, 300);
}

void AppActor::call(std::function<void(sim::Context&)> fn, sim::Cycles cost) {
  post_control(std::move(fn), cost);
}

void AppActor::on_killed() {
  if (ring_ == nullptr || borrower_id_ == 0) return;
  for (chan::Pool* pool : ring_->node().pools().all()) {
    pool->reclaim(borrower_id_);
  }
}

void AppActor::call_after(sim::Time delay,
                          std::function<void(sim::Context&)> fn) {
  const std::uint32_t inc = incarnation();
  sim().after(delay, [this, inc, fn = std::move(fn)] {
    if (!alive() || incarnation() != inc) return;
    post_control(fn, 200);
  });
}

// --- zero-copy lending currency ----------------------------------------------------

SendReservation::SendReservation(SendReservation&& o) noexcept
    : node_(o.node_),
      borrower_(o.borrower_),
      bytes_(o.bytes_),
      chunks_(std::move(o.chunks_)) {
  o.node_ = nullptr;
  o.bytes_ = 0;
  o.chunks_.clear();
}

SendReservation& SendReservation::operator=(SendReservation&& o) noexcept {
  if (this != &o) {
    cancel();
    node_ = o.node_;
    borrower_ = o.borrower_;
    bytes_ = o.bytes_;
    chunks_ = std::move(o.chunks_);
    o.node_ = nullptr;
    o.bytes_ = 0;
    o.chunks_.clear();
  }
  return *this;
}

std::span<std::byte> SendReservation::chunk(std::size_t i) {
  if (node_ == nullptr || i >= chunks_.size()) return {};
  chan::Pool* pool = node_->pools().find(chunks_[i].pool);
  if (pool == nullptr || !pool->live(chunks_[i])) return {};
  return pool->write_view(chunks_[i]);
}

void SendReservation::cancel() {
  if (node_ != nullptr) {
    for (const auto& c : chunks_) {
      chan::Pool* pool = node_->pools().find(c.pool);
      if (pool != nullptr && pool->note_return(c, borrower_)) {
        pool->release(c);
      }
    }
  }
  chunks_.clear();
  bytes_ = 0;
  node_ = nullptr;
}

BorrowedDatagram::BorrowedDatagram(BorrowedDatagram&& o) noexcept
    : node_(o.node_),
      borrower_(o.borrower_),
      frame_(o.frame_),
      data_(o.data_),
      src_(o.src_),
      sport_(o.sport_) {
  o.frame_ = chan::kNullRichPtr;
  o.node_ = nullptr;
}

BorrowedDatagram& BorrowedDatagram::operator=(BorrowedDatagram&& o) noexcept {
  if (this != &o) {
    release();
    node_ = o.node_;
    borrower_ = o.borrower_;
    frame_ = o.frame_;
    data_ = o.data_;
    src_ = o.src_;
    sport_ = o.sport_;
    o.frame_ = chan::kNullRichPtr;
    o.node_ = nullptr;
  }
  return *this;
}

std::span<const std::byte> BorrowedDatagram::data() const {
  if (node_ == nullptr) return {};
  return node_->pools().read(data_);
}

void BorrowedDatagram::release() {
  if (node_ != nullptr && frame_.valid()) {
    chan::Pool* pool = node_->pools().find(frame_.pool);
    // Only a loan still on record is returned: a second release, or one
    // against a pool the owner reset after a crash, is a no-op.  The
    // direct pool release is the consumer's RX done-report to the owner
    // (IpEngine::rx_done does exactly this).
    if (pool != nullptr && pool->note_return(frame_, borrower_)) {
      pool->release(frame_);
    }
  }
  frame_ = chan::kNullRichPtr;
  node_ = nullptr;
}

// --- Socket (RAII base) ------------------------------------------------------------

Socket::Socket(AppActor& app, char proto) : st_(std::make_shared<State>()) {
  st_->app = &app;
  st_->node = &app.ring().node();
  st_->proto = proto;
}

Socket::Socket(AppActor& app, char proto, std::uint32_t adopt_id)
    : Socket(app, proto) {
  st_->id = adopt_id;
}

Socket::~Socket() { close({}); }

SocketRing& Socket::ring() const { return st_->app->ring(); }

void Socket::register_events(const std::shared_ptr<State>& st) {
  if (st->id == 0 || !st->on_event) return;
  st->node->sock_handlers_[{st->proto, st->id}] = {
      st->app, [st](net::TcpEvent ev) {
        if (!st->closed && st->on_event) st->on_event(ev);
      }};
}

void Socket::on_event(SockEventFn fn) {
  st_->on_event = std::move(fn);
  register_events(st_);
}

SocketRing::CompletionFn Socket::status_cb(SockStatusFn cb) const {
  if (!cb) return {};
  return [st = st_, cb = std::move(cb)](const SockCqe& c) {
    if (st->closed) return;
    cb(c.ok);
  };
}

void Socket::submit_ctl(SockSqe op, SocketRing::CompletionFn cb) {
  if (st_->id != 0) {
    op.sock = st_->id;
    ring().enqueue(std::move(op), std::move(cb));
    return;
  }
  if (!st_->opening) {
    st_->opening = true;
    SockSqe open;
    open.opcode = servers::kSockOpen;
    open.proto = st_->proto;
    ring().enqueue(open, [st = st_](const SockCqe& c) {
      st->opening = false;
      if (c.ok && c.value != 0) {
        st->id = static_cast<std::uint32_t>(c.value);
      }
      if (st->closed && st->id != 0) {
        // The object died while the open was in flight: release the
        // freshly created kernel socket right away.
        SockSqe cl;
        cl.opcode = servers::kSockClose;
        cl.proto = st->proto;
        cl.sock = st->id;
        st->app->ring().enqueue(cl, {});
        st->id = 0;
      } else {
        register_events(st);
      }
      // Replay held ops with the real id (0 when the open failed — the
      // transport then fails them cleanly and the callbacks report it).
      auto held = std::move(st->deferred);
      st->deferred.clear();
      for (auto& [hop, hcb] : held) {
        hop.sock = st->id;
        st->app->ring().enqueue(std::move(hop), std::move(hcb));
      }
    });
    st_->open_cookie = ring().last_cookie();
  }
  if (ring().rides_next_flush(st_->open_cookie) &&
      ring().last_open_cookie(st_->proto) == st_->open_cookie) {
    // Our open is still in the SQ and is the latest of its protocol, so
    // the nearest-preceding-open sentinel resolves to it in this batch.
    op.sock = servers::kSockFromBatchOpen;
    ring().enqueue(std::move(op), std::move(cb));
    return;
  }
  // The open rode an earlier doorbell (or another socket opened after
  // ours): hold the op and replay it with the real id on completion.
  st_->deferred.emplace_back(std::move(op), std::move(cb));
}

void Socket::close(SockStatusFn cb) {
  if (st_->closed) {
    if (cb) cb(true);
    return;
  }
  st_->closed = true;
  if (st_->id != 0) {
    node().sock_handlers_.erase({st_->proto, st_->id});
    SockSqe op;
    op.opcode = servers::kSockClose;
    op.proto = st_->proto;
    op.sock = st_->id;
    // Deliver the close completion even though st_->closed is set.
    SocketRing::CompletionFn done;
    if (cb) {
      done = [cb = std::move(cb)](const SockCqe& c) { cb(c.ok); };
    }
    ring().enqueue(op, std::move(done));
    st_->id = 0;
  } else if (cb) {
    cb(true);
  }
  // An open still in flight is handled by its completion (see submit_ctl).
}

// --- TcpSocket ---------------------------------------------------------------------

TcpSocket::TcpSocket(AppActor& app) : Socket(app, 'T') {}

TcpSocket::TcpSocket(AppActor& app, std::uint32_t accepted_id)
    : Socket(app, 'T', accepted_id) {}

void TcpSocket::connect(net::Ipv4Addr dst, std::uint16_t port,
                        SockStatusFn cb) {
  SockSqe op;
  op.opcode = servers::kSockConnect;
  op.proto = 'T';
  op.arg0 = dst.value;
  op.arg1 = port;
  submit_ctl(op, status_cb(std::move(cb)));
}

void TcpSocket::send(std::uint32_t len, SockStatusFn cb) {
  // Legacy copy semantics on top of the lending machinery: reserve the
  // exported buffer, pay the copy in (the bytes are synthetic in the
  // simulation, the cost and the counter are real), submit the chain.
  SockSqe op;
  op.opcode = servers::kSockSend;
  op.proto = 'T';
  op.sock = st_->id;
  if (node().tcp_engine(net::sock_shard(st_->id)) == nullptr) {
    // A dead transport is not backpressure: report it as such.
    ring().fail_local(op, status_cb(std::move(cb)), kSockEDown);
    return;
  }
  SendReservation res = reserve(len);
  if (!res.valid()) {
    ring().fail_local(op, status_cb(std::move(cb)), kSockENoBufs);
    return;
  }
  app().cur().charge(node().sim().costs().copy_cost(len));
  node().stats().add("sock.bytes_copied", len);
  submit(std::move(res), std::move(cb));
}

RecvView TcpSocket::recv_zc() {
  RecvView v;
  const int shard = net::sock_shard(st_->id);
  net::TcpEngine* eng = node().tcp_engine(shard);
  servers::Server* srv = node().transport_server('T', shard);
  if (eng == nullptr || srv == nullptr || st_->id == 0) return v;
  servers::Server::BorrowContext borrow(*srv, app().cur());
  for (;;) {
    net::TcpEngine::PeekChunk pcs[RecvView::kMaxChunks];
    const std::size_t k =
        eng->peek(st_->id, std::span<net::TcpEngine::PeekChunk>(pcs));
    if (k == 0) return v;
    for (std::size_t i = 0; i < k; ++i) {
      auto bytes = node().pools().read(pcs[i].data);
      // The view is the contiguous LIVE prefix: it stops at the first
      // stale frame (owner reset its pool), so consume(v.bytes) advances
      // exactly over the viewed bytes.
      if (bytes.empty()) break;
      v.chunk[v.chunks++] = bytes;
      v.bytes += bytes.size();
    }
    app().cur().charge(
        static_cast<sim::Cycles>(k) * node().sim().costs().cache_line_pull);
    if (v.chunks > 0) return v;
    // The FRONT frame is stale: purge its dead bytes so the queue cannot
    // wedge behind it, then look again.
    eng->consume(st_->id, pcs[0].data.length);
  }
}

std::size_t TcpSocket::consume(std::size_t n) {
  const int shard = net::sock_shard(st_->id);
  net::TcpEngine* eng = node().tcp_engine(shard);
  servers::Server* srv = node().transport_server('T', shard);
  if (eng == nullptr || srv == nullptr || st_->id == 0) return 0;
  servers::Server::BorrowContext borrow(*srv, app().cur());
  return eng->consume(st_->id, n);
}

SendReservation TcpSocket::reserve(std::uint32_t len,
                                   std::uint32_t chunk_bytes) {
  SendReservation res;
  res.node_ = &node();
  res.borrower_ = app().borrower_id();
  // The chunks come from the home replica's pool; an op queued before the
  // open completed falls back to shard 0 (payloads travel cross-pool fine).
  net::TcpEngine* eng = node().tcp_engine(net::sock_shard(st_->id));
  if (eng == nullptr) eng = node().tcp_engine(0);
  if (eng == nullptr || len == 0) return res;
  if (chunk_bytes == 0) chunk_bytes = len;
  std::uint32_t left = len;
  while (left > 0) {
    const std::uint32_t take = std::min(left, chunk_bytes);
    chan::RichPtr p = eng->alloc_payload(take);
    if (!p.valid()) {
      node().stats().add("sock.enobufs");
      res.cancel();
      return res;
    }
    if (chan::Pool* pool = node().pools().find(p.pool)) {
      pool->note_borrow(p, res.borrower_);
    }
    res.chunks_.push_back(p);
    res.bytes_ += take;
    left -= take;
  }
  return res;
}

void TcpSocket::submit_chain(std::vector<chan::RichPtr> pieces,
                             SockStatusFn cb) {
  const std::size_t n = pieces.size();
  auto st = st_;
  auto all_ok = std::make_shared<bool>(true);
  SocketRing::CompletionFn done = status_cb(std::move(cb));
  for (std::size_t i = 0; i < n; ++i) {
    st->inflight_tx += pieces[i].length;
    const std::uint64_t len = pieces[i].length;
    SockSqe op;
    op.opcode = servers::kSockSend;
    op.proto = 'T';
    op.ptr = pieces[i];
    if (i + 1 < n) {
      submit_ctl(op, [st, all_ok, len](const SockCqe& cqe) {
        st->inflight_tx -= std::min(st->inflight_tx, len);
        if (!cqe.ok) *all_ok = false;
      });
    } else {
      submit_ctl(op,
                 [st, all_ok, len, done = std::move(done)](const SockCqe& cqe) {
                   st->inflight_tx -= std::min(st->inflight_tx, len);
                   if (!done) return;
                   SockCqe agg = cqe;
                   agg.ok = agg.ok && *all_ok;
                   done(agg);
                 });
    }
  }
}

void TcpSocket::submit(SendReservation res, SockStatusFn cb) {
  if (!res.valid()) {
    SockSqe op;
    op.opcode = servers::kSockSend;
    op.proto = 'T';
    op.sock = st_->id;
    ring().fail_local(op, status_cb(std::move(cb)), kSockENoBufs);
    return;
  }
  // The loan ends here: ownership of every chunk passes to the transport
  // with its op.  All ops of the chain ride one flush (one trap).
  for (const chan::RichPtr& c : res.chunks_) {
    if (chan::Pool* pool = node().pools().find(c.pool)) {
      pool->note_return(c, res.borrower_);
    }
  }
  submit_chain(std::move(res.chunks_), std::move(cb));
  res.chunks_.clear();
  res.bytes_ = 0;
  res.node_ = nullptr;
}

std::size_t TcpSocket::forward(TcpSocket& dst, std::size_t max_bytes,
                               SockStatusFn cb) {
  // Source and destination may live on different replicas: the spliced
  // chunks are sub-range pointers into IP's receive pool, which every
  // shard resolves through the registry, so the splice crosses shards
  // without a copy.
  const int src_shard = net::sock_shard(st_->id);
  const int dst_shard = net::sock_shard(dst.st_->id);
  net::TcpEngine* eng = node().tcp_engine(src_shard);
  net::TcpEngine* dst_eng = node().tcp_engine(dst_shard);
  servers::Server* srv = node().transport_server('T', src_shard);
  servers::Server* dst_srv = node().transport_server('T', dst_shard);
  if (eng == nullptr || dst_eng == nullptr || srv == nullptr ||
      dst_srv == nullptr || &node() != &dst.node() || st_->id == 0 ||
      dst.st_->id == 0) {
    if (cb) app().call([cb](sim::Context&) { cb(false); });
    return 0;
  }
  std::vector<chan::RichPtr> pieces;
  std::size_t moved = 0;
  {
    servers::Server::BorrowContext borrow(*srv, app().cur());
    servers::Server::BorrowContext dst_borrow(*dst_srv, app().cur());
    // Never consume more than the destination can take: bytes are consumed
    // from the source before the submissions execute, so dropping any
    // later would hole the spliced stream.  Two budgets bound the chain:
    // the destination's send space minus bytes already submitted but not
    // yet completed (the engine cannot see un-flushed ops), and the free
    // submission-queue slots (an overflowing op fails and releases its
    // payload).
    const std::size_t space = dst_eng->send_space(dst.st_->id);
    const std::size_t pending =
        static_cast<std::size_t>(dst.st_->inflight_tx);
    max_bytes = std::min(max_bytes, space > pending ? space - pending : 0);
    const std::size_t sq_free = dst.ring().sq_free();
    const std::size_t piece_budget = sq_free > 8 ? sq_free - 8 : 0;
    while (moved < max_bytes && pieces.size() < piece_budget) {
      net::TcpEngine::PeekChunk pcs[RecvView::kMaxChunks];
      const std::size_t k =
          eng->peek(st_->id, std::span<net::TcpEngine::PeekChunk>(pcs));
      if (k == 0) break;
      std::size_t round = 0;
      for (std::size_t i = 0;
           i < k && moved < max_bytes && pieces.size() < piece_budget; ++i) {
        chan::Pool* pool = node().pools().find(pcs[i].frame.pool);
        if (pool == nullptr) break;
        chan::RichPtr data = pcs[i].data;
        const std::size_t want = max_bytes - moved;
        if (data.length > want) {
          data.length = static_cast<std::uint32_t>(want);
        }
        // One extra owner-side reference keeps the frame alive on the
        // destination's send queue until its bytes are ACKed.
        pool->addref(pcs[i].frame);
        pieces.push_back(data);
        moved += data.length;
        round += data.length;
      }
      if (round == 0) break;
      eng->consume(st_->id, round);
    }
    app().cur().charge(static_cast<sim::Cycles>(pieces.size()) *
                       node().sim().costs().cache_line_pull);
    // Bytes left behind (destination window full): ask for a Writable
    // event on the destination so the splice resumes without polling.
    if (eng->recv_available(st_->id) > 0) {
      dst_eng->want_writable(dst.st_->id);
    }
  }
  if (pieces.empty()) {
    if (cb) app().call([cb](sim::Context&) { cb(true); });
    return 0;
  }
  // Re-submit the chain on the destination — the bytes never moved.
  dst.submit_chain(std::move(pieces), std::move(cb));
  return moved;
}

std::size_t TcpSocket::send_space() const {
  net::TcpEngine* eng = node().tcp_engine(net::sock_shard(st_->id));
  return eng == nullptr ? 0 : eng->send_space(st_->id);
}

std::size_t TcpSocket::recv(std::span<std::byte> out) {
  const int shard = net::sock_shard(st_->id);
  net::TcpEngine* eng = node().tcp_engine(shard);
  servers::Server* srv = node().transport_server('T', shard);
  if (eng == nullptr || srv == nullptr) return 0;
  servers::Server::BorrowContext borrow(*srv, app().cur());
  const std::size_t n = eng->recv(st_->id, out);
  app().cur().charge(
      node().sim().costs().copy_cost(static_cast<std::int64_t>(n)));
  if (n > 0) node().stats().add("sock.bytes_copied", n);
  return n;
}

std::size_t TcpSocket::recv_available() const {
  net::TcpEngine* eng = node().tcp_engine(net::sock_shard(st_->id));
  return eng == nullptr ? 0 : eng->recv_available(st_->id);
}

// --- TcpListener -------------------------------------------------------------------

TcpListener::TcpListener(AppActor& app) : Socket(app, 'T') {}

void TcpListener::bind_listen(net::Ipv4Addr addr, std::uint16_t port,
                              int backlog, SockStatusFn cb) {
  SockSqe b;
  b.opcode = servers::kSockBind;
  b.proto = 'T';
  b.arg0 = addr.value;
  b.arg1 = port;
  auto bind_ok = std::make_shared<bool>(false);
  submit_ctl(b, [bind_ok](const SockCqe& c) { *bind_ok = c.ok; });

  SockSqe l;
  l.opcode = servers::kSockListen;
  l.proto = 'T';
  l.arg0 = static_cast<std::uint64_t>(backlog);
  // Completions arrive in submission order, so bind_ok is settled by the
  // time the listen completes.
  SocketRing::CompletionFn done;
  if (cb) {
    done = [st = st_, bind_ok, cb = std::move(cb)](const SockCqe& c) {
      if (st->closed) return;
      cb(c.ok && *bind_ok);
    };
  }
  submit_ctl(l, std::move(done));
}

std::unique_ptr<TcpSocket> TcpListener::accept() {
  // SO_REUSEPORT steering: every replica owns an accept queue for the
  // listener's port, so pop from whichever shard queued a connection.  The
  // child id encodes the replica the flow was steered to, which is where
  // all its further ops route.
  for (int shard = 0; shard < node().tcp_shard_count(); ++shard) {
    net::TcpEngine* eng = node().tcp_engine(shard);
    servers::Server* srv = node().transport_server('T', shard);
    if (eng == nullptr || srv == nullptr) continue;
    servers::Server::BorrowContext borrow(*srv, app().cur());
    auto child = eng->accept(st_->id);
    if (!child) continue;
    return std::make_unique<TcpSocket>(app(), *child);
  }
  return nullptr;
}

// --- UdpSocket ---------------------------------------------------------------------

UdpSocket::UdpSocket(AppActor& app) : Socket(app, 'U') {}

void UdpSocket::bind(net::Ipv4Addr addr, std::uint16_t port,
                     SockStatusFn cb) {
  SockSqe op;
  op.opcode = servers::kSockBind;
  op.proto = 'U';
  op.arg0 = addr.value;
  op.arg1 = port;
  submit_ctl(op, status_cb(std::move(cb)));
}

void UdpSocket::connect(net::Ipv4Addr peer, std::uint16_t port,
                        SockStatusFn cb) {
  SockSqe op;
  op.opcode = servers::kSockConnect;
  op.proto = 'U';
  op.arg0 = peer.value;
  op.arg1 = port;
  submit_ctl(op, status_cb(std::move(cb)));
}

void UdpSocket::sendto(std::uint32_t len, net::Ipv4Addr dst,
                       std::uint16_t port, SockStatusFn cb) {
  // Legacy copy semantics over the lending machinery (see TcpSocket::send).
  SockSqe op;
  op.opcode = servers::kSockSendTo;
  op.proto = 'U';
  op.sock = st_->id;
  if (node().udp_engine(net::sock_shard(st_->id)) == nullptr) {
    ring().fail_local(op, status_cb(std::move(cb)), kSockEDown);
    return;
  }
  SendReservation res = reserve(len);
  if (!res.valid()) {
    ring().fail_local(op, status_cb(std::move(cb)), kSockENoBufs);
    return;
  }
  app().cur().charge(node().sim().costs().copy_cost(len));
  node().stats().add("sock.bytes_copied", len);
  submit(std::move(res), dst, port, std::move(cb));
}

SendReservation UdpSocket::reserve(std::uint32_t len) {
  SendReservation res;
  res.node_ = &node();
  res.borrower_ = app().borrower_id();
  // Staged in the home replica's pool, where the sendto will execute.
  net::UdpEngine* eng = node().udp_engine(net::sock_shard(st_->id));
  if (eng == nullptr) eng = node().udp_engine(0);
  if (eng == nullptr || len == 0) return res;
  chan::RichPtr p = eng->alloc_payload(len);
  if (!p.valid()) {
    node().stats().add("sock.enobufs");
    return res;
  }
  if (chan::Pool* pool = node().pools().find(p.pool)) {
    pool->note_borrow(p, res.borrower_);
  }
  res.chunks_.push_back(p);
  res.bytes_ = len;
  return res;
}

void UdpSocket::submit(SendReservation res, net::Ipv4Addr dst,
                       std::uint16_t port, SockStatusFn cb) {
  if (!res.valid() || res.chunk_count() != 1) {
    // A datagram is one chunk; a scatter reservation (built for a TCP
    // socket) is rejected whole — cancel() returns every loan.
    const std::uint16_t err = res.valid() ? kSockERejected : kSockENoBufs;
    res.cancel();
    SockSqe op;
    op.opcode = servers::kSockSendTo;
    op.proto = 'U';
    op.sock = st_->id;
    ring().fail_local(op, status_cb(std::move(cb)), err);
    return;
  }
  const chan::RichPtr payload = res.chunks_.front();
  if (chan::Pool* pool = node().pools().find(payload.pool)) {
    pool->note_return(payload, res.borrower_);
  }
  res.chunks_.clear();
  res.bytes_ = 0;
  res.node_ = nullptr;
  SockSqe op;
  op.opcode = servers::kSockSendTo;
  op.proto = 'U';
  op.ptr = payload;
  op.arg0 = dst.value;
  op.arg1 = port;
  submit_ctl(op, status_cb(std::move(cb)));
}

std::optional<BorrowedDatagram> UdpSocket::recvfrom_zc() {
  if (st_->id == 0) return std::nullopt;
  // The socket's record is replicated to every replica and inbound
  // datagrams hash to any of them: drain whichever shard queued one.
  for (int shard = 0; shard < node().udp_shard_count(); ++shard) {
    net::UdpEngine* eng = node().udp_engine(shard);
    servers::Server* srv = node().transport_server('U', shard);
    if (eng == nullptr || srv == nullptr) continue;
    servers::Server::BorrowContext borrow(*srv, app().cur());
    auto b = eng->recv_zc(st_->id);
    if (!b) continue;
    if (chan::Pool* pool = node().pools().find(b->frame.pool)) {
      pool->note_borrow(b->frame, app().borrower_id());
    }
    app().cur().charge(node().sim().costs().cache_line_pull);
    BorrowedDatagram d;
    d.node_ = &node();
    d.borrower_ = app().borrower_id();
    d.frame_ = b->frame;
    d.data_ = b->data;
    d.src_ = b->src;
    d.sport_ = b->sport;
    return d;
  }
  return std::nullopt;
}

std::optional<net::UdpEngine::Datagram> UdpSocket::recvfrom() {
  // Inbound datagrams hash to any replica; drain whichever queued one.
  for (int shard = 0; shard < node().udp_shard_count(); ++shard) {
    net::UdpEngine* eng = node().udp_engine(shard);
    servers::Server* srv = node().transport_server('U', shard);
    if (eng == nullptr || srv == nullptr) continue;
    servers::Server::BorrowContext borrow(*srv, app().cur());
    auto d = eng->recv(st_->id);
    if (!d) continue;
    app().cur().charge(node().sim().costs().copy_cost(
        static_cast<std::int64_t>(d->data.size())));
    node().stats().add("sock.bytes_copied", d->data.size());
    return d;
  }
  return std::nullopt;
}

}  // namespace newtos
