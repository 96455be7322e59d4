#include "rpc_load.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/core/node.h"

namespace newtos::bench {

namespace {
// Connection attempts are spread this far apart at start-up.
constexpr sim::Time kConnectStagger = 100 * sim::kMicrosecond;
constexpr sim::Time kReconnectDelay = 100 * sim::kMillisecond;
}  // namespace

RpcLoad::RpcLoad(Node& client, Config cfg, Trace& trace)
    : node_(client), cfg_(cfg), trace_(trace), rng_(cfg.seed) {
  const int napps = (cfg_.conns + cfg_.conns_per_app - 1) / cfg_.conns_per_app;
  for (int a = 0; a < napps; ++a) {
    apps_.push_back(node_.add_app("rpc_cli" + std::to_string(a)));
  }
  conns_.resize(static_cast<std::size_t>(cfg_.conns));
  for (int c = 0; c < cfg_.conns; ++c) {
    conns_[c].app = apps_[c / cfg_.conns_per_app];
  }
}

void RpcLoad::connect() {
  for (int c = 0; c < cfg_.conns; ++c) {
    node_.sim().after(c * kConnectStagger, [this, c] {
      conns_[c].app->call([this, c](sim::Context&) { open(c); });
    });
  }
}

bool RpcLoad::all_connected() const {
  return std::all_of(conns_.begin(), conns_.end(),
                     [](const Conn& c) { return c.up; });
}

void RpcLoad::open(int c) {
  Conn& conn = conns_[c];
  conn.sock = std::make_unique<TcpSocket>(*conn.app);
  conn.sock->on_event([this, c](net::TcpEvent ev) { on_event(c, ev); });
  conn.sock->connect(cfg_.dst, cfg_.port, [this, c](bool ok) {
    if (!ok) on_event(c, net::TcpEvent::Reset);
  });
}

void RpcLoad::on_event(int c, net::TcpEvent ev) {
  Conn& conn = conns_[c];
  switch (ev) {
    case net::TcpEvent::Connected: {
      conn.up = true;
      // Send again, in order, what the reset connection left unanswered
      // and what came due while it was down.
      std::deque<std::uint32_t> queued;
      queued.swap(conn.outstanding);
      for (std::uint32_t id : queued) send(c, id);
      break;
    }
    case net::TcpEvent::Readable:
      check_replies(c);
      break;
    case net::TcpEvent::Reset:
    case net::TcpEvent::Closed:
    case net::TcpEvent::PeerClosed: {
      if (!conn.sock) break;  // already torn down; a reconnect is pending
      conn.up = false;
      for (std::uint32_t id : conn.outstanding) requests_[id].refused = true;
      conn.offset = 0;
      ++conn.resets;
      conn.sock.reset();
      conn.app->call_after(kReconnectDelay,
                           [this, c](sim::Context&) { open(c); });
      break;
    }
    default:
      break;
  }
}

void RpcLoad::generate(double rate, sim::Time from, sim::Time to) {
  if (rate <= 0.0 || from >= to) return;
  node_.sim().at(from, [this, from, rate, to] { arrive(from, rate, to); });
}

void RpcLoad::arrive(sim::Time prev, double rate, sim::Time to) {
  // Exponential inter-arrival gap, in simulated nanoseconds.
  const double gap_s = -std::log1p(-rng_.uniform()) / rate;
  const sim::Time due = prev + static_cast<sim::Time>(gap_s * 1e9);
  if (due >= to) return;
  node_.sim().at(due, [this, due, rate, to] {
    Request r;
    r.due = due;
    r.conn = static_cast<std::uint16_t>(
        rng_.below(static_cast<std::uint64_t>(cfg_.conns)));
    r.bytes = cfg_.min_bytes + static_cast<std::uint32_t>(
                                   rng_.below(cfg_.max_bytes - cfg_.min_bytes + 1));
    const auto id = static_cast<std::uint32_t>(requests_.size());
    requests_.push_back(r);
    conns_[r.conn].app->call([this, id](sim::Context&) { submit(id); });
    arrive(due, rate, to);
  });
}

std::uint8_t RpcLoad::pattern(std::uint32_t id, std::uint32_t k) const {
  std::uint64_t x = (cfg_.seed * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(id) * 0xbf58476d1ce4e5b9ULL);
  x ^= x >> 29;
  return static_cast<std::uint8_t>((x >> 8) + k * 131u);
}

void RpcLoad::submit(std::uint32_t id) {
  Request& r = requests_[id];
  r.submit = conns_[r.conn].app->cur().now();
  send(r.conn, id);
}

void RpcLoad::send(int c, std::uint32_t id) {
  Request& r = requests_[id];
  Conn& conn = conns_[c];
  conn.outstanding.push_back(id);
  if (!conn.up || !conn.sock) {
    r.refused = true;  // the connection is down: sent once it is back
    return;
  }
  SendReservation res = conn.sock->reserve(r.bytes);
  if (!res.valid()) {
    conn.outstanding.pop_back();  // refused: no send buffer
    r.refused = r.dropped = true;
    return;
  }
  std::span<std::byte> out = res.chunk(0);
  for (std::uint32_t k = 0; k < r.bytes; ++k) {
    out[k] = static_cast<std::byte>(pattern(id, k));
  }
  const std::uint32_t resets = conn.resets;
  conn.sock->submit(std::move(res), [this, c, id, resets](bool ok) {
    Conn& cn = conns_[c];
    // A reset already queued every unanswered request to be sent again.
    if (ok || cn.resets != resets) return;
    // The transport refused the bytes, so no reply will carry them.
    auto it = std::find(cn.outstanding.begin(), cn.outstanding.end(), id);
    if (it != cn.outstanding.end() &&
        !(it == cn.outstanding.begin() && cn.offset > 0)) {
      cn.outstanding.erase(it);
      requests_[id].refused = requests_[id].dropped = true;
    }
  });
}

void RpcLoad::check_replies(int c) {
  Conn& conn = conns_[c];
  while (conn.sock) {
    const RecvView v = conn.sock->recv_zc();
    if (v.empty()) break;
    const sim::Time now = conn.app->cur().now();
    for (std::size_t i = 0; i < v.chunks; ++i) {
      for (std::byte b : v.chunk[i]) {
        if (conn.outstanding.empty()) {
          ++bad_bytes_;  // a reply byte nobody asked for
          continue;
        }
        const std::uint32_t id = conn.outstanding.front();
        if (static_cast<std::uint8_t>(b) != pattern(id, conn.offset)) {
          ++bad_bytes_;
        }
        if (++conn.offset == requests_[id].bytes) {
          conn.outstanding.pop_front();
          conn.offset = 0;
          finish(id, now);
        }
      }
    }
    conn.sock->consume(v.bytes);
  }
}

void RpcLoad::finish(std::uint32_t id, sim::Time now) {
  Request& r = requests_[id];
  r.done = now;
  const std::uint64_t tid = cfg_.trace_id_base + id;
  if (trace_.on() && tid % kTraceEvery == 0) {
    const double due_us = static_cast<double>(r.due) / 1e3;
    const double sub_us = static_cast<double>(r.submit) / 1e3;
    const double done_us = static_cast<double>(now) / 1e3;
    const std::string args = "\"id\":" + std::to_string(tid) +
                             ",\"conn\":" + std::to_string(r.conn) +
                             ",\"bytes\":" + std::to_string(r.bytes);
    trace_.async_span(Trace::kSimPid, "rpc", tid, due_us, done_us - due_us,
                      args);
    trace_.async_span(Trace::kSimPid, "rpc.queue", tid, due_us,
                      sub_us - due_us);
    trace_.async_span(Trace::kSimPid, "rpc.net", tid, sub_us,
                      done_us - sub_us);
  }
}

bool RpcLoad::settled(sim::Time t) const {
  for (auto it = requests_.rbegin(); it != requests_.rend(); ++it) {
    if (it->due >= t) continue;
    if (it->done < 0 && !it->dropped) return false;
  }
  return true;
}

// --- EchoService ----------------------------------------------------------------------

EchoService::EchoService(AppActor& app, std::uint16_t port)
    : app_(app), port_(port) {}

void EchoService::start() {
  app_.call([this](sim::Context&) {
    listener_ = std::make_unique<TcpListener>(app_);
    listener_->on_event([this](net::TcpEvent ev) {
      if (ev == net::TcpEvent::AcceptReady) accept_all();
    });
    listener_->bind_listen(net::Ipv4Addr{}, port_, 64, [](bool) {});
  });
}

void EchoService::accept_all() {
  while (std::unique_ptr<TcpSocket> sock = listener_->accept()) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* c = conns_.back().get();
    c->sock = std::move(sock);
    c->sock->on_event([this, c](net::TcpEvent ev) {
      if (ev == net::TcpEvent::Readable || ev == net::TcpEvent::Writable) {
        pump(*c);
      } else if (ev == net::TcpEvent::Reset || ev == net::TcpEvent::Closed ||
                 ev == net::TcpEvent::PeerClosed) {
        c->sock.reset();
        c->pending.clear();
      }
    });
    pump(*c);  // data may have landed before registration
  }
}

void EchoService::pump(Conn& c) {
  if (!c.sock) return;
  for (;;) {
    const RecvView v = c.sock->recv_zc();
    if (v.empty()) break;
    for (std::size_t i = 0; i < v.chunks; ++i) {
      c.pending.insert(c.pending.end(), v.chunk[i].begin(), v.chunk[i].end());
    }
    c.sock->consume(v.bytes);
  }
  if (c.sending || c.pending.empty()) return;
  const std::size_t n = std::min<std::size_t>(
      {c.pending.size(), 64 * 1024, c.sock->send_space()});
  SendReservation res;
  if (n > 0) res = c.sock->reserve(static_cast<std::uint32_t>(n));
  if (!res.valid()) {
    retry_later(c);  // send buffer full or pool exhausted
    return;
  }
  std::copy_n(c.pending.begin(), n, res.chunk(0).begin());
  c.sending = true;
  Conn* cp = &c;
  c.sock->submit(std::move(res), [this, cp, n](bool ok) {
    cp->sending = false;
    if (!ok) {
      retry_later(*cp);  // aborted by a transport restart: send it again
      return;
    }
    cp->pending.erase(cp->pending.begin(),
                      cp->pending.begin() + static_cast<std::ptrdiff_t>(n));
    pump(*cp);
  });
}

void EchoService::retry_later(Conn& c) {
  if (c.retry_armed) return;
  c.retry_armed = true;
  Conn* cp = &c;
  app_.call_after(sim::kMillisecond, [this, cp](sim::Context&) {
    cp->retry_armed = false;
    pump(*cp);
  });
}

}  // namespace newtos::bench
