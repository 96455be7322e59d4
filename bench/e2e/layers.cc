#include "layers.h"

#include <algorithm>
#include <cctype>

#include "src/servers/driver_server.h"

namespace newtos::bench {

namespace {

bool starts_with(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}

// "tcp", "tcp1", ... — the transport replicas.
bool is_tcp(const std::string& core) {
  return starts_with(core, "tcp") &&
         std::all_of(core.begin() + 3, core.end(),
                     [](unsigned char ch) { return std::isdigit(ch); });
}

}  // namespace

void Ledger::attach(Node& dut) {
  dut_ = &dut;
  ghz_ = dut.sim().costs().ghz;
  last_ = read();
  for (const auto& [key, value] : last_) totals_.try_emplace(key, 0);
}

std::map<std::string, std::uint64_t> Ledger::read() const {
  std::map<std::string, std::uint64_t> m;
  Node& n = *dut_;
  sim::Simulator& sim = n.sim();
  const std::string prefix = n.config().name + ".";
  for (std::size_t i = 0; i < sim.core_count(); ++i) {
    const sim::SimCore& c = sim.core(i);
    if (!starts_with(c.name(), prefix)) continue;
    const std::string core = c.name().substr(prefix.size());
    m[core + "/busy"] = static_cast<std::uint64_t>(c.busy_cycles());
    m[core + "/tasks"] = c.tasks_run();
  }

  m["chan/sends"] = n.total_channel_messages();
  m["chan/send_failures"] = n.publish_channel_stats();
  // publish_channel_stats() also left one "chan.<from>><to>.send_failures"
  // counter per failing queue; keep the queues that feed a TCP replica.
  const std::string suffix = ".send_failures";
  for (const auto& [key, value] : n.stats().counters()) {
    if (!starts_with(key, "chan.") || key.size() <= suffix.size() + 5 ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string queue = key.substr(5, key.size() - 5 - suffix.size());
    const std::size_t arrow = queue.find('>');
    if (arrow != std::string::npos && is_tcp(queue.substr(arrow + 1))) {
      m["chan/to_tcp_send_failures"] += value;
    }
  }
  m["node/sockring_ops"] = n.stats().get("sockring.ops");
  m["node/doorbells"] = n.stats().get("sockring.doorbells");
  m["node/bytes_copied"] = n.stats().get("sock.bytes_copied");
  m["node/enobufs"] = n.stats().get("sock.enobufs");

  for (int i = 0; i < n.nic_count(); ++i) {
    const auto& s = n.nic(i)->stats();
    m["nic" + std::to_string(i) + "/frames"] = s.tx_frames + s.rx_frames;
  }

  std::vector<std::string> names = n.injectable();
  names.insert(names.end(), {servers::kSyscallName, "rs", servers::kStoreName});
  for (const std::string& name : names) {
    servers::Server* s = n.server(name);
    if (s == nullptr) continue;
    m[name + "/handled"] = s->messages_handled();
    m[name + "/wakeups"] = s->wakeups();
    if (auto* drv = dynamic_cast<servers::DriverServer*>(s)) {
      m[name + "/rx_msgs"] = drv->rx_msgs();
      m[name + "/rx_frames"] = drv->rx_frames();
      m[name + "/rx_dropped"] = drv->rx_dropped();
    }
  }

  if (const net::IpEngine* ip = n.ip_engine()) {
    m["ip/gro_aggs"] = ip->stats().gro_aggs;
    m["ip/gro_frames"] = ip->stats().gro_frames;
  }
  for (int s = 0; s < n.tcp_shard_count(); ++s) {
    const std::string name = servers::tcp_shard_name(s);
    if (const net::TcpEngine* e = n.tcp_engine(s)) {
      const auto& st = e->stats();
      m[name + "/segs_in"] = st.segs_in;
      m[name + "/acks_out"] = st.acks_out;
      m[name + "/bytes_out"] = st.bytes_out;
      m[name + "/bytes_retx"] = st.bytes_retx;
      m[name + "/rtos"] = st.rtos;
      m[name + "/fast_retx"] = st.fast_retransmits;
      m[name + "/ooo_dropped"] = st.ooo_dropped;
      m[name + "/conns_restored"] = st.conns_restored;
    }
    auto* tcp =
        dynamic_cast<servers::TcpServer*>(n.transport_server('T', s));
    if (tcp == nullptr) continue;
    m[name + "/ckpt_puts"] = tcp->ckpt_puts();
    if (const net::IpFastPath* fp = tcp->fastpath()) {
      m[name + "/fast_frames"] = fp->stats().fast_frames;
      m[name + "/fallback_frames"] = fp->stats().fallback_frames;
      m[name + "/gro_aggs"] = fp->stats().gro_aggs;
      m[name + "/gro_frames"] = fp->stats().gro_frames;
    }
  }
  if (const servers::SyscallServer* sys = n.syscall()) {
    m["syscall/calls"] = sys->calls();
    m["syscall/batches"] = sys->batches();
  }
  if (const servers::ReincarnationServer* rs = n.reincarnation()) {
    m["rs/restarts"] = rs->total_restarts();
    m["rs/backoff_ms"] = rs->backoff_ms_total();
  }
  return m;
}

std::map<std::string, std::uint64_t> Ledger::tick() {
  std::map<std::string, std::uint64_t> deltas;
  for (const auto& [key, value] : read()) {
    auto it = last_.find(key);
    // A reading below the last one is a fresh incarnation counting from 0.
    const std::uint64_t d =
        it == last_.end() || value < it->second ? value : value - it->second;
    if (d > 0) deltas[key] = d;
    totals_[key] += d;
    last_[key] = value;
  }
  return deltas;
}

std::uint64_t Ledger::total(const std::string& counter,
                            const std::string& source) const {
  std::uint64_t sum = 0;
  for (const auto& [key, value] : totals_) {
    const std::size_t slash = key.find('/');
    if (key.compare(slash + 1, std::string::npos, counter) != 0) continue;
    if (!source.empty() && key.compare(0, slash, source) != 0) continue;
    sum += value;
  }
  return sum;
}

std::vector<std::string> Ledger::sources(const std::string& counter) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : totals_) {
    const std::size_t slash = key.find('/');
    if (key.compare(slash + 1, std::string::npos, counter) == 0) {
      out.push_back(key.substr(0, slash));
    }
  }
  return out;
}

double Ledger::util(const std::string& core) const {
  if (window_ns_ <= 0) return 0.0;
  return static_cast<double>(total("busy", core)) /
         (static_cast<double>(window_ns_) * ghz_);
}

Metrics layer_metrics(const Ledger& l, std::uint64_t goodput_bytes,
                      std::string* bottleneck) {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto tot = [&l](const std::string& counter, const std::string& src = {}) {
    return static_cast<double>(l.total(counter, src));
  };
  const double frames = tot("frames");

  // Servers are the named system components; every other DUT core runs an
  // application.
  const std::vector<std::string> servers_with_msgs = l.sources("handled");
  auto is_server = [&servers_with_msgs](const std::string& core) {
    return std::find(servers_with_msgs.begin(), servers_with_msgs.end(),
                     core) != servers_with_msgs.end();
  };
  double busy_all = 0.0, busy_drv = 0.0, busy_tcp = 0.0;
  double util_drv = 0.0, util_tcp = 0.0, util_app = 0.0, util_max = 0.0;
  std::string max_core;
  for (const std::string& core : l.sources("busy")) {
    const double busy = tot("busy", core);
    const double u = l.util(core);
    busy_all += busy;
    if (starts_with(core, "drv")) {
      busy_drv += busy;
      util_drv = std::max(util_drv, u);
    } else if (is_tcp(core)) {
      busy_tcp += busy;
      util_tcp = std::max(util_tcp, u);
    } else if (!is_server(core)) {
      util_app = std::max(util_app, u);
    }
    if (u > util_max) {
      util_max = u;
      max_core = core;
    }
  }
  if (bottleneck != nullptr) *bottleneck = max_core;

  Metrics m;
  m["chan.msgs_per_frame"] = {ratio(tot("sends"), frames), "msgs/frame"};
  m["chan.send_failures"] = {tot("send_failures"), "count"};
  m["chan.to_tcp.send_failures"] = {tot("to_tcp_send_failures"), "count"};
  m["kipc.traps"] = {tot("doorbells"), "count"};
  m["kipc.ops_per_trap"] = {ratio(tot("sockring_ops"), tot("doorbells")),
                            "ops/trap"};
  m["drv.util_max"] = {util_drv, "ratio"};
  m["drv.cycles_per_frame"] = {ratio(busy_drv, frames), "cycles/frame"};
  m["drv.msgs_per_frame"] = {ratio(tot("rx_msgs"), tot("rx_frames")),
                             "msgs/frame"};
  m["drv.rx_dropped"] = {tot("rx_dropped"), "count"};
  m["nic.frames"] = {frames, "count"};
  m["ip.util"] = {l.util("ip"), "ratio"};
  m["ip.cycles_per_frame"] = {ratio(tot("busy", "ip"), frames),
                              "cycles/frame"};
  m["ip.fast_share"] = {
      ratio(tot("fast_frames"), tot("fast_frames") + tot("fallback_frames")),
      "ratio"};
  m["ip.gro_frames_per_agg"] = {ratio(tot("gro_frames"), tot("gro_aggs")),
                                "frames/agg"};
  m["pf.util"] = {l.util("pf"), "ratio"};
  m["pf.cycles_per_frame"] = {ratio(tot("busy", "pf"), frames),
                              "cycles/frame"};
  m["tcp.util_max"] = {util_tcp, "ratio"};
  m["tcp.cycles_per_frame"] = {ratio(busy_tcp, frames), "cycles/frame"};
  m["tcp.retx_ratio"] = {ratio(tot("bytes_retx"), tot("bytes_out")),
                         "ratio"};
  m["tcp.rtos"] = {tot("rtos"), "count"};
  m["tcp.fast_retransmits"] = {tot("fast_retx"), "count"};
  m["tcp.ooo_dropped"] = {tot("ooo_dropped"), "count"};
  m["tcp.acks_per_seg"] = {ratio(tot("acks_out"), tot("segs_in")),
                           "acks/seg"};
  m["syscall.util"] = {l.util(servers::kSyscallName), "ratio"};
  m["syscall.ops_per_batch"] = {ratio(tot("calls"), tot("batches")),
                                "ops/batch"};
  m["app.util"] = {util_app, "ratio"};
  m["sock.copies_per_byte"] = {
      ratio(tot("bytes_copied"), static_cast<double>(goodput_bytes)),
      "copies/B"};
  m["sock.enobufs"] = {tot("enobufs"), "count"};
  m["dut.wakeups_per_frame"] = {ratio(tot("wakeups"), frames),
                                "wakeups/frame"};
  m["dut.msgs_handled"] = {tot("handled"), "count"};
  m["dut.bottleneck_util"] = {util_max, "ratio"};
  m["dut.cycles_per_frame"] = {ratio(busy_all, frames), "cycles/frame"};
  m["rs.restarts"] = {tot("restarts"), "count"};
  m["rs.backoff_ms"] = {tot("backoff_ms"), "ms"};
  m["ckpt.puts"] = {tot("ckpt_puts"), "count"};
  m["ckpt.conns_restored"] = {tot("conns_restored"), "count"};
  return m;
}

}  // namespace newtos::bench
