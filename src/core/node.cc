#include "src/core/node.h"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "src/core/socket_ring.h"
#include "src/servers/driver_server.h"

namespace newtos {

namespace {

std::uint32_t g_mac_counter = 1;

NodeConfig validated(NodeConfig cfg) {
  if (std::string error = cfg.validate(); !error.empty())
    throw std::invalid_argument(error);
  return cfg;
}

}  // namespace

// The configuration is checked before any member that allocates is built.
Node::Node(sim::Simulator& sim, NodeConfig cfg)
    : sim_(sim), cfg_(validated(std::move(cfg))), kernel_(&sim.costs()) {
  env_.sim = &sim_;
  env_.pools = &pools_;
  env_.registry = &registry_;
  env_.channels = &chmgr_;
  env_.kernel = &kernel_;
  env_.node_name = cfg_.name;
  env_.knobs.ipc = cfg_.mode == StackMode::kMinixSync
                       ? servers::IpcMode::kKernelSync
                       : servers::IpcMode::kChannels;
  env_.knobs.tso = cfg_.tso;
  env_.knobs.csum_offload = cfg_.csum_offload;
  env_.knobs.cost_scale = cfg_.cost_scale;
  env_.knobs.supervision = cfg_.supervision;
  env_.knobs.legacy_per_packet =
      cfg_.mode == StackMode::kMinixSync ? sim.costs().minix_stack_per_packet : 0;
  env_.get_queue = [this](const std::string& name, std::size_t cap) {
    auto it = queues_.find(name);
    if (it == queues_.end()) {
      it = queues_
               .emplace(name, std::make_unique<chan::Queue>(name, cap))
               .first;
    }
    return it->second.get();
  };
  env_.get_pool = [this](const std::string& name, std::size_t size) {
    auto it = named_pools_.find(name);
    if (it == named_pools_.end()) {
      chan::Pool& p = pools_.create(cfg_.name, name, size);
      it = named_pools_.emplace(name, &p).first;
    }
    return it->second;
  };
  env_.report_crash = [this](servers::Server* s) {
    stats_.log(sim_.now(), "crash: " + s->name());
    if (rs_ != nullptr && s != rs_) rs_->child_crashed(s);
  };
  env_.sock_event = [this](int /*shard*/, char proto, std::uint32_t sock,
                           std::uint8_t event) {
    auto it = sock_handlers_.find({proto, sock});
    if (it == sock_handlers_.end()) return;
    SockEventFn cb = it->second.second;
    it->second.first->post_kernel_msg(
        [cb, event](sim::Context&) { cb(static_cast<net::TcpEvent>(event)); },
        80);
  };
  build();
}

Node::~Node() = default;

net::Ipv4Addr Node::addr(int nic_index) const {
  return net::Ipv4Addr(10, static_cast<std::uint8_t>(1 + nic_index), 0,
                       cfg_.left ? 1 : 2);
}

net::Ipv4Addr Node::peer_addr(int nic_index) const {
  return net::Ipv4Addr(10, static_cast<std::uint8_t>(1 + nic_index), 0,
                       cfg_.left ? 2 : 1);
}

net::IpConfig Node::make_ip_config() const {
  net::IpConfig ip;
  for (int i = 0; i < cfg_.nics; ++i) {
    net::Interface ifc;
    ifc.index = i;
    ifc.mac = nics_[i]->mac();
    ifc.addr = addr(i);
    ifc.subnet = net::Ipv4Net{
        net::Ipv4Addr(10, static_cast<std::uint8_t>(1 + i), 0, 0), 24};
    ifc.mtu = 1500;
    ip.interfaces.push_back(ifc);
  }
  return ip;
}

std::vector<net::PfRule> Node::make_rules() const {
  std::vector<net::PfRule> rules;
  // Synthetic filler table (Figure 5 recovers a set of 1024 rules): block
  // inbound TCP on high ports nothing uses.
  for (int k = 0; k < cfg_.pf_filler_rules; ++k) {
    net::PfRule r;
    r.action = net::PfAction::Block;
    r.dir = net::PfDir::In;
    r.protocol = net::kProtoTcp;
    const auto port = static_cast<std::uint16_t>(kPfFillerPortBase + k);
    r.dport = net::PortRange{port, port};
    rules.push_back(r);
  }
  // Outbound traffic keeps state so replies pass without a rule walk.
  net::PfRule keep;
  keep.action = net::PfAction::Pass;
  keep.dir = net::PfDir::Out;
  keep.keep_state = true;
  rules.push_back(keep);
  return rules;  // default action: pass
}

sim::SimCore* Node::fresh_core(const std::string& name) {
  if (cfg_.mode == StackMode::kMinixSync) {
    // One timeshared CPU for the entire system (Table II line 1).
    if (shared_core_ == nullptr)
      shared_core_ = &sim_.add_core(cfg_.name + ".cpu0");
    return shared_core_;
  }
  return &sim_.add_core(cfg_.name + "." + name);
}

void Node::build() {
  for (int i = 0; i < cfg_.nics; ++i) {
    drv::SimNic::Config nc;
    nc.rx_coalesce_frames = cfg_.rx_coalesce_frames;
    nc.rx_coalesce_usecs = cfg_.rx_coalesce_usecs;
    nc.rx_queues = cfg_.rx_queues;
    nics_.push_back(std::make_unique<drv::SimNic>(
        sim_, pools_, net::MacAddr::local(g_mac_counter++), nc));
  }

  const net::IpConfig ip_cfg = make_ip_config();
  auto src_for = [ip_cfg](net::Ipv4Addr dst) {
    for (const auto& i : ip_cfg.interfaces) {
      if (i.subnet.contains(dst)) return i.addr;
    }
    return ip_cfg.interfaces.empty() ? net::Ipv4Addr{}
                                     : ip_cfg.interfaces.front().addr;
  };

  auto rs = std::make_unique<servers::ReincarnationServer>(&env_,
                                                           fresh_core("rs"));
  rs_ = rs.get();
  servers_.emplace("rs", std::move(rs));
  boot_order_.push_back("rs");

  const bool inline_drivers = cfg_.mode == StackMode::kIdealMonolithic;

  const int tcp_shards = cfg_.tcp_shards;
  const int udp_shards = cfg_.udp_shards;
  net::TcpOptions tcp_opts = cfg_.tcp;
  tcp_opts.tso = cfg_.tso;
  tcp_opts.checkpoint = cfg_.tcp_checkpoint;

  // Storage clients depend on the arrangement.
  std::vector<std::string> store_clients;
  if (cfg_.combined_stack()) {
    store_clients = {servers::kStackName};
  } else {
    for (int s = 0; s < tcp_shards; ++s)
      store_clients.push_back(servers::tcp_shard_name(s));
    for (int s = 0; s < udp_shards; ++s)
      store_clients.push_back(servers::udp_shard_name(s));
    store_clients.push_back(servers::kIpName);
    if (cfg_.use_pf) store_clients.push_back(servers::kPfName);
  }
  auto store = std::make_unique<servers::StorageServer>(
      &env_, fresh_core("store"), store_clients);
  store_ = store.get();
  servers_.emplace(servers::kStoreName, std::move(store));
  boot_order_.push_back(servers::kStoreName);

  const bool rss_fast = cfg_.rx_queues > 1;
  if (!inline_drivers) {
    for (int i = 0; i < cfg_.nics; ++i) {
      const std::string name = servers::driver_name(i);
      const std::string ip_peer = cfg_.combined_stack()
                                      ? servers::kStackName
                                      : servers::kIpName;
      auto drv = std::make_unique<servers::DriverServer>(
          &env_, fresh_core(name), nics_[i].get(), i, ip_peer);
      if (rss_fast) drv->enable_fast_path(tcp_shards, udp_shards);
      servers_.emplace(name, std::move(drv));
      boot_order_.push_back(name);
    }
  }

  if (cfg_.combined_stack()) {
    servers::StackServer::Config sc;
    sc.ip = ip_cfg;
    sc.rules = make_rules();
    sc.tcp = tcp_opts;
    sc.use_pf = cfg_.use_pf;
    sc.inline_drivers = inline_drivers;
    std::vector<drv::SimNic*> nic_ptrs;
    for (auto& n : nics_) nic_ptrs.push_back(n.get());
    auto stack = std::make_unique<servers::StackServer>(
        &env_, fresh_core("stack"), sc, nic_ptrs);
    stack_ = stack.get();
    servers_.emplace(servers::kStackName, std::move(stack));
    boot_order_.push_back(servers::kStackName);
  } else {
    if (cfg_.use_pf) {
      std::vector<std::string> transports;
      for (int s = 0; s < tcp_shards; ++s)
        transports.push_back(servers::tcp_shard_name(s));
      for (int s = 0; s < udp_shards; ++s)
        transports.push_back(servers::udp_shard_name(s));
      auto pf = std::make_unique<servers::PfServer>(
          &env_, fresh_core("pf"), make_rules(), std::move(transports));
      pf_ = pf.get();
      servers_.emplace(servers::kPfName, std::move(pf));
      boot_order_.push_back(servers::kPfName);
    }
    servers::IpServer::Config ic;
    ic.ip = ip_cfg;
    ic.use_pf = cfg_.use_pf;
    ic.tcp_shards = tcp_shards;
    ic.udp_shards = udp_shards;
    ic.gro = cfg_.gro;
    ic.rx_queues = cfg_.rx_queues;
    auto ip = std::make_unique<servers::IpServer>(&env_, fresh_core("ip"),
                                                  ic);
    ip_ = ip.get();
    servers_.emplace(servers::kIpName, std::move(ip));
    boot_order_.push_back(servers::kIpName);

    // The per-shard receive context the drivers post to directly when the
    // NICs run multiple RSS queues.
    net::IpFastPath::Config fpc;
    fpc.interfaces = ip_cfg.interfaces;
    fpc.use_pf = cfg_.use_pf;
    fpc.gro = cfg_.gro;
    std::vector<std::string> driver_names;
    if (rss_fast && !inline_drivers) {
      for (int i = 0; i < cfg_.nics; ++i)
        driver_names.push_back(servers::driver_name(i));
    }
    for (int s = 0; s < tcp_shards; ++s) {
      const std::string name = servers::tcp_shard_name(s);
      auto tcp = std::make_unique<servers::TcpServer>(
          &env_, fresh_core(name), tcp_opts, src_for, s, tcp_shards);
      if (!driver_names.empty()) tcp->enable_rx_fastpath(fpc, driver_names);
      tcp_shards_.push_back(tcp.get());
      servers_.emplace(name, std::move(tcp));
      boot_order_.push_back(name);
    }

    for (int s = 0; s < udp_shards; ++s) {
      const std::string name = servers::udp_shard_name(s);
      auto udp = std::make_unique<servers::UdpServer>(
          &env_, fresh_core(name), src_for, s, udp_shards);
      if (!driver_names.empty()) udp->enable_rx_fastpath(fpc, driver_names);
      udp_shards_.push_back(udp.get());
      servers_.emplace(name, std::move(udp));
      boot_order_.push_back(name);
    }
  }

  if (cfg_.has_syscall_server()) {
    std::vector<std::string> tcp_targets;
    std::vector<std::string> udp_targets;
    if (cfg_.combined_stack()) {
      tcp_targets = {servers::kStackName};
      udp_targets = {servers::kStackName};
    } else {
      for (int s = 0; s < tcp_shards; ++s)
        tcp_targets.push_back(servers::tcp_shard_name(s));
      for (int s = 0; s < udp_shards; ++s)
        udp_targets.push_back(servers::udp_shard_name(s));
    }
    auto sys = std::make_unique<servers::SyscallServer>(
        &env_, fresh_core("syscall"), std::move(tcp_targets),
        std::move(udp_targets));
    syscall_ = sys.get();
    servers_.emplace(servers::kSyscallName, std::move(sys));
    boot_order_.push_back(servers::kSyscallName);
  }

  for (auto& [name, srv] : servers_) {
    if (srv.get() != rs_) rs_->manage(srv.get());
  }

  // Supervision sends end-to-end work probes to every component class —
  // tcp/udp/ip/pf/drv — so the whole escalation ladder has a per-component
  // probe stream.  The transport replicas come first: they are the
  // component the paper had to restart manually when it wedged silently.
  if (cfg_.supervision && !cfg_.combined_stack()) {
    std::vector<std::string> targets;
    for (int s = 0; s < tcp_shards; ++s)
      targets.push_back(servers::tcp_shard_name(s));
    for (int s = 0; s < udp_shards; ++s)
      targets.push_back(servers::udp_shard_name(s));
    targets.push_back(servers::kIpName);
    if (cfg_.use_pf) targets.push_back(servers::kPfName);
    if (!inline_drivers) {
      for (int i = 0; i < cfg_.nics; ++i)
        targets.push_back(servers::driver_name(i));
    }
    rs_->set_probe_targets(std::move(targets));
  }
}

void Node::attach_wire(int nic_index, drv::Wire* wire, int end) {
  nics_.at(nic_index)->attach_wire(wire, end);
}

void Node::boot() {
  for (const auto& name : boot_order_) servers_[name]->boot(false);
}

AppActor* Node::add_app(const std::string& name) {
  auto app = std::make_unique<AppActor>(&env_, name, fresh_core(name));
  AppActor* p = app.get();
  p->attach_ring(std::make_unique<SocketRing>(*this, *p));
  p->set_borrower_id(next_borrower_++);
  apps_.push_back(std::move(app));
  p->boot(false);
  return p;
}

std::uint64_t Node::publish_channel_stats() {
  std::uint64_t total = 0;
  for (const auto& [name, q] : queues_) {
    const std::uint64_t failures = q->send_failures();
    if (failures > 0) {
      stats_.set("chan." + name + ".send_failures", failures);
    }
    total += failures;
  }
  stats_.set("chan.send_failures", total);
  // The drop/defer policy's other blind spot: frames the drivers had to
  // drop because IP's queue was full.  Counted per driver and in total.
  std::uint64_t rx_dropped = 0;
  std::uint64_t rx_fast = 0;
  std::map<int, std::array<std::uint64_t, 4>> per_queue;
  int max_queues = 1;
  for (const auto& [name, srv] : servers_) {
    auto* drv = dynamic_cast<servers::DriverServer*>(srv.get());
    if (drv == nullptr) continue;
    if (drv->rx_dropped() > 0) {
      stats_.set(name + ".rx_dropped", drv->rx_dropped());
    }
    rx_dropped += drv->rx_dropped();
    rx_fast += drv->rx_fast_frames();
    // Per-queue RSS counters, aggregated across the NICs: queue q of every
    // NIC homes on the same transport shard, so the per-queue totals are
    // the per-shard receive load.
    max_queues = std::max(max_queues, drv->nic().rx_queue_count());
    for (int q = 0; q < drv->nic().rx_queue_count(); ++q) {
      const auto& qs = drv->nic().queue_stats(q);
      auto& agg = per_queue[q];
      agg[0] += qs.rx_frames;
      agg[1] += qs.rx_bursts;
      agg[2] += qs.rx_timer_flushes;
      agg[3] += drv->rx_dropped_queue(q);
    }
  }
  stats_.set("drv.rx_dropped", rx_dropped);
  if (max_queues > 1) {
    stats_.set("drv.rx_fast_frames", rx_fast);
    for (const auto& [q, agg] : per_queue) {
      const std::string prefix = "drv.q" + std::to_string(q) + ".";
      stats_.set(prefix + "rx_frames", agg[0]);
      stats_.set(prefix + "rx_bursts", agg[1]);
      stats_.set(prefix + "rx_timer_flushes", agg[2]);
      stats_.set(prefix + "rx_dropped", agg[3]);
    }
    // The receiving half of the same picture: frames each shard's fast
    // path consumed locally vs handed back to the classic IP path.
    for (const auto* tcp : tcp_shards_) {
      if (tcp->fastpath() == nullptr) continue;
      stats_.set(tcp->name() + ".rx_fast_frames",
                 tcp->fastpath()->stats().fast_frames);
      stats_.set(tcp->name() + ".rx_fallback_frames",
                 tcp->fastpath()->stats().fallback_frames);
    }
    for (const auto* udp : udp_shards_) {
      if (udp->fastpath() == nullptr) continue;
      stats_.set(udp->name() + ".rx_fast_frames",
                 udp->fastpath()->stats().fast_frames);
      stats_.set(udp->name() + ".rx_fallback_frames",
                 udp->fastpath()->stats().fallback_frames);
    }
  }
  // Connection-checkpoint overhead (0 with tcp_checkpoint off): journal
  // puts to the storage server and the bytes they carried.
  std::uint64_t ckpt_puts = 0;
  std::uint64_t ckpt_bytes = 0;
  for (const auto* tcp : tcp_shards_) {
    if (tcp->ckpt_puts() > 0) {
      stats_.set(tcp->name() + ".ckpt_puts", tcp->ckpt_puts());
    }
    ckpt_puts += tcp->ckpt_puts();
    ckpt_bytes += tcp->ckpt_bytes();
  }
  stats_.set("tcp.ckpt_puts", ckpt_puts);
  stats_.set("tcp.ckpt_bytes", ckpt_bytes);
  // Checkpoint overflow events: per-connection ring overflows (those still
  // degrade to non-recoverable) plus directory continuation-page spills
  // (handled by chained paging; the count proves the paging engaged).
  std::uint64_t ckpt_overflow = 0;
  for (const auto* tcp : tcp_shards_) ckpt_overflow += tcp->ckpt_overflows();
  stats_.set("tcp.ckpt_overflow", ckpt_overflow);
  // Supervision-plane observability: what the escalation ladder actually
  // did.  Published whenever the reincarnation server saw any action, so a
  // campaign can assert them non-zero.
  if (rs_ != nullptr) {
    for (const auto& [comp, cs] : rs_->child_stats()) {
      if (cs.restarts > 0) {
        stats_.set("rein.restarts." + comp, cs.restarts);
      }
      if (cs.detect_ms >= 0.0) {
        stats_.set("rein.detect_ms." + comp,
                   static_cast<std::uint64_t>(cs.detect_ms));
      }
    }
    stats_.set("rein.backoff_ms", rs_->backoff_ms_total());
  }
  std::uint64_t wedge_resets = 0;
  for (const auto& [name, srv] : servers_) {
    auto* drv = dynamic_cast<servers::DriverServer*>(srv.get());
    if (drv != nullptr) wedge_resets += drv->wedge_resets();
  }
  stats_.set("drv.wedge_resets", wedge_resets);
  // Congestion-control observability, aggregated across the transport
  // replicas: recovery entries, the instantaneous cwnd total, and how often
  // the pacing timer had to hold the TX path back (non-zero only with a
  // rate-based algorithm).
  std::uint64_t cc_fast_retx = 0;
  std::uint64_t cc_cwnd_now = 0;
  std::uint64_t cc_pacing_delays = 0;
  for (int s = 0; s < tcp_shard_count(); ++s) {
    const net::TcpEngine* eng = tcp_engine(s);
    if (eng == nullptr) continue;
    cc_fast_retx += eng->stats().fast_retransmits;
    cc_cwnd_now += eng->cwnd_sum();
    cc_pacing_delays += eng->stats().pacing_delays;
  }
  stats_.set("tcp.cc.fast_retransmits", cc_fast_retx);
  stats_.set("tcp.cc.cwnd_now", cc_cwnd_now);
  stats_.set("tcp.cc.pacing_delays", cc_pacing_delays);
  // Wire-level WAN emulation counters (0 on a plain LAN wire).
  std::uint64_t wire_queue_drops = 0;
  std::uint64_t wire_reordered = 0;
  for (const auto& nic : nics_) {
    const drv::Wire* w = nic->wire();
    if (w == nullptr) continue;
    wire_queue_drops += w->queue_drops();
    wire_reordered += w->reordered();
  }
  stats_.set("wire.queue_drops", wire_queue_drops);
  stats_.set("wire.reordered", wire_reordered);
  return total;
}

std::uint64_t Node::total_channel_messages() const {
  std::uint64_t total = 0;
  for (const auto& [name, q] : queues_) total += q->sends();
  return total;
}

servers::Server* Node::server(const std::string& name) {
  auto it = servers_.find(name);
  return it == servers_.end() ? nullptr : it->second.get();
}

net::TcpEngine* Node::tcp_engine(int shard) const {
  if (stack_ != nullptr) return shard == 0 ? stack_->tcp_engine() : nullptr;
  if (shard < 0 || shard >= static_cast<int>(tcp_shards_.size()))
    return nullptr;
  return tcp_shards_[shard]->engine();
}

net::UdpEngine* Node::udp_engine(int shard) const {
  if (stack_ != nullptr) return shard == 0 ? stack_->udp_engine() : nullptr;
  if (shard < 0 || shard >= static_cast<int>(udp_shards_.size()))
    return nullptr;
  return udp_shards_[shard]->engine();
}

int Node::tcp_shard_count() const {
  return stack_ != nullptr ? 1 : static_cast<int>(tcp_shards_.size());
}

int Node::udp_shard_count() const {
  return stack_ != nullptr ? 1 : static_cast<int>(udp_shards_.size());
}

servers::Server* Node::transport_server(char proto, int shard) const {
  if (stack_ != nullptr) return stack_;
  if (proto == 'T') {
    if (shard < 0 || shard >= static_cast<int>(tcp_shards_.size()))
      return nullptr;
    return tcp_shards_[shard];
  }
  if (shard < 0 || shard >= static_cast<int>(udp_shards_.size()))
    return nullptr;
  return udp_shards_[shard];
}

net::IpEngine* Node::ip_engine() const {
  if (stack_ != nullptr) return stack_->ip_engine();
  return ip_ != nullptr ? ip_->engine() : nullptr;
}

std::vector<std::string> Node::injectable() const {
  std::vector<std::string> out;
  if (cfg_.combined_stack()) {
    out.push_back(servers::kStackName);
  } else {
    for (std::size_t s = 0; s < tcp_shards_.size(); ++s)
      out.push_back(servers::tcp_shard_name(static_cast<int>(s)));
    for (std::size_t s = 0; s < udp_shards_.size(); ++s)
      out.push_back(servers::udp_shard_name(static_cast<int>(s)));
    out.push_back(servers::kIpName);
    if (cfg_.use_pf) out.push_back(servers::kPfName);
  }
  for (int i = 0; i < cfg_.nics; ++i) {
    if (cfg_.mode != StackMode::kIdealMonolithic)
      out.push_back(servers::driver_name(i));
  }
  return out;
}

void Node::manual_restart(const std::string& name) {
  servers::Server* s = server(name);
  if (s == nullptr) return;
  stats_.log(sim_.now(), "manual restart: " + name);
  if (s->alive()) s->kill();  // reincarnation brings it back
}

}  // namespace newtos
