#include "src/core/node.h"

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

  if (!cfg_.combined_stack()) {
    for (int s = 0; s < tcp_shards; ++s)
      transports_.push_back(servers::tcp_shard_name(s));
    for (int s = 0; s < udp_shards; ++s)
      transports_.push_back(servers::udp_shard_name(s));
  }

  auto store = std::make_unique<servers::StorageServer>(
      &env_, fresh_core("store"), stack_servers());
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
      auto pf = std::make_unique<servers::PfServer>(
          &env_, fresh_core("pf"), make_rules(), transports_);
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
    std::vector<std::string> tcp_targets = {servers::kStackName};
    std::vector<std::string> udp_targets = {servers::kStackName};
    if (!cfg_.combined_stack()) {
      const auto udp_begin = transports_.begin() + tcp_shards;
      tcp_targets.assign(transports_.begin(), udp_begin);
      udp_targets.assign(udp_begin, transports_.end());
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
    rs_->set_probe_targets(injectable());
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

std::vector<std::string> Node::stack_servers() const {
  if (cfg_.combined_stack()) return {servers::kStackName};
  std::vector<std::string> out = transports_;
  out.push_back(servers::kIpName);
  if (cfg_.use_pf) out.push_back(servers::kPfName);
  return out;
}

std::vector<std::string> Node::injectable() const {
  std::vector<std::string> out = stack_servers();
  if (cfg_.mode != StackMode::kIdealMonolithic) {
    for (int i = 0; i < cfg_.nics; ++i) out.push_back(servers::driver_name(i));
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
