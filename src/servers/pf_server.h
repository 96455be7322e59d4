// The packet filter server: sits in a T junction off IP (Figure 3) and
// answers pass/block queries.  Its static state (the rule set) is stored in
// the storage server; its dynamic state (the connection table) is rebuilt
// after a crash by querying the TCP and UDP servers (Section V-D) — so a
// firewall that blocks inbound traffic does not cut established outgoing
// connections after a restart.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/pf.h"
#include "src/servers/proto.h"
#include "src/servers/server.h"

namespace newtos::servers {

class PfServer : public Server {
 public:
  // `transports` names every transport replica to query when rebuilding
  // the connection table (all TCP and UDP shards).
  PfServer(NodeEnv* env, sim::SimCore* core, std::vector<net::PfRule> rules,
           std::vector<std::string> transports = {kTcpName, kUdpName});

  net::PfEngine* engine() { return engine_.get(); }

  // Replaces the live rule set: persists it and broadcasts kPfCacheInval so
  // every shard-local verdict cache drops its now-stale entries before the
  // next frame is judged.
  void apply_rules(std::vector<net::PfRule> rules);

 protected:
  void start(bool restart) override;
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  void on_killed() override;
  // The rule set (static state); the connection table is rebuilt from the
  // transports instead.
  void store_state(sim::Context& ctx) override;
  void on_stored(std::uint32_t key, std::span<const std::byte> value,
                 sim::Context& ctx) override;

 private:
  void request_conn_lists(sim::Context& ctx);
  void broadcast_cache_inval(sim::Context& ctx);

  std::vector<net::PfRule> initial_rules_;
  std::vector<std::string> transports_;
  std::unique_ptr<net::PfEngine> engine_;
  chan::Pool* pool_ = nullptr;
};

}  // namespace newtos::servers
