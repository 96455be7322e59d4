#include "src/servers/pf_server.h"

#include <cstring>

namespace newtos::servers {

PfServer::PfServer(NodeEnv* env, sim::SimCore* core,
                   std::vector<net::PfRule> rules,
                   std::vector<std::string> transports)
    : Server(env, kPfName, core),
      initial_rules_(std::move(rules)),
      transports_(std::move(transports)) {}

void PfServer::start(bool restart) {
  pool_ = env().get_pool("pf.buf", 2u << 20);
  std::vector<std::string> peers = {kIpName, kStoreName};
  peers.insert(peers.end(), transports_.begin(), transports_.end());
  // Supervision probes us directly; the generic kWorkProbe handler already
  // acks to whoever asked.
  if (env().knobs.supervision) peers.push_back(kRsName);
  for (const auto& p : peers) {
    expose_in_queue(p, 1024);
    connect_out(p);
  }
  engine_ = std::make_unique<net::PfEngine>(clock());
  if (restart) {
    post_control([this](sim::Context& ctx) {
      if (!store_get(kKeyPfRules, ctx)) {
        engine_->set_rules(initial_rules_);
        announce(true);
      }
    });
  } else {
    engine_->set_rules(initial_rules_);
    post_control([this](sim::Context& ctx) {
      store_state(ctx);
      announce(false);
    });
  }
}

void PfServer::on_killed() { engine_.reset(); }

void PfServer::broadcast_cache_inval(sim::Context& ctx) {
  chan::Message m;
  m.opcode = kPfCacheInval;
  for (const auto& peer : transports_) send_to(peer, m, ctx);
}

void PfServer::apply_rules(std::vector<net::PfRule> rules) {
  post_control([this, rules = std::move(rules)](sim::Context& ctx) mutable {
    if (engine_ == nullptr) return;
    engine_->set_rules(std::move(rules));
    store_state(ctx);
    // Shard-local verdict caches are judging with the old rules until this
    // lands; the broadcast must go out before any further verdict is
    // cached against the new set.
    broadcast_cache_inval(ctx);
  });
}

void PfServer::store_state(sim::Context& ctx) {
  store_put(kKeyPfRules, net::PfEngine::serialize_rules(engine_->rules()),
            *pool_, ctx);
}

void PfServer::on_stored(std::uint32_t, std::span<const std::byte> value,
                         sim::Context& ctx) {
  auto rules = net::PfEngine::parse_rules(value);
  engine_->set_rules(rules ? std::move(*rules) : initial_rules_);
  announce(true);
  request_conn_lists(ctx);
  // A restarted PF cannot vouch for verdicts cached against the dead
  // incarnation's rules.
  broadcast_cache_inval(ctx);
}

void PfServer::request_conn_lists(sim::Context& ctx) {
  // Rebuild the connection table from every transport replica
  // (Section V-D); each shard answers with its own flows and the replies
  // merge in the engine.
  for (const auto& peer : transports_) {
    chan::Message m;
    m.opcode = kConnList;
    m.req_id = request_db().add({});
    send_to(peer, m, ctx);
  }
}

void PfServer::on_message(const std::string& from, const chan::Message& m,
                          sim::Context& ctx) {
  switch (m.opcode) {
    case kPfCheck: {
      const net::PfQuery q = parse_pf_check(m);
      const auto verdict = engine_->check(q);
      charge(ctx, sim().costs().pf_packet_proc +
                      verdict.rules_walked * sim().costs().pf_rule_cost);
      chan::Message r;
      r.opcode = kPfVerdict;
      r.req_id = m.req_id;
      r.arg0 = verdict.action == net::PfAction::Pass ? 1 : 0;
      // The verdict goes back to whoever asked: historically always IP,
      // now also any transport shard running the RSS fast path.
      send_to(from, r, ctx);
      return;
    }
    case kPfCheckBatch: {
      // Every query of one RX burst in one message, and every verdict in
      // one reply: the rule/state walk is still charged per query, the IPC
      // is paid once per burst on both legs.
      const auto recs = parse_records<WirePfQuery>(env().pools->read(m.ptr));
      env().pools->release(m.ptr);  // IP's query array, consumed
      std::vector<WirePfVerdict> verdicts;
      verdicts.reserve(recs.size());
      for (const auto& rec : recs) {
        const auto verdict = engine_->check(rec.query);
        charge(ctx, sim().costs().pf_packet_proc +
                        verdict.rules_walked * sim().costs().pf_rule_cost);
        verdicts.push_back(WirePfVerdict{
            rec.cookie, verdict.action == net::PfAction::Pass ? 1u : 0u, 0});
      }
      if (verdicts.empty()) return;
      chan::RichPtr desc =
          pack_records<WirePfVerdict>(*pool_, verdicts);
      if (desc.valid()) {
        chan::Message r;
        r.opcode = kPfVerdictBatch;
        r.ptr = desc;
        r.arg0 = verdicts.size();
        if (send_to(kIpName, r, ctx)) return;
        pool_->release(desc);
      }
      // Pool exhausted or IP unreachable: per-verdict replies (IP applies
      // them one by one; unanswered queries are resubmitted on restarts).
      for (const auto& v : verdicts) {
        chan::Message r;
        r.opcode = kPfVerdict;
        r.req_id = v.cookie;
        r.arg0 = v.allow;
        send_to(kIpName, r, ctx);
      }
      return;
    }
    case kWorkProbe: {
      // The synthetic echo's last hop (rs -> tcpN -> ip -> here): a packet
      // filter that is alive and processing pays one packet's worth of
      // work and acks back up the chain.  A direct supervision probe pays
      // the canary quantum instead — and acks only after it is paid — so a
      // slowed-down filter answers measurably late even when the verdict
      // cache has absorbed its load.
      if (from == kRsName) {
        charge(ctx, sim().costs().probe_canary);
        reply_after_charges([this, cookie = m.req_id](sim::Context& c) {
          chan::Message ack;
          ack.opcode = kWorkProbeAck;
          ack.req_id = cookie;
          ack.arg0 = 1;
          send_to(kRsName, ack, c);
        });
        return;
      }
      charge(ctx, sim().costs().pf_packet_proc);
      chan::Message ack;
      ack.opcode = kWorkProbeAck;
      ack.req_id = m.req_id;
      ack.arg0 = 1;
      send_to(from, ack, ctx);
      return;
    }
    case kConnListReply: {
      request_db().take(m.req_id);
      if (m.ptr.valid()) {
        auto bytes = env().pools->read(m.ptr);
        if (bytes.size() >= 4) {
          std::uint32_t n;
          std::memcpy(&n, bytes.data(), 4);
          if (bytes.size() >= 4 + n * sizeof(net::PfStateKey)) {
            std::vector<net::PfStateKey> keys(n);
            if (n > 0)
              std::memcpy(keys.data(), bytes.data() + 4,
                          n * sizeof(net::PfStateKey));
            engine_->restore_states(keys);
          }
        }
        chan::Message rel;
        rel.opcode = kStoreRelease;
        rel.ptr = m.ptr;
        send_to(from, rel, ctx);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace newtos::servers
