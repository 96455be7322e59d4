#include "src/core/config.h"

#include <utility>

#include "src/net/cc/congestion.h"
#include "src/net/steering.h"

namespace newtos {

const char* to_string(StackMode m) {
  switch (m) {
    case StackMode::kMinixSync: return "minix-sync";
    case StackMode::kSplit: return "split";
    case StackMode::kSplitSyscall: return "split+syscall";
    case StackMode::kSingleServer: return "single-server+syscall";
    case StackMode::kIdealMonolithic: return "ideal-monolithic";
  }
  return "?";
}

std::string NodeConfig::validate() const {
  if (nics < 1 || nics > 255) return "nics must be in [1, 255]";
  // RSS queues home on transport replicas, so both take the replica bound;
  // a combined stack has exactly one of each.
  const int max_replicas = split_stack() ? net::kMaxTransportShards : 1;
  const std::string bound = split_stack()
                                ? "[1, " + std::to_string(max_replicas) + "]"
                                : "1 on a combined stack";
  for (const auto& [field, value] : {std::pair{"tcp_shards", tcp_shards},
                                     std::pair{"udp_shards", udp_shards},
                                     std::pair{"rx_queues", rx_queues}}) {
    if (value < 1 || value > max_replicas)
      return std::string(field) + " must be " + bound;
  }
  if (tcp_checkpoint && !split_stack())
    return "tcp_checkpoint needs a split stack";
  if (rx_coalesce_frames < 0) return "rx_coalesce_frames must be >= 0";
  if (gro && (!split_stack() || rx_coalesce_frames <= 1))
    return "gro needs a split stack with rx_coalesce_frames > 1";
  if (pf_filler_rules < 0 || pf_filler_rules > kMaxPfFillerRules)
    return "pf_filler_rules must be in [0, " +
           std::to_string(kMaxPfFillerRules) + "]";
  if (pf_filler_rules > 0 && !use_pf) return "pf_filler_rules needs use_pf";
  if (!net::cc::known(tcp.cc_algo))
    return "tcp.cc_algo \"" + tcp.cc_algo + "\" is not a known algorithm";
  for (const auto& [port, algo] : tcp.cc_by_port) {
    if (!net::cc::known(algo))
      return "tcp.cc_by_port[" + std::to_string(port) + "] \"" + algo +
             "\" is not a known algorithm";
  }
  if (!(cost_scale > 0)) return "cost_scale must be > 0";
  if (tcp.tso) return "tcp.tso is derived from tso; set tso instead";
  if (tcp.checkpoint)
    return "tcp.checkpoint is derived from tcp_checkpoint; set that instead";
  return "";
}

}  // namespace newtos
