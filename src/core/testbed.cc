#include "src/core/testbed.h"

#include <cstdio>
#include <cstdlib>

namespace newtos {

namespace {

// The teardown assertion of the chunk-lending API: every loan a pool
// handed to an application (borrowed view, send reservation) must have
// been returned by the time the testbed dies.  A refcount bug in the
// lending paths fails loudly here, in every existing test.
void check_loan_leaks(Node& node) {
  bool leaked = false;
  for (chan::Pool* pool : node.pools().all()) {
    // Loans held by transport replicas cover kL4RxAgg messages still in
    // flight — legitimate whenever the simulation stops mid-run.  Return
    // them (the modelled orderly quiesce) so the check below sees only
    // application loans, which must balance.
    for (int s = 0; s < net::kMaxTransportShards; ++s) {
      pool->reclaim(servers::transport_borrower('T', s));
      pool->reclaim(servers::transport_borrower('U', s));
    }
    // Connection-checkpoint loans are the same story: a run that stops with
    // live checkpointed connections (or a parked crash that never restored)
    // legitimately has queue chunks and pages on the ledger.  Reclaiming a
    // loan whose reference an engine destructor will also drop is safe:
    // the later release finds the chunk already freed and no-ops (nothing
    // allocates between here and node teardown).
    for (std::uint32_t b : pool->borrowers()) {
      if (servers::is_ckpt_borrower(b)) pool->reclaim(b);
    }
  }
  for (chan::Pool* pool : node.pools().all()) {
    const std::size_t loans = pool->borrows_outstanding();
    if (loans == 0) continue;
    leaked = true;
    std::fprintf(stderr,
                 "chunk-lending leak: pool \"%s\" still has %zu chunk(s) "
                 "on loan at Testbed teardown\n",
                 pool->name().c_str(), loans);
  }
  if (leaked) std::abort();
}

}  // namespace

Testbed::Testbed(const TestbedOptions& opts) {
  NodeConfig left = opts;
  left.name = "newtos";
  left.left = true;

  NodeConfig right;
  right.name = "peer";
  right.mode = StackMode::kIdealMonolithic;
  right.nics = opts.nics;
  right.tso = true;  // the peer is never the bottleneck
  right.use_pf = false;
  right.cost_scale = 0.1;
  // The peer is usually the data receiver: it needs the same reassembly
  // budget or a reordering wire would still look like loss to the sender,
  // and the same ssthresh and buffer caps so either direction behaves the
  // same.  Its congestion control stays the default.
  right.tcp.ooo_queue_segs = opts.tcp.ooo_queue_segs;
  right.tcp.ssthresh_init = opts.tcp.ssthresh_init;
  right.tcp.sndbuf_max = opts.tcp.sndbuf_max;
  right.tcp.rcvbuf_max = opts.tcp.rcvbuf_max;
  right.left = false;

  left_ = std::make_unique<Node>(sim_, left);
  right_ = std::make_unique<Node>(sim_, right);

  for (int i = 0; i < opts.nics; ++i) {
    drv::Wire::Config wc;
    wc.bits_per_sec = opts.gbps * 1e9;
    wc.propagation = opts.wire_latency;
    wc.loss = opts.loss;
    wc.seed = opts.seed + static_cast<std::uint64_t>(i);
    wc.bottleneck_bits_per_sec = opts.wire_bottleneck_gbps * 1e9;
    wc.queue_frames = opts.wire_queue_frames;
    wc.reorder = opts.wire_reorder;
    wc.reorder_delay = opts.wire_reorder_delay;
    wires_.push_back(std::make_unique<drv::Wire>(sim_, wc));
    left_->attach_wire(i, wires_.back().get(), 0);
    right_->attach_wire(i, wires_.back().get(), 1);
  }

  left_->boot();
  right_->boot();
}

Testbed::~Testbed() {
  check_loan_leaks(*left_);
  check_loan_leaks(*right_);
}

}  // namespace newtos
