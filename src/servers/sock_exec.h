// One executor per protocol for socket control ops.
//
// A socket op is one record, WireSockOp, from the application's submission
// ring to the engine call.  These functions make that call: each applies
// one op, whose in-batch open sentinel run_sock_batch has already resolved,
// and returns the kSockReply plus what the op changed.  The split TCP and
// UDP replicas and the combined stack all use them; a host adds only its
// own charges and follow-ups (replicating to sibling replicas, storing).
#pragma once

#include "src/chan/message.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/servers/proto.h"

namespace newtos::servers {

// What one op did: its kSockReply, and whether it changed the state the
// hosts replicate and store.
struct SockOpResult {
  chan::Message reply;   // kSockReply
  bool changed = false;  // see apply_tcp_op / apply_udp_op
  bool removed = false;  // the change was a close
};

// `changed`: a listen the engine took, or the close of a listener.
SockOpResult apply_tcp_op(net::TcpEngine& tcp, const WireSockOp& op);

// `changed`: the socket table changed, by an open, bind, connect or close,
// or by a sendto that bound the socket to an ephemeral port.
SockOpResult apply_udp_op(net::UdpEngine& udp, const WireSockOp& op);

}  // namespace newtos::servers
