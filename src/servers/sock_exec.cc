#include "src/servers/sock_exec.h"

namespace newtos::servers {

namespace {

// The reply to `op` before the engine fills in its value (arg0); an op the
// protocol does not take is answered with 0.
chan::Message sock_reply(const WireSockOp& op) {
  chan::Message r;
  r.opcode = kSockReply;
  r.req_id = op.req_id;
  r.socket = op.sock;
  return r;
}

net::Ipv4Addr op_addr(const WireSockOp& op) {
  return net::Ipv4Addr{static_cast<std::uint32_t>(op.arg0)};
}

std::uint16_t op_port(const WireSockOp& op) {
  return static_cast<std::uint16_t>(op.arg1);
}

}  // namespace

SockOpResult apply_tcp_op(net::TcpEngine& tcp, const WireSockOp& op) {
  SockOpResult res{sock_reply(op)};
  std::uint64_t& value = res.reply.arg0;
  switch (op.opcode) {
    case kSockOpen:
      value = tcp.open();
      res.reply.socket = static_cast<std::uint32_t>(value);
      break;
    case kSockBind:
      value = tcp.bind(op.sock, op_addr(op), op_port(op));
      break;
    case kSockListen:
      value = tcp.listen(op.sock, static_cast<int>(op.arg0));
      res.changed = value != 0;
      break;
    case kSockConnect:
      // Completion is signalled by the Connected/Reset socket event.
      value = tcp.connect(op.sock, op_addr(op), op_port(op));
      break;
    case kSockSend:
      value = tcp.send(op.sock, op.ptr);
      break;
    case kSockClose:
      res.changed = res.removed = tcp.is_listener(op.sock);
      value = tcp.close(op.sock);
      break;
    default:
      break;
  }
  return res;
}

SockOpResult apply_udp_op(net::UdpEngine& udp, const WireSockOp& op) {
  SockOpResult res{sock_reply(op)};
  std::uint64_t& value = res.reply.arg0;
  switch (op.opcode) {
    case kSockOpen:
      value = udp.open();
      res.reply.socket = static_cast<std::uint32_t>(value);
      res.changed = true;
      break;
    case kSockBind:
      value = udp.bind(op.sock, op_addr(op), op_port(op));
      res.changed = true;
      break;
    case kSockConnect:
      value = udp.connect(op.sock, op_addr(op), op_port(op));
      res.changed = true;
      break;
    case kSockSendTo: {
      // sendto on an unbound socket binds an ephemeral port: the replicas
      // must learn about it, or the replies steered to them find no socket.
      const auto before = udp.record(op.sock);
      value = udp.sendto(op.sock, op.ptr, op_addr(op), op_port(op));
      res.changed = before && before->lport == 0;
      break;
    }
    case kSockClose:
      udp.close(op.sock);
      value = 1;
      res.changed = res.removed = true;
      break;
    default:
      break;
  }
  return res;
}

}  // namespace newtos::servers
