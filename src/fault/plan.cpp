#include "fault/plan.hpp"

#include "proto/messages.hpp"
#include "proto/opcodes.hpp"

namespace edhp::fault {
namespace {

template <class Handshake>
net::Bytes encode_handshake(UserId user, std::string name) {
  Handshake msg;
  msg.user = user;
  msg.port = 4662;
  msg.tags.push_back(proto::Tag::string_tag(proto::kTagName, std::move(name)));
  msg.tags.push_back(proto::Tag::u32_tag(proto::kTagVersion, 0x3C));
  return proto::encode(msg);
}

}  // namespace

HostilePool::HostilePool(net::Network& network, std::size_t classes,
                         std::size_t per_class)
    : per_class_(std::max<std::size_t>(1, per_class)) {
  nodes_.reserve(classes * per_class_);
  for (std::size_t i = 0; i < classes * per_class_; ++i) {
    nodes_.push_back(network.add_node(false));
  }
}

net::Bytes handshake(bool to_server, UserId user, std::string name) {
  return to_server
             ? encode_handshake<proto::LoginRequest>(user, std::move(name))
             : encode_handshake<proto::Hello>(user, std::move(name));
}

}  // namespace edhp::fault
