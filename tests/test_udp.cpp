// UDP datagram channel, server status protocol, and the manager's
// server-selection survey.

#include <gtest/gtest.h>

#include "honeypot/manager.hpp"
#include "proto/udp_messages.hpp"
#include "server/server.hpp"

namespace edhp {
namespace {

TEST(UdpCodec, StatRoundTrip) {
  const proto::AnyUdpMessage msg{proto::ServStatRequest{0xCAFE}};
  EXPECT_EQ(proto::decode_udp(proto::encode_udp(msg)), msg);
  const proto::AnyUdpMessage res{proto::ServStatResponse{7, 120049, 4000000}};
  EXPECT_EQ(proto::decode_udp(proto::encode_udp(res)), res);
}

TEST(UdpCodec, DescRoundTrip) {
  const proto::AnyUdpMessage req{proto::ServDescRequest{}};
  EXPECT_EQ(proto::decode_udp(proto::encode_udp(req)), req);
  const proto::AnyUdpMessage res{
      proto::ServDescResponse{"big server", "no spam"}};
  EXPECT_EQ(proto::decode_udp(proto::encode_udp(res)), res);
}

TEST(UdpCodec, MalformedRejected) {
  EXPECT_THROW((void)proto::decode_udp(std::vector<std::uint8_t>{}),
               DecodeError);
  EXPECT_THROW((void)proto::decode_udp(std::vector<std::uint8_t>{0xE3}),
               DecodeError);
  EXPECT_THROW((void)proto::decode_udp(std::vector<std::uint8_t>{0xE3, 0x42}),
               DecodeError);
  // Truncated stat request.
  EXPECT_THROW(
      (void)proto::decode_udp(std::vector<std::uint8_t>{0xE3, 0x96, 1, 2}),
      DecodeError);
  // Trailing junk.
  auto wire = proto::encode_udp(proto::AnyUdpMessage{proto::ServDescRequest{}});
  wire.push_back(0);
  EXPECT_THROW((void)proto::decode_udp(wire), DecodeError);
}

class UdpNetworkTest : public ::testing::Test {
 protected:
  sim::Simulation s{61};
  net::LinkModel lossless() {
    net::LinkModel m;
    m.datagram_loss = 0.0;
    return m;
  }
  net::Network net{s, lossless()};
};

TEST_F(UdpNetworkTest, DatagramDelivered) {
  const auto a = net.add_node(true);
  const auto b = net.add_node(true);
  net::NodeId seen_from = 999;
  net::Bytes seen;
  net.listen_datagram(b, [&](net::NodeId from, net::Bytes payload) {
    seen_from = from;
    seen = std::move(payload);
  });
  net.send_datagram(a, b, net::Bytes{1, 2, 3});
  s.run();
  EXPECT_EQ(seen_from, a);
  EXPECT_EQ(seen, (net::Bytes{1, 2, 3}));
}

TEST_F(UdpNetworkTest, NoListenerSilentlyDropped) {
  const auto a = net.add_node(true);
  const auto b = net.add_node(true);
  EXPECT_NO_THROW(net.send_datagram(a, b, net::Bytes{1}));
  s.run();
}

TEST_F(UdpNetworkTest, UnreachableTargetDropped) {
  const auto a = net.add_node(true);
  const auto b = net.add_node(false);  // firewalled
  bool seen = false;
  net.listen_datagram(b, [&](net::NodeId, net::Bytes) { seen = true; });
  net.send_datagram(a, b, net::Bytes{1});
  s.run();
  EXPECT_FALSE(seen);
}

TEST_F(UdpNetworkTest, LossDropsAllAtProbabilityOne) {
  net::LinkModel lossy;
  lossy.datagram_loss = 1.0;
  net::Network lossy_net{s, lossy};
  const auto a = lossy_net.add_node(true);
  const auto b = lossy_net.add_node(true);
  bool seen = false;
  lossy_net.listen_datagram(b, [&](net::NodeId, net::Bytes) { seen = true; });
  for (int i = 0; i < 50; ++i) lossy_net.send_datagram(a, b, net::Bytes{1});
  s.run();
  EXPECT_FALSE(seen);
}

class ServerUdpTest : public ::testing::Test {
 protected:
  sim::Simulation s{62};
  net::LinkModel lossless() {
    net::LinkModel m;
    m.datagram_loss = 0.0;
    return m;
  }
  net::Network net{s, lossless()};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};

  void SetUp() override { server.start(); }
};

TEST_F(ServerUdpTest, AnswersStatusPing) {
  const auto probe = net.add_node(true);
  std::optional<proto::ServStatResponse> answer;
  net.listen_datagram(probe, [&](net::NodeId, net::Bytes payload) {
    auto msg = proto::decode_udp(payload);
    if (const auto* res = std::get_if<proto::ServStatResponse>(&msg)) {
      answer = *res;
    }
  });
  net.send_datagram(probe, server_node,
                    proto::encode_udp(proto::AnyUdpMessage{
                        proto::ServStatRequest{0xBEEF}}));
  s.run();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->challenge, 0xBEEFu);
  EXPECT_EQ(answer->users, 0u);
  EXPECT_EQ(server.counters().udp_status_requests, 1u);
}

TEST_F(ServerUdpTest, AnswersDescription) {
  const auto probe = net.add_node(true);
  std::string name;
  net.listen_datagram(probe, [&](net::NodeId, net::Bytes payload) {
    auto msg = proto::decode_udp(payload);
    if (const auto* res = std::get_if<proto::ServDescResponse>(&msg)) {
      name = res->name;
    }
  });
  net.send_datagram(probe, server_node,
                    proto::encode_udp(proto::AnyUdpMessage{
                        proto::ServDescRequest{}}));
  s.run();
  EXPECT_EQ(name, "edhp directory server");
}

TEST_F(ServerUdpTest, MalformedDatagramCounted) {
  const auto probe = net.add_node(true);
  net.send_datagram(probe, server_node, net::Bytes{0xFF, 0xFF});
  s.run();
  EXPECT_EQ(server.defense_stats().malformed, 1u);
}

class SurveyTest : public ::testing::Test {
 protected:
  sim::Simulation s{63};
  net::LinkModel lossless() {
    net::LinkModel m;
    m.datagram_loss = 0.0;
    return m;
  }
  net::Network net{s, lossless()};
  honeypot::Manager manager{net, {}};
};

TEST_F(SurveyTest, RanksServersByUsers) {
  // Two servers; give one a logged-in client so it reports more users.
  const auto n1 = net.add_node(true);
  const auto n2 = net.add_node(true);
  server::Server s1(net, n1, {});
  server::Server s2(net, n2, {});
  s1.start();
  s2.start();

  const auto client_node = net.add_node(true);
  net::EndpointPtr keep;
  net.connect(client_node, n2, [&](net::EndpointPtr ep) {
    keep = std::move(ep);
    proto::LoginRequest login;
    login.user = UserId::from_words(1, 1);
    login.port = 4662;
    keep->send(proto::encode(proto::AnyMessage{login}));
  });
  s.run();
  ASSERT_EQ(s2.session_count(), 1u);

  const auto probe = net.add_node(true);
  std::vector<honeypot::Manager::ServerSurveyEntry> result;
  manager.survey_servers(
      {honeypot::ServerRef{n1, "one", 4661}, honeypot::ServerRef{n2, "two", 4661}},
      probe, 5.0, [&](auto entries) { result = std::move(entries); });
  s.run();

  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].server.name, "two");  // busiest first
  EXPECT_EQ(result[0].users, 1u);
  EXPECT_EQ(result[1].users, 0u);
}

TEST_F(SurveyTest, DuplicateRepliesAreSuppressedFirstCopyWins) {
  // A candidate that answers its request twice (a duplicated reply on the
  // wire), the second copy a second later and with another user count: the
  // first copy wins and the survey delivers exactly one row.
  const auto chatty = net.add_node(true);
  int requests_seen = 0;
  net.listen_datagram(chatty, [&](net::NodeId from, net::Bytes datagram) {
    const auto msg = proto::decode_udp(datagram);
    const auto* req = std::get_if<proto::ServStatRequest>(&msg);
    ASSERT_NE(req, nullptr);
    ++requests_seen;
    const std::uint32_t challenge = req->challenge;
    const auto reply = [&, from, challenge](std::uint32_t users) {
      proto::ServStatResponse res;
      res.challenge = challenge;
      res.users = users;
      net.send_datagram(chatty, from, proto::encode_udp(res));
    };
    reply(3);
    s.schedule_in(1.0, [reply] { reply(9); });
  });

  const auto probe = net.add_node(true);
  std::vector<honeypot::Manager::ServerSurveyEntry> result;
  manager.survey_servers({honeypot::ServerRef{chatty, "chatty", 4661}}, probe,
                         5.0, [&](auto entries) { result = std::move(entries); });
  s.run();

  EXPECT_EQ(requests_seen, 1);  // the survey asks each candidate once
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].users, 3u);
}

TEST_F(SurveyTest, DeadServersOmitted) {
  const auto n1 = net.add_node(true);
  server::Server s1(net, n1, {});
  s1.start();
  const auto dead = net.add_node(true);  // nothing listening

  const auto probe = net.add_node(true);
  std::vector<honeypot::Manager::ServerSurveyEntry> result;
  bool called = false;
  manager.survey_servers(
      {honeypot::ServerRef{n1, "alive", 4661},
       honeypot::ServerRef{dead, "dead", 4661}},
      probe, 5.0, [&](auto entries) {
        called = true;
        result = std::move(entries);
      });
  s.run();
  EXPECT_TRUE(called);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].server.name, "alive");
}

}  // namespace
}  // namespace edhp
