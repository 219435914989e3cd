// Directory server over the simulated transport: login/ID assignment,
// offer indexing, source queries, search, disconnect cleanup.

#include <gtest/gtest.h>

#include "server/server.hpp"

namespace edhp::server {
namespace {

using proto::AnyMessage;
using proto::Channel;

class ServerTest : public ::testing::Test {
 protected:
  sim::Simulation s{7};
  net::Network net{s};
  net::NodeId server_node = net.add_node(true);
  Server server{net, server_node, {}};

  struct Client {
    net::EndpointPtr ep;
    std::vector<AnyMessage> inbox;
    std::uint32_t client_id = 0;
  };

  /// Connect a node to the server, log in, run to idle.
  Client login(net::NodeId node, std::uint64_t user_seed = 1) {
    Client c;
    net.connect(node, server_node, [&](net::EndpointPtr ep) {
      c.ep = std::move(ep);
      ASSERT_TRUE(c.ep);
      c.ep->on_message([&](net::Bytes p) {
        auto msg = proto::decode(Channel::client_server, p);
        if (const auto* id = std::get_if<proto::IdChange>(&msg)) {
          c.client_id = id->client_id;
        }
        c.inbox.push_back(std::move(msg));
      });
      proto::LoginRequest login_msg;
      login_msg.user = UserId::from_words(user_seed, user_seed);
      login_msg.port = 4662;
      login_msg.tags = {proto::Tag::string_tag(proto::kTagName, "test-client")};
      c.ep->send(proto::encode(AnyMessage{login_msg}));
    });
    s.run();
    return c;
  }

  static proto::PublishedFile pub(std::uint64_t n, const std::string& name) {
    proto::PublishedFile f;
    f.file = FileId::from_words(n, n);
    f.name = name;
    f.size = 100;
    return f;
  }

  void SetUp() override { server.start(); }
};

TEST_F(ServerTest, ReachableClientGetsHighId) {
  auto node = net.add_node(true);
  auto c = login(node);
  ASSERT_FALSE(c.inbox.empty());
  EXPECT_TRUE(std::holds_alternative<proto::IdChange>(c.inbox[0]));
  EXPECT_TRUE(ClientId(c.client_id).is_high());
  EXPECT_EQ(c.client_id, net.info(node).ip.value());
  EXPECT_EQ(server.session_count(), 1u);
}

TEST_F(ServerTest, FirewalledClientGetsLowId) {
  auto c = login(net.add_node(false));
  EXPECT_TRUE(ClientId(c.client_id).is_low());
  EXPECT_GT(c.client_id, 0u);
}

TEST_F(ServerTest, LowIdsAreDistinct) {
  auto c1 = login(net.add_node(false), 1);
  auto c2 = login(net.add_node(false), 2);
  EXPECT_NE(c1.client_id, c2.client_id);
}

TEST_F(ServerTest, OfferIndexesFilesAndGetSourcesFindsThem) {
  auto provider = login(net.add_node(true), 1);
  provider.ep->send(proto::encode(AnyMessage{
      proto::OfferFiles{{pub(5, "file.avi")}}}));
  s.run();
  EXPECT_EQ(server.index().file_count(), 1u);

  auto seeker = login(net.add_node(true), 2);
  seeker.ep->send(
      proto::encode(AnyMessage{proto::GetSources{FileId::from_words(5, 5)}}));
  s.run();
  ASSERT_GE(seeker.inbox.size(), 2u);
  const auto* found = std::get_if<proto::FoundSources>(&seeker.inbox.back());
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->sources.size(), 1u);
  EXPECT_EQ(found->sources[0].client_id, provider.client_id);
}

TEST_F(ServerTest, GetSourcesForUnknownFileReturnsEmpty) {
  auto c = login(net.add_node(true));
  c.ep->send(
      proto::encode(AnyMessage{proto::GetSources{FileId::from_words(9, 9)}}));
  s.run();
  const auto* found = std::get_if<proto::FoundSources>(&c.inbox.back());
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->sources.empty());
}

TEST_F(ServerTest, SearchReturnsMatches) {
  auto provider = login(net.add_node(true), 1);
  provider.ep->send(proto::encode(AnyMessage{proto::OfferFiles{
      {pub(1, "Linux.Distribution.2008.iso"), pub(2, "music.mp3")}}}));
  s.run();

  auto seeker = login(net.add_node(true), 2);
  seeker.ep->send(proto::encode(AnyMessage{proto::SearchRequest{"linux 2008"}}));
  s.run();
  const auto* results = std::get_if<proto::SearchResult>(&seeker.inbox.back());
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->files.size(), 1u);
  EXPECT_EQ(results->files[0].file, FileId::from_words(1, 1));
}

TEST_F(ServerTest, DisconnectRemovesProviders) {
  auto provider = login(net.add_node(true), 1);
  provider.ep->send(proto::encode(AnyMessage{proto::OfferFiles{{pub(5, "f")}}}));
  s.run();
  EXPECT_EQ(server.index().file_count(), 1u);
  provider.ep->close();
  s.run();
  EXPECT_EQ(server.index().file_count(), 0u);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST_F(ServerTest, QueriesBeforeLoginIgnored) {
  net::EndpointPtr raw;
  std::size_t replies = 0;
  net.connect(net.add_node(true), server_node, [&](net::EndpointPtr ep) {
    raw = std::move(ep);
    raw->on_message([&](net::Bytes) { ++replies; });
    raw->send(proto::encode(AnyMessage{proto::OfferFiles{{pub(1, "f")}}}));
    raw->send(
        proto::encode(AnyMessage{proto::GetSources{FileId::from_words(1, 1)}}));
  });
  s.run();
  EXPECT_EQ(server.index().file_count(), 0u);
  EXPECT_EQ(replies, 0u);
  EXPECT_EQ(server.counters().offer_before_login, 1u);
}

TEST_F(ServerTest, MalformedPacketClosesSession) {
  net::EndpointPtr raw;
  net.connect(net.add_node(true), server_node, [&](net::EndpointPtr ep) {
    raw = std::move(ep);
    raw->send(net::Bytes{0x01, 0x02, 0x03});
  });
  s.run();
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.defense_stats().malformed, 1u);
}

TEST_F(ServerTest, StopDropsEverything) {
  auto provider = login(net.add_node(true), 1);
  provider.ep->send(proto::encode(AnyMessage{proto::OfferFiles{{pub(5, "f")}}}));
  s.run();
  server.stop();
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.index().file_count(), 0u);
  // New connections are refused while stopped.
  bool failed = false;
  net.connect(net.add_node(true), server_node,
              [&](net::EndpointPtr ep) { failed = (ep == nullptr); });
  s.run();
  EXPECT_TRUE(failed);
}

TEST_F(ServerTest, ReofferUpdatesKeepAliveSemantics) {
  auto provider = login(net.add_node(true), 1);
  provider.ep->send(proto::encode(AnyMessage{proto::OfferFiles{{pub(1, "a")}}}));
  provider.ep->send(proto::encode(
      AnyMessage{proto::OfferFiles{{pub(1, "a"), pub(2, "b")}}}));
  s.run();
  EXPECT_EQ(server.index().file_count(), 2u);
  EXPECT_EQ(server.counters().offers, 2u);
}

}  // namespace
}  // namespace edhp::server
