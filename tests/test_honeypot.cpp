// The honeypot itself: server protocol behaviour, advertisement, query
// logging with stage-1 anonymisation, content strategies, harvesting,
// greedy growth, crash/relaunch.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "honeypot/honeypot.hpp"
#include "proto/filehash.hpp"
#include "server/server.hpp"

namespace edhp::honeypot {
namespace {

using proto::AnyMessage;
using proto::Channel;

class HoneypotTest : public ::testing::Test {
 protected:
  // run() would never return while honeypot keep-alive timers are armed;
  // settle() drains a bounded window instead.
  void settle(double span = 180.0) { s.run_until(s.now() + span); }

  sim::Simulation s{11};
  net::Network net{s};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  ServerRef ref{server_node, "test-server", 4661};

  AdvertisedFile fake{FileId::from_words(0xAA, 0xBB), "bait.avi", 1000000};

  void SetUp() override { server.start(); }

  HoneypotConfig config(ContentStrategy strategy) {
    HoneypotConfig c;
    c.id = 1;
    c.name = "hp-test";
    c.strategy = strategy;
    return c;
  }

  /// A scripted fake peer connection to the honeypot.
  struct FakePeer {
    net::EndpointPtr ep;
    std::vector<AnyMessage> inbox;
  };

  FakePeer contact(Honeypot& hp, bool send_hello = true,
                   std::uint32_t client_id = 0x7F000001) {
    FakePeer p;
    open_contact(hp, p, send_hello, client_id);
    settle();
    return p;
  }

  /// Connect `p` to the honeypot from a fresh node without waiting: the
  /// endpoint (and its HELLO) arrive as the simulation runs.
  void open_contact(Honeypot& hp, FakePeer& p, bool send_hello = true,
                    std::uint32_t client_id = 0x7F000001) {
    const auto on_connect = [&p, send_hello, client_id](net::EndpointPtr ep) {
      p.ep = std::move(ep);
      ASSERT_TRUE(p.ep) << "honeypot not listening";
      p.ep->on_message([&p](net::Bytes bytes) {
        p.inbox.push_back(proto::decode(Channel::client_client, bytes));
      });
      if (send_hello) {
        proto::Hello hello;
        hello.user = UserId::from_words(5, 6);
        hello.client_id = client_id;
        hello.port = 4662;
        hello.tags = {proto::Tag::string_tag(proto::kTagName, "eMule 0.49b"),
                      proto::Tag::u32_tag(proto::kTagVersion, 0x31)};
        p.ep->send(proto::encode(AnyMessage{hello}));
      }
    };
    net.connect(net.add_node(true), hp.node(), on_connect);
  }
};

TEST_F(HoneypotTest, LogsInAndGetsClientId) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  EXPECT_EQ(hp.status(), Status::idle);
  hp.connect_to_server(ref);
  EXPECT_EQ(hp.status(), Status::connecting);
  settle();
  EXPECT_EQ(hp.status(), Status::connected);
  EXPECT_TRUE(hp.client_id().is_high());
  EXPECT_EQ(server.session_count(), 1u);
}

TEST_F(HoneypotTest, AdvertisesFilesToServer) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  hp.advertise({fake});
  settle();
  EXPECT_TRUE(server.index().has_file(fake.id));
  auto sources = server.index().sources(fake.id, 10);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].client_id, hp.client_id().value());
}

TEST_F(HoneypotTest, OfferKeepAliveRefreshesServer) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  hp.advertise({fake});
  s.run_until(s.now() + hours(2));
  EXPECT_GE(hp.counters().offers_sent, 4u);  // initial + keepalives
  EXPECT_TRUE(server.index().has_file(fake.id));
}

TEST_F(HoneypotTest, AnswersHelloAndLogsQuery) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  hp.advertise({fake});
  auto peer = contact(hp);
  ASSERT_FALSE(peer.inbox.empty());
  EXPECT_TRUE(std::holds_alternative<proto::HelloAnswer>(peer.inbox[0]));
  // Harvesting defaults on: the honeypot also asks for the shared list.
  ASSERT_GE(peer.inbox.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<proto::AskSharedFiles>(peer.inbox[1]));

  ASSERT_EQ(hp.log().records.size(), 1u);
  const auto& r = hp.log().records[0];
  EXPECT_EQ(r.type, logbook::QueryType::hello);
  EXPECT_TRUE(r.high_id());
  EXPECT_EQ(hp.log().names[r.name_ref], "eMule 0.49b");
  EXPECT_EQ(r.client_version, 0x31u);
  EXPECT_EQ(r.honeypot, 1);
}

TEST_F(HoneypotTest, LogNeverContainsRawPeerIp) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  auto peer = contact(hp);
  ASSERT_EQ(hp.log().records.size(), 1u);
  // Stage-1: the peer field is a salted hash, not the IP (in any byte order).
  const auto& r = hp.log().records[0];
  for (std::uint32_t node_ip = 0; node_ip < net.node_count(); ++node_ip) {
    const auto ip = net.info(node_ip).ip.value();
    EXPECT_NE(r.peer, ip);
    EXPECT_NE(r.peer, __builtin_bswap32(ip));
  }
  EXPECT_EQ(hp.log().header.peer_kind, logbook::PeerIdKind::stage1_hash);
}

TEST_F(HoneypotTest, SamePeerSameHashAcrossHoneypotsWithSharedSalt) {
  auto c1 = config(ContentStrategy::no_content);
  auto c2 = config(ContentStrategy::no_content);
  c2.id = 2;
  c1.salt = c2.salt = "shared-measurement-salt";
  Honeypot hp1(net, net.add_node(true), c1);
  Honeypot hp2(net, net.add_node(true), c2);
  hp1.connect_to_server(ref);
  hp2.connect_to_server(ref);
  settle();

  // One peer node contacts both honeypots.
  const auto node = net.add_node(true);
  for (Honeypot* hp : {&hp1, &hp2}) {
    net::EndpointPtr keep;
    net.connect(node, hp->node(), [&](net::EndpointPtr ep) {
      keep = std::move(ep);
      proto::Hello hello;
      hello.user = UserId::from_words(1, 1);
      hello.client_id = net.info(node).ip.value();
      hello.port = 4662;
      keep->send(proto::encode(AnyMessage{hello}));
    });
    settle();
  }
  ASSERT_EQ(hp1.log().records.size(), 1u);
  ASSERT_EQ(hp2.log().records.size(), 1u);
  EXPECT_EQ(hp1.log().records[0].peer, hp2.log().records[0].peer);
}

TEST_F(HoneypotTest, AcceptsUploadAndLogsStartUpload) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  auto peer = contact(hp);
  peer.ep->send(proto::encode(AnyMessage{proto::StartUpload{fake.id}}));
  // A second wanted file on the same connection is logged, not re-granted.
  const auto other = FileId::from_words(0xCC, 0xDD);
  peer.ep->send(proto::encode(AnyMessage{proto::StartUpload{other}}));
  settle();
  EXPECT_EQ(std::count_if(peer.inbox.begin(), peer.inbox.end(),
                          [](const AnyMessage& m) {
                            return std::holds_alternative<proto::AcceptUpload>(m);
                          }),
            1);
  ASSERT_EQ(hp.log().records.size(), 3u);
  EXPECT_EQ(hp.log().records[1].type, logbook::QueryType::start_upload);
  EXPECT_EQ(hp.log().records[1].file, fake.id);
  EXPECT_TRUE(hp.log().records[1].has_file());
  EXPECT_EQ(hp.log().records[2].type, logbook::QueryType::start_upload);
  EXPECT_EQ(hp.log().records[2].file, other);
}

TEST_F(HoneypotTest, NoContentStrategyStaysSilentOnRequestPart) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  auto peer = contact(hp);
  proto::RequestParts rp;
  rp.file = fake.id;
  rp.begin = {0, 184320, 368640};
  rp.end = {184320, 368640, 552960};
  peer.ep->send(proto::encode(AnyMessage{rp}));
  settle();
  for (const auto& m : peer.inbox) {
    EXPECT_FALSE(std::holds_alternative<proto::SendingPart>(m));
  }
  // ...but the query was logged.
  EXPECT_EQ(hp.log().records.back().type, logbook::QueryType::request_part);
}

TEST_F(HoneypotTest, RandomContentStrategySendsBlocks) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::random_content));
  hp.connect_to_server(ref);
  settle();
  auto peer = contact(hp);
  proto::RequestParts rp;
  rp.file = fake.id;
  rp.begin = {0, 184320, 0};
  rp.end = {184320, 368640, 0};  // third range empty
  peer.ep->send(proto::encode(AnyMessage{rp}));
  settle();
  std::size_t blocks = 0;
  std::uint64_t advertised_bytes = 0;
  for (const auto& m : peer.inbox) {
    if (const auto* part = std::get_if<proto::SendingPart>(&m)) {
      ++blocks;
      advertised_bytes += part->end - part->begin;
      EXPECT_FALSE(part->data.empty());
      // The content cannot verify against any fixed expected digest.
      EXPECT_FALSE(proto::verify_part(part->data, Md4::Digest{}));
    }
  }
  EXPECT_EQ(blocks, 2u);  // one per non-empty range
  EXPECT_EQ(advertised_bytes, 2u * 184320u);
}

TEST_F(HoneypotTest, HarvestsSharedListsAndAggregates) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  auto peer = contact(hp);
  proto::AskSharedFilesAnswer answer;
  for (std::uint64_t i = 0; i < 3; ++i) {
    proto::PublishedFile f;
    f.file = FileId::from_words(i, i);
    f.name = "shared-" + std::to_string(i) + ".avi";
    f.size = 1000 * (static_cast<std::uint32_t>(i) + 1);
    answer.files.push_back(f);
  }
  peer.ep->send(proto::encode(AnyMessage{answer}));
  // A second peer shares an overlapping list.
  auto peer2 = contact(hp);
  peer2.ep->send(proto::encode(AnyMessage{answer}));
  settle();

  EXPECT_EQ(hp.observed().size(), 3u);
  EXPECT_EQ(hp.observed().bytes(), 1000u + 2000u + 3000u);
  EXPECT_EQ(hp.counters().shared_lists_received, 2u);
  EXPECT_EQ(hp.observed().entry(0).file, FileId::from_words(0, 0));
  EXPECT_EQ(hp.observed().entry(2).size, 3000u);
}

TEST_F(HoneypotTest, GreedyModeAdoptsHarvestedFiles) {
  auto c = config(ContentStrategy::no_content);
  c.greedy = true;
  Honeypot hp(net, net.add_node(true), c);
  hp.connect_to_server(ref);
  settle();
  hp.advertise({fake});

  auto peer = contact(hp);
  proto::AskSharedFilesAnswer answer;
  proto::PublishedFile f;
  f.file = FileId::from_words(0xCC, 0xDD);
  f.name = "harvested.mp3";
  f.size = 123;
  answer.files.push_back(f);
  peer.ep->send(proto::encode(AnyMessage{answer}));
  settle();

  ASSERT_EQ(hp.advertised().size(), 2u);
  EXPECT_EQ(hp.advertised()[1].name, "harvested.mp3");
  EXPECT_TRUE(server.index().has_file(f.file));  // re-offered to server
}

TEST_F(HoneypotTest, GreedyStopsAfterHarvestWindow) {
  auto c = config(ContentStrategy::no_content);
  c.greedy = true;
  Honeypot hp(net, net.add_node(true), c);
  // The window opens at login, a fraction of a second after this.
  const Time login = s.now();
  hp.connect_to_server(ref);
  settle();
  auto early = contact(hp);
  auto late = contact(hp);
  const auto share = [](FakePeer& peer, std::uint64_t word, const char* name) {
    proto::AskSharedFilesAnswer answer;
    proto::PublishedFile f;
    f.file = FileId::from_words(word, word);
    f.name = name;
    answer.files.push_back(f);
    peer.ep->send(proto::encode(AnyMessage{answer}));
  };

  // The window is one day: 30 s before it closes a list is still adopted,
  // 30 s after it is only observed.
  s.run_until(login + days(1) - 30.0);
  share(early, 0xEE, "last.avi");
  s.run_until(login + days(1) + 30.0);
  ASSERT_EQ(hp.advertised().size(), 1u);
  EXPECT_EQ(hp.advertised()[0].name, "last.avi");
  share(late, 0xFF, "late.avi");
  settle();
  EXPECT_EQ(hp.advertised().size(), 1u);
  // Still *observed* for the distinct-files statistics.
  EXPECT_EQ(hp.observed().size(), 2u);
}

// A browsing peer gets every advertised file under the honeypot's own
// clientID and port, and the server indexed the same names and sizes from
// the honeypot's OFFER-FILES.
TEST_F(HoneypotTest, AnswersSharedFilesBrowsing) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  const std::vector<AdvertisedFile> files{
      fake, {FileId::from_words(0xCC, 0xDD), "second.mp3", 4321}};
  hp.advertise(files);
  auto peer = contact(hp);
  peer.ep->send(proto::encode(AnyMessage{proto::AskSharedFiles{}}));
  settle();
  const auto* answer =
      std::get_if<proto::AskSharedFilesAnswer>(&peer.inbox.back());
  ASSERT_NE(answer, nullptr);
  ASSERT_EQ(answer->files.size(), files.size());
  ASSERT_TRUE(hp.client_id().is_high());
  const std::uint16_t port = net.info(hp.node()).port;
  ASSERT_NE(port, 0u);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& entry = answer->files[i];
    EXPECT_EQ(entry.file, files[i].id);
    EXPECT_EQ(entry.name, files[i].name);
    EXPECT_EQ(entry.size, files[i].size);
    EXPECT_EQ(entry.client_id, hp.client_id().value());
    EXPECT_EQ(entry.port, port);

    const auto indexed = server.index().search(files[i].name, 10);
    ASSERT_EQ(indexed.size(), 1u) << files[i].name;
    EXPECT_EQ(indexed[0].file, files[i].id);
    EXPECT_EQ(indexed[0].name, files[i].name);
    EXPECT_EQ(indexed[0].size, files[i].size);
  }
}

TEST_F(HoneypotTest, CrashAndRelaunchKeepsLog) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  auto peer = contact(hp);
  EXPECT_EQ(hp.log().records.size(), 1u);

  hp.crash();
  EXPECT_EQ(hp.status(), Status::dead);
  settle();
  EXPECT_EQ(server.session_count(), 0u);

  hp.connect_to_server(ref);
  settle();
  EXPECT_EQ(hp.status(), Status::connected);
  EXPECT_EQ(hp.log().records.size(), 1u);  // log survived the crash
}

TEST_F(HoneypotTest, MalformedPeerTrafficDropsConnection) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  auto peer = contact(hp, /*send_hello=*/false);
  peer.ep->send(net::Bytes{0xFF, 0xFF});
  settle();
  EXPECT_EQ(hp.defense_stats().malformed, 1u);
  EXPECT_TRUE(hp.log().records.empty());
}

// The fd-limit analog holds with the defense layer off: the peer past the
// cap is closed at accept, the admitted peers are still logged, and a peer
// that closes frees its place for a new one.
class HoneypotDefense : public HoneypotTest {
 protected:
  /// The honeypot's peer cap with the defense layer off (honeypot.cpp).
  static constexpr std::size_t kHardPeerCap = 2048;
};

TEST_F(HoneypotDefense, HardPeerCapHoldsWithDefenseOff) {
  const auto c = config(ContentStrategy::no_content);
  ASSERT_FALSE(c.defense);
  Honeypot hp(net, net.add_node(true), c);
  hp.connect_to_server(ref);
  settle();

  std::vector<FakePeer> peers(kHardPeerCap + 1);
  for (auto& p : peers) open_contact(hp, p);
  settle();
  const auto open = static_cast<std::size_t>(
      std::count_if(peers.begin(), peers.end(),
                    [](const FakePeer& p) { return p.ep->open(); }));
  EXPECT_EQ(open, kHardPeerCap);
  for (const auto& p : peers) {
    EXPECT_EQ(p.inbox.empty(), !p.ep->open());  // HELLO answered if admitted
  }
  EXPECT_EQ(hp.log().records.size(), kHardPeerCap);

  const auto admitted = std::find_if(
      peers.begin(), peers.end(), [](const FakePeer& p) { return p.ep->open(); });
  ASSERT_NE(admitted, peers.end());
  admitted->ep->close();
  settle();
  auto late = contact(hp);
  EXPECT_TRUE(late.ep->open());
  EXPECT_FALSE(late.inbox.empty());
  EXPECT_EQ(hp.log().records.size(), kHardPeerCap + 1);
  EXPECT_EQ(hp.defense_stats().accepted, 0u);  // defense dormant
}

TEST_F(HoneypotTest, LowIdPeerFlaggedInLog) {
  Honeypot hp(net, net.add_node(true), config(ContentStrategy::no_content));
  hp.connect_to_server(ref);
  settle();
  auto peer = contact(hp, true, /*client_id=*/1234);  // LowID
  ASSERT_EQ(hp.log().records.size(), 1u);
  EXPECT_FALSE(hp.log().records[0].high_id());
}

}  // namespace
}  // namespace edhp::honeypot
