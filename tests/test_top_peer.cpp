// The Fig 8/9 crawler: discovery, per-source encounter chains, strategy
// asymmetry, plateaus, and crash resilience.

#include <gtest/gtest.h>

#include "honeypot/honeypot.hpp"
#include "peer/top_peer.hpp"
#include "server/server.hpp"

namespace edhp::peer {
namespace {

class TopPeerTest : public ::testing::Test {
 protected:
  // run() would never return while honeypot keep-alive timers are armed;
  // settle() drains a bounded window instead.
  void settle(double span = 180.0) { s.run_until(s.now() + span); }

  sim::Simulation s{51};
  net::Network net{s};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  FileId target = FileId::from_words(0xAA, 0xBB);
  std::vector<std::unique_ptr<honeypot::Honeypot>> pots;

  void SetUp() override { server.start(); }

  honeypot::Honeypot& spawn_honeypot(honeypot::ContentStrategy strategy) {
    honeypot::HoneypotConfig c;
    c.id = static_cast<std::uint16_t>(pots.size());
    c.name = "hp-" + std::to_string(pots.size());
    c.strategy = strategy;
    pots.push_back(std::make_unique<honeypot::Honeypot>(
        net, net.add_node(true), std::move(c)));
    pots.back()->connect_to_server(honeypot::ServerRef{server_node, "srv", 4661});
    settle();
    pots.back()->advertise({honeypot::AdvertisedFile{target, "bait.avi", 1000}});
    settle();
    return *pots.back();
  }

  PeerProfile crawler_profile() {
    PeerProfile p;
    p.user = UserId::from_words(9, 9);
    p.client_name = "MLDonkey 2.9";
    p.client_version = 0x29;
    p.reachable = true;
    p.upload_bps = 100 * 1024;
    return p;
  }

  std::uint64_t hellos_logged(const honeypot::Honeypot& hp) {
    std::uint64_t n = 0;
    for (const auto& r : hp.log().records) {
      if (r.type == logbook::QueryType::hello) ++n;
    }
    return n;
  }
};

TEST_F(TopPeerTest, DiscoversAllProvidersViaServer) {
  auto& nc = spawn_honeypot(honeypot::ContentStrategy::no_content);
  auto& rc = spawn_honeypot(honeypot::ContentStrategy::random_content);
  TopPeer crawler(net, server_node, crawler_profile(), target, Rng(1));
  crawler.start();
  s.run_until(s.now() + days(1));
  ASSERT_EQ(crawler.per_source().size(), 2u);
  EXPECT_GT(crawler.per_source()[0].hellos, 0u);
  EXPECT_GT(crawler.per_source()[1].hellos, 0u);
  EXPECT_GT(hellos_logged(nc), 0u);
  EXPECT_GT(hellos_logged(rc), 0u);
  crawler.stop();
}

TEST_F(TopPeerTest, RandomContentGetsMoreQueriesThanNoContent) {
  auto& nc = spawn_honeypot(honeypot::ContentStrategy::no_content);
  auto& rc = spawn_honeypot(honeypot::ContentStrategy::random_content);
  TopPeer crawler(net, server_node, crawler_profile(), target, Rng(2));
  crawler.start();
  s.run_until(s.now() + days(4));
  crawler.stop();

  std::uint64_t nc_su = 0, rc_su = 0, nc_rp = 0, rc_rp = 0;
  for (const auto& st : crawler.per_source()) {
    const bool is_rc = st.client_id == net.info(rc.node()).ip.value();
    (is_rc ? rc_su : nc_su) += st.start_uploads;
    (is_rc ? rc_rp : nc_rp) += st.request_parts;
  }
  (void)nc;
  EXPECT_GT(rc_su, nc_su);
  EXPECT_GT(rc_rp, nc_rp);
  EXPECT_GT(nc_su, 0u);
  EXPECT_GT(nc_rp, 0u);
}

TEST_F(TopPeerTest, QueriesArriveInHoneypotLogs) {
  auto& hp = spawn_honeypot(honeypot::ContentStrategy::random_content);
  TopPeer crawler(net, server_node, crawler_profile(), target, Rng(3));
  crawler.start();
  s.run_until(s.now() + days(1));
  crawler.stop();
  // Crawler-side counters equal honeypot-side log entries.
  std::uint64_t hp_su = 0;
  for (const auto& r : hp.log().records) {
    if (r.type == logbook::QueryType::start_upload) ++hp_su;
  }
  ASSERT_EQ(crawler.per_source().size(), 1u);
  EXPECT_EQ(hp_su, crawler.per_source()[0].start_uploads);
}

TEST_F(TopPeerTest, PlateausSuppressActivity) {
  spawn_honeypot(honeypot::ContentStrategy::random_content);
  TopPeer crawler(net, server_node, crawler_profile(), target, Rng(4));
  crawler.start();
  // Track activity per 6h window over 8 days; with active periods of ~4
  // days and pauses of 10 to 40 hours there must be at least one silent
  // window.
  std::vector<std::uint64_t> per_window;
  std::uint64_t last = 0;
  for (int w = 0; w < 32; ++w) {
    s.run_until(s.now() + hours(6));
    const auto total = crawler.per_source().empty()
                           ? 0
                           : crawler.per_source()[0].start_uploads;
    per_window.push_back(total - last);
    last = total;
  }
  crawler.stop();
  const auto silent =
      std::count(per_window.begin(), per_window.end(), std::uint64_t{0});
  EXPECT_GE(silent, 1) << "expected at least one idle plateau window";
  EXPECT_GT(last, 0u) << "crawler should still have done work overall";
}

TEST_F(TopPeerTest, SurvivesProviderCrash) {
  auto& hp = spawn_honeypot(honeypot::ContentStrategy::random_content);
  TopPeer crawler(net, server_node, crawler_profile(), target, Rng(5));
  crawler.start();
  s.run_until(s.now() + hours(2));
  hp.crash();
  EXPECT_NO_THROW(s.run_until(s.now() + days(1)));
  // Chain stays alive: once the honeypot is gone, encounters fail but keep
  // rescheduling; no crash, no runaway.
  crawler.stop();
}

TEST_F(TopPeerTest, NoProvidersIsGraceful) {
  TopPeer crawler(net, server_node, crawler_profile(), target, Rng(6));
  crawler.start();
  EXPECT_NO_THROW(s.run_until(s.now() + days(1)));
  EXPECT_TRUE(crawler.per_source().empty());
  crawler.stop();
}

}  // namespace
}  // namespace edhp::peer
