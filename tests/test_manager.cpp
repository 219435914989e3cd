// The measurement manager: launching, advertising orders, status polling
// with relaunch, log collection, merged anonymised output.

#include <gtest/gtest.h>

#include "honeypot/manager.hpp"
#include "server/server.hpp"

namespace edhp::honeypot {
namespace {

class ManagerTest : public ::testing::Test {
 protected:
  // run() would never return while honeypot keep-alive timers are armed;
  // settle() drains a bounded window instead.
  void settle(double span = 180.0) { s.run_until(s.now() + span); }

  sim::Simulation s{41};
  net::Network net{s};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  ServerRef ref{server_node, "srv", 4661};
  Manager manager{net, {}};

  void SetUp() override { server.start(); }

  std::size_t launch_one(ContentStrategy strategy = ContentStrategy::no_content) {
    HoneypotConfig c;
    c.name = "hp-" + std::to_string(manager.fleet_size());
    c.strategy = strategy;
    return manager.launch(std::move(c), net.add_node(true), ref);
  }
};

TEST_F(ManagerTest, LaunchConnectsAndAssignsIds) {
  launch_one();
  launch_one();
  settle();
  EXPECT_EQ(manager.fleet_size(), 2u);
  EXPECT_EQ(manager.honeypot(0).status(), Status::connected);
  EXPECT_EQ(manager.honeypot(1).status(), Status::connected);
  EXPECT_NE(manager.honeypot(0).config().id, manager.honeypot(1).config().id);
  EXPECT_EQ(server.session_count(), 2u);
}

TEST_F(ManagerTest, InjectsSharedSalt) {
  launch_one();
  launch_one();
  EXPECT_EQ(manager.honeypot(0).config().salt, manager.honeypot(1).config().salt);
  EXPECT_FALSE(manager.honeypot(0).config().salt.empty());
}

TEST_F(ManagerTest, AdvertiseAllPushesSameList) {
  launch_one();
  launch_one();
  settle();
  AdvertisedFile f{FileId::from_words(1, 2), "bait.avi", 100};
  manager.advertise_all({f});
  settle();
  EXPECT_EQ(server.index().sources(f.id, 10).size(), 2u);
  EXPECT_EQ(manager.honeypot(0).advertised().size(), 1u);
  EXPECT_EQ(manager.honeypot(1).advertised().size(), 1u);
}

TEST_F(ManagerTest, PerHoneypotAdvertise) {
  launch_one();
  launch_one();
  settle();
  AdvertisedFile f{FileId::from_words(3, 4), "one.mp3", 5};
  manager.advertise(1, {f});
  settle();
  EXPECT_TRUE(manager.honeypot(0).advertised().empty());
  EXPECT_EQ(manager.honeypot(1).advertised().size(), 1u);
  EXPECT_EQ(server.index().sources(f.id, 10).size(), 1u);
}

TEST_F(ManagerTest, PollRelaunchesDeadHoneypots) {
  launch_one();
  settle();
  manager.start();
  AdvertisedFile f{FileId::from_words(5, 6), "bait.avi", 9};
  manager.advertise(0, {f});
  settle();

  manager.honeypot(0).crash();
  EXPECT_EQ(manager.honeypot(0).status(), Status::dead);
  s.run_until(s.now() + minutes(30));  // poll period is 10 minutes
  EXPECT_EQ(manager.honeypot(0).status(), Status::connected);
  EXPECT_GE(manager.relaunches(), 1u);
  // The advertised list survived (honeypot kept it) and is re-offered.
  EXPECT_TRUE(server.index().has_file(f.id));
}

TEST_F(ManagerTest, RepeatedCrashesKeepGettingRelaunched) {
  launch_one();
  settle();
  manager.start();
  for (int i = 0; i < 3; ++i) {
    manager.honeypot(0).crash();
    s.run_until(s.now() + minutes(30));
    EXPECT_EQ(manager.honeypot(0).status(), Status::connected) << "cycle " << i;
  }
  EXPECT_GE(manager.relaunches(), 3u);
}

TEST_F(ManagerTest, EveryHoneypotLogCarriesItsStrategy) {
  launch_one();
  launch_one(ContentStrategy::random_content);
  settle();
  ASSERT_EQ(manager.fleet_size(), 2u);
  EXPECT_EQ(manager.honeypot(0).log().header.strategy, "no-content");
  EXPECT_EQ(manager.honeypot(1).log().header.strategy, "random-content");
}

TEST_F(ManagerTest, MergedAnonymizedIsStage2) {
  launch_one();
  settle();
  std::uint64_t distinct = 99;
  const auto merged = manager.merged_anonymized(&distinct);
  EXPECT_EQ(merged.header.peer_kind, logbook::PeerIdKind::stage2_index);
  EXPECT_EQ(distinct, 0u);  // no peers contacted anything yet
}

TEST_F(ManagerTest, StopDisconnectsFleet) {
  launch_one();
  launch_one();
  settle();
  manager.stop();
  settle();
  EXPECT_EQ(manager.honeypot(0).status(), Status::idle);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST_F(ManagerTest, ObservedFilesUnionAcrossFleet) {
  launch_one();
  settle();
  EXPECT_EQ(manager.observed_files().distinct, 0u);
  EXPECT_EQ(manager.observed_files().bytes, 0u);
}

TEST_F(ManagerTest, OutOfRangeIndexThrows) {
  EXPECT_THROW((void)manager.honeypot(0), std::out_of_range);
  EXPECT_THROW(manager.advertise(5, {}), std::out_of_range);
  EXPECT_THROW(manager.reassign(5, ref), std::out_of_range);
}

TEST_F(ManagerTest, ReassignMovesHoneypotToAnotherServer) {
  // A second directory server.
  const auto other_node = net.add_node(true);
  server::Server other(net, other_node, {});
  other.start();
  ServerRef other_ref{other_node, "other-server", 4661};

  launch_one();
  settle();
  AdvertisedFile f{FileId::from_words(7, 8), "bait.avi", 10};
  manager.advertise(0, {f});
  settle();
  EXPECT_TRUE(server.index().has_file(f.id));
  EXPECT_FALSE(other.index().has_file(f.id));

  manager.reassign(0, other_ref);
  settle();
  EXPECT_EQ(manager.honeypot(0).status(), Status::connected);
  // The old server dropped the session (and its offers); the new one has
  // the re-advertised list.
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_TRUE(other.index().has_file(f.id));
  EXPECT_EQ(manager.honeypot(0).log().header.server_name, "other-server");
}

}  // namespace
}  // namespace edhp::honeypot

namespace edhp::honeypot {
namespace {

// Regression (hot-spin): a honeypot whose server stays down is NOT
// reconnected on every poll tick. After the n-th failed relaunch the
// backoff is 10 min doubled n - 1 times, capped at 2 h, and the manager
// relaunches at the first poll by which it has expired; the polls in
// between are accounted as deferred.
TEST_F(ManagerTest, RelaunchBackoffBoundsAttemptsWhileServerDown) {
  launch_one();
  settle();
  ASSERT_EQ(manager.honeypot(0).status(), Status::connected);
  manager.start();  // polls every 10 minutes from here

  server.stop();  // the server is gone for 41 polls
  std::vector<int> relaunch_polls;
  std::uint64_t relaunches = 0;
  for (int poll = 1; poll <= 41; ++poll) {
    s.run_until(s.now() + minutes(10));
    const auto n = manager.recovery_stats().relaunches;
    if (n != relaunches) relaunch_polls.push_back(poll);
    relaunches = n;
  }
  // Backoffs of 10, 20, 40, 80, then 120, 120 minutes.
  EXPECT_EQ(relaunch_polls, (std::vector<int>{1, 2, 4, 8, 16, 28, 40}));
  const auto rec = manager.recovery_stats();
  EXPECT_EQ(rec.deferred, 34u);
  EXPECT_EQ(manager.honeypot(0).status(), Status::dead);
  EXPECT_GT(rec.total_downtime, hours(6));

  server.start();
  s.run_until(s.now() + minutes(110) + 1.0);  // poll 52 reconnects
  EXPECT_EQ(manager.honeypot(0).status(), Status::connected);
  EXPECT_EQ(manager.recovery_stats().relaunches, 8u);
}

// Regression (lost advertise order): an advertise issued while the honeypot
// is dead is dropped by the honeypot; the watchdog notices the ordered list
// is not covered after relaunch and re-offers it.
TEST_F(ManagerTest, RepairsAdvertiseOrderLostWhileDead) {
  launch_one();
  settle();
  manager.start();
  manager.honeypot(0).crash();
  AdvertisedFile f{FileId::from_words(21, 22), "late.avi", 7};
  manager.advertise(0, {f});  // order arrives while dead: honeypot drops it
  EXPECT_EQ(manager.honeypot(0).counters().advertise_orders_lost, 1u);
  EXPECT_TRUE(manager.honeypot(0).advertised().empty());

  s.run_until(s.now() + minutes(30));
  EXPECT_EQ(manager.honeypot(0).status(), Status::connected);
  EXPECT_TRUE(server.index().has_file(f.id));
  EXPECT_GE(manager.recovery_stats().re_advertise_repairs, 1u);
}

TEST_F(ManagerTest, EscalatesToBackupAfterConsecutiveFailures) {
  const auto backup_node = net.add_node(true);
  server::Server backup{net, backup_node, {}};
  backup.start();
  const ServerRef backup_ref{backup_node, "backup", 4661};

  Manager wd{net, {}};
  wd.set_backup_servers({backup_ref});
  HoneypotConfig c;
  c.name = "hp-escalate";
  wd.launch(std::move(c), net.add_node(true), ref);
  settle();
  ASSERT_EQ(wd.honeypot(0).status(), Status::connected);
  wd.start();

  server.stop();  // the primary never comes back
  // Relaunches at polls 1, 2 and 4 fail; the third one's backoff expires
  // at poll 8, which escalates instead of relaunching.
  s.run_until(s.now() + minutes(80) - 1.0);
  EXPECT_EQ(wd.recovery_stats().relaunches, 3u);
  EXPECT_EQ(wd.recovery_stats().escalations, 0u);
  s.run_until(s.now() + minutes(2));
  EXPECT_EQ(wd.recovery_stats().escalations, 1u);
  s.run_until(s.now() + hours(1));
  EXPECT_EQ(wd.honeypot(0).status(), Status::connected);
  EXPECT_EQ(wd.honeypot(0).log().header.server_name, "backup");
  EXPECT_EQ(wd.recovery_stats().relaunches, 3u);
  EXPECT_EQ(wd.recovery_stats().escalations, 1u);
  EXPECT_GT(wd.recovery_stats().total_downtime, 0.0);
}

// A honeypot whose SYN raced a server shutdown is wedged in `connecting`
// forever (the transport handshake completed, nobody answers the login).
// Status alone never reports it; the heartbeat watchdog does, at the first
// poll that finds its heartbeat more than 2 h old.
TEST_F(ManagerTest, HeartbeatWatchdogUnwedgesStalledLogin) {
  const auto backup_node = net.add_node(true);
  server::Server backup{net, backup_node, {}};
  backup.start();
  const ServerRef backup_ref{backup_node, "backup", 4661};

  Manager wd{net, {}};
  wd.set_backup_servers({backup_ref});
  // Wedge a honeypot whose last heartbeat is its launch, now.
  const auto wedge = [&](const char* name) {
    HoneypotConfig c;
    c.name = name;
    const auto index = wd.launch(std::move(c), net.add_node(true), ref);
    server.stop();  // SYN in flight: accept never happens, login unanswered
    return index;
  };
  const Time start = s.now();
  const auto early = wedge("hp-wedged-early");
  wd.start();  // polls every 10 minutes from here
  // The second one's heartbeat is 9.5 minutes in, so 2 h later the next
  // poll is only 30 s away; the first one's limit falls exactly on a poll.
  s.run_until(start + minutes(9.5));
  server.start();
  const auto late = wedge("hp-wedged-late");
  s.run_until(s.now() + minutes(5));
  ASSERT_EQ(wd.honeypot(early).status(), Status::connecting) << "not wedged";
  ASSERT_EQ(wd.honeypot(late).status(), Status::connecting) << "not wedged";

  // The poll at 2 h finds the first heartbeat exactly 2 h old, which is
  // not stale yet; the poll at 2 h 10 min escalates both.
  s.run_until(start + hours(2) + minutes(5));
  EXPECT_EQ(wd.recovery_stats().heartbeat_escalations, 0u);
  s.run_until(start + hours(2) + minutes(15));
  EXPECT_EQ(wd.recovery_stats().heartbeat_escalations, 2u);
  for (const auto index : {early, late}) {
    EXPECT_EQ(wd.honeypot(index).status(), Status::connected);
    EXPECT_EQ(wd.honeypot(index).log().header.server_name, "backup");
  }
}

TEST(ManagerSurvey, CrashedCandidateTimesOutOnlyRespondersDelivered) {
  sim::Simulation s{17};
  net::LinkModel model;
  model.datagram_loss = 0.0;  // isolate the crash from random UDP loss
  net::Network net{s, model};

  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<ServerRef> refs;
  for (int i = 0; i < 3; ++i) {
    const auto node = net.add_node(true);
    servers.push_back(std::make_unique<server::Server>(net, node, server::ServerConfig{}));
    servers.back()->start();
    refs.push_back(ServerRef{node, "srv-" + std::to_string(i), 4661});
  }

  Manager manager{net, {}};
  const auto probe = net.add_node(true);
  bool done = false;
  std::vector<Manager::ServerSurveyEntry> got;
  manager.survey_servers(refs, probe, 5.0, [&](auto entries) {
    done = true;
    got = std::move(entries);
  });
  // The third candidate's host dies while the probe is in flight: its
  // answer is lost, the timeout fires, the responders are delivered.
  net.set_node_up(refs[2].node, false);

  s.run_until(30.0);
  ASSERT_TRUE(done);
  ASSERT_EQ(got.size(), 2u);
  for (const auto& e : got) {
    EXPECT_NE(e.server.name, "srv-2");
  }
}

}  // namespace
}  // namespace edhp::honeypot
