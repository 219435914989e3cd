// Fault-injection subsystem: plan generation, the injector driving network
// primitives, honeypot retry/backoff, crash-safe log spooling, and the
// chaos variants of the campaign scenarios.

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hpp"
#include "honeypot/manager.hpp"
#include "scenario/scenario.hpp"
#include "server/server.hpp"

namespace edhp::fault {
namespace {

TEST(FaultPlan, DeterministicInConfigAndSeed) {
  ChaosConfig config;
  config.enabled = true;
  config.uplink_mtbf = days(4);
  config.server_mtbf = days(8);
  config.latency_spike_mtbf = days(8);
  config.partition_mtbf = days(8);
  const auto a = make_plan(config, 8, 2, days(32), Rng(7));
  const auto b = make_plan(config, 8, 2, days(32), Rng(7));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.events(), b.events());

  const auto c = make_plan(config, 8, 2, days(32), Rng(8));
  EXPECT_NE(a.events(), c.events());
}

TEST(FaultPlan, DisabledConfigYieldsEmptyPlan) {
  ChaosConfig config;  // enabled = false
  EXPECT_TRUE(make_plan(config, 24, 1, days(32), Rng(1)).empty());
}

TEST(FaultPlan, OnlyEnabledClassesAppear) {
  ChaosConfig config;
  config.enabled = true;  // defaults: host crashes only
  const auto plan = make_plan(config, 8, 1, days(32), Rng(3));
  ASSERT_FALSE(plan.empty());
  for (const auto& e : plan.events()) {
    EXPECT_TRUE(e.kind == FaultKind::host_crash ||
                e.kind == FaultKind::host_reboot)
        << to_string(e.kind);
  }
}

TEST(FaultPlan, EventsSortedByTimeWithinHorizon) {
  ChaosConfig config;
  config.enabled = true;
  config.host_mtbf = days(2);
  config.uplink_mtbf = days(2);
  config.server_mtbf = days(4);
  const auto plan = make_plan(config, 6, 2, days(16), Rng(5));
  ASSERT_GT(plan.size(), 10u);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan.events()[i - 1].at, plan.events()[i].at);
  }
  for (const auto& e : plan.events()) {
    EXPECT_GE(e.at, 0.0);
    EXPECT_LT(e.at, days(16));
  }
}

TEST(FaultPlan, AddingOneClassDoesNotShiftAnother) {
  ChaosConfig config;
  config.enabled = true;  // host crashes only
  const auto base = make_plan(config, 6, 1, days(32), Rng(11));
  config.uplink_mtbf = days(4);  // enable a second class
  const auto more = make_plan(config, 6, 1, days(32), Rng(11));

  auto crashes_of = [](const FaultPlan& p) {
    std::vector<FaultEvent> out;
    for (const auto& e : p.events()) {
      if (e.kind == FaultKind::host_crash || e.kind == FaultKind::host_reboot) {
        out.push_back(e);
      }
    }
    return out;
  };
  EXPECT_EQ(crashes_of(base), crashes_of(more));
  EXPECT_GT(more.size(), base.size());
}

// The manager fault class rides its own RNG split: enabling it must not
// shift any other schedule, and the recovery toggle must not change the plan
// at all (disabling recovery only leaves the binding unset).
TEST(FaultPlan, ManagerClassDoesNotShiftOtherSchedules) {
  ChaosConfig config;
  config.enabled = true;
  config.uplink_mtbf = days(4);
  config.server_mtbf = days(8);
  const auto base = make_plan(config, 6, 1, days(32), Rng(11));
  config.manager_mtbf = days(8);
  const auto more = make_plan(config, 6, 1, days(32), Rng(11));

  auto without_manager = [](const FaultPlan& p) {
    std::vector<FaultEvent> out;
    for (const auto& e : p.events()) {
      if (e.kind != FaultKind::manager_crash &&
          e.kind != FaultKind::manager_recover) {
        out.push_back(e);
      }
    }
    return out;
  };
  EXPECT_EQ(without_manager(more), base.events());
  EXPECT_GT(more.size(), base.size());

  config.manager_recovery = false;
  const auto no_recovery = make_plan(config, 6, 1, days(32), Rng(11));
  EXPECT_EQ(no_recovery.events(), more.events());
}

TEST(FaultPlan, HandCraftedPlanIsSorted) {
  FaultPlan plan(std::vector<FaultEvent>{
      {50.0, FaultKind::host_reboot, 0, 1.0},
      {10.0, FaultKind::host_crash, 0, 1.0},
  });
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::host_crash);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::host_reboot);
}

TEST(Injector, RequiresHostNodeBinding) {
  sim::Simulation s{1};
  net::Network net{s};
  FaultPlan plan(std::vector<FaultEvent>{{1.0, FaultKind::host_crash, 0, 1.0}});
  EXPECT_THROW(Injector(net, std::move(plan), Injector::Bindings{}),
               std::invalid_argument);
}

TEST(Injector, CrashAndRebootDriveNetworkAndHooks) {
  sim::Simulation s{2};
  net::Network net{s};
  const auto node = net.add_node(true);
  int crashed = 0;
  FaultPlan plan(std::vector<FaultEvent>{
      {10.0, FaultKind::host_crash, 0, 1.0},
      {20.0, FaultKind::host_reboot, 0, 1.0},
  });
  Injector::Bindings bind;
  bind.host_count = 1;
  bind.host_node = [node](std::size_t) { return node; };
  bind.crash_host = [&crashed](std::size_t) { ++crashed; };
  Injector injector{net, std::move(plan), std::move(bind)};
  injector.arm();

  s.run_until(15.0);
  EXPECT_FALSE(net.node_up(node));
  EXPECT_EQ(crashed, 1);
  s.run_until(25.0);
  EXPECT_TRUE(net.node_up(node));
  EXPECT_EQ(injector.stats().host_crashes, 1u);
  EXPECT_EQ(injector.stats().host_reboots, 1u);
}

TEST(Injector, LatencySpikeAndPartitionApplyAndRevert) {
  sim::Simulation s{3};
  net::Network net{s};
  const auto a = net.add_node(true);
  const auto b = net.add_node(true);
  FaultPlan plan(std::vector<FaultEvent>{
      {10.0, FaultKind::partition_begin, 1, 1.0},
      {20.0, FaultKind::partition_heal, 1, 1.0},
      {30.0, FaultKind::latency_spike_begin, 0, 8.0},
      {40.0, FaultKind::latency_spike_end, 0, 8.0},
  });
  Injector::Bindings bind;
  bind.host_count = 2;
  bind.host_node = [a, b](std::size_t h) { return h == 0 ? a : b; };
  Injector injector{net, std::move(plan), std::move(bind)};
  injector.arm();

  s.run_until(15.0);
  EXPECT_EQ(net.partition_of(b), 1u);
  s.run_until(25.0);
  EXPECT_EQ(net.partition_of(b), 0u);
  s.run_until(45.0);
  EXPECT_EQ(injector.stats().partition_episodes, 1u);
  EXPECT_EQ(injector.stats().latency_spikes, 1u);
}

// An uplink outage severs the server session; the honeypot retries on its
// own with backoff and is logged in again once the link returns — the
// manager never has to relaunch it.
TEST(Recovery, HoneypotRetriesThroughUplinkOutage) {
  sim::Simulation s{7};
  net::Network net{s};
  const auto server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  server.start();
  const honeypot::ServerRef ref{server_node, "srv", 4661};

  const auto hp_node = net.add_node(true);
  honeypot::HoneypotConfig hc;
  hc.name = "hp-retry";
  hc.retry = true;
  honeypot::Honeypot hp{net, hp_node, hc};
  hp.connect_to_server(ref);
  s.run_until(60.0);
  ASSERT_EQ(hp.status(), honeypot::Status::connected);
  EXPECT_EQ(hp.epoch(), 1u);

  FaultPlan plan(std::vector<FaultEvent>{
      {100.0, FaultKind::uplink_down, 0, 1.0},
      {130.0, FaultKind::uplink_up, 0, 1.0},
  });
  Injector::Bindings bind;
  bind.host_count = 1;
  bind.host_node = [hp_node](std::size_t) { return hp_node; };
  Injector injector{net, std::move(plan), std::move(bind)};
  injector.arm();

  s.run_until(110.0);
  EXPECT_NE(hp.status(), honeypot::Status::connected);
  EXPECT_NE(hp.status(), honeypot::Status::dead);  // self-retrying

  s.run_until(600.0);
  EXPECT_EQ(hp.status(), honeypot::Status::connected);
  EXPECT_GE(hp.retries(), 1u);
  EXPECT_EQ(hp.epoch(), 1u);  // self-retry is not a relaunch
  EXPECT_EQ(injector.stats().uplink_outages, 1u);
}

// Exhausting the per-episode retry budget reports dead: escalation moves to
// the manager's watchdog instead of retrying forever.
TEST(Recovery, RetryBudgetExhaustionReportsDead) {
  sim::Simulation s{8};
  net::Network net{s};
  const auto server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  server.start();
  const honeypot::ServerRef ref{server_node, "srv", 4661};

  const auto hp_node = net.add_node(true);
  honeypot::HoneypotConfig hc;
  hc.retry = true;
  honeypot::Honeypot hp{net, hp_node, hc};
  hp.connect_to_server(ref);
  s.run_until(60.0);
  ASSERT_EQ(hp.status(), honeypot::Status::connected);

  // Permanent: every retry fails. Six retries back off 30 s, doubling, with
  // up to 10% jitter each: 1890 s in all, give or take 189 s.
  server.stop();
  const Time stopped = s.now();
  s.run_until(stopped + 1890.0 * 0.9 - 1.0);
  EXPECT_NE(hp.status(), honeypot::Status::dead);
  s.run_until(stopped + 1890.0 * 1.1 + 10.0);
  EXPECT_EQ(hp.status(), honeypot::Status::dead);
  EXPECT_EQ(hp.counters().retry_budget_exhausted, 1u);
  EXPECT_EQ(hp.retries(), 6u);
}

// Backoff jitter is derived from (honeypot id, attempt), not an RNG
// stream: the whole retry schedule — including the instant the budget runs
// out — is identical across runs.
TEST(Recovery, RetryScheduleIsDeterministic) {
  auto death_time = [] {
    sim::Simulation s{9};
    net::Network net{s};
    const auto server_node = net.add_node(true);
    server::Server server{net, server_node, {}};
    server.start();
    const honeypot::ServerRef ref{server_node, "srv", 4661};
    honeypot::HoneypotConfig hc;
    hc.retry = true;
    honeypot::Honeypot hp{net, net.add_node(true), hc};
    hp.connect_to_server(ref);
    s.run_until(30.0);
    server.stop();
    while (hp.status() != honeypot::Status::dead && s.now() < 3600.0) {
      s.run_until(s.now() + 1.0);
    }
    return s.now();
  };
  const double a = death_time();
  const double b = death_time();
  EXPECT_EQ(a, b);
  EXPECT_LT(a, 3600.0);
}

class SpoolTest : public ::testing::Test {
 protected:
  void settle(double span = 120.0) { s.run_until(s.now() + span); }

  /// Connect `n` fresh peers to the honeypot; each sends one HELLO, which
  /// appends one record to the honeypot's log.
  void feed_hellos(honeypot::Honeypot& hp, int n) {
    for (int i = 0; i < n; ++i) {
      const auto peer_node = net.add_node(true);
      const auto user = static_cast<std::uint64_t>(++next_user_);
      net.connect(peer_node, hp.node(),
                  [this, peer_node, user](net::EndpointPtr ep) {
                    if (!ep) return;
                    proto::Hello hello;
                    hello.user = UserId::from_words(user, 77);
                    hello.client_id = net.info(peer_node).ip.value();
                    hello.port = 4662;
                    ep->send(proto::encode(proto::AnyMessage{hello}));
                    keep_.push_back(std::move(ep));
                  });
    }
    settle();
  }

  sim::Simulation s{43};
  net::Network net{s};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  honeypot::ServerRef ref{server_node, "srv", 4661};
  std::vector<net::EndpointPtr> keep_;
  int next_user_ = 0;

  void SetUp() override { server.start(); }
};

TEST_F(SpoolTest, CrashLosesOnlyTheUnspooledTail) {
  honeypot::ManagerConfig mc;
  mc.spool.enabled = true;
  mc.spool.period = hours(1);  // manual spool_now() controls the cuts
  honeypot::Manager manager{net, mc};
  honeypot::HoneypotConfig c;
  c.name = "hp-spool";
  manager.launch(std::move(c), net.add_node(true), ref);
  settle();
  auto& hp = manager.honeypot(0);
  ASSERT_EQ(hp.status(), honeypot::Status::connected);

  feed_hellos(hp, 3);
  ASSERT_EQ(hp.log().records.size(), 3u);
  hp.spool_now();
  settle(60.0);  // chunk delivered and, 30 s later, acknowledged
  EXPECT_EQ(hp.pending_spool(), 0u);

  feed_hellos(hp, 2);
  ASSERT_EQ(hp.log().records.size(), 5u);
  const auto durable = manager.spool_store().reassemble(hp.config().id);

  hp.crash();
  // The crash destroyed exactly the records produced since the last cut.
  EXPECT_EQ(hp.records_lost_tail(), 2u);
  EXPECT_EQ(hp.log().records.size(), 3u);
  EXPECT_EQ(hp.log().records, durable.records);
  EXPECT_EQ(manager.spool_store().chunks_accepted(), 1u);
  EXPECT_EQ(manager.spool_store().records_stored(), 3u);

  const auto rec = manager.recovery_stats();
  EXPECT_EQ(rec.records_lost_tail, 2u);
  EXPECT_EQ(rec.records_spooled, 3u);
  EXPECT_NEAR(rec.retained_fraction, 3.0 / 5.0, 1e-9);
}

TEST_F(SpoolTest, CrashInsideAckWindowResendsAndDedups) {
  honeypot::ManagerConfig mc;
  mc.spool.enabled = true;
  mc.spool.period = hours(1);
  honeypot::Manager manager{net, mc};
  honeypot::HoneypotConfig c;
  c.name = "hp-dedup";
  manager.launch(std::move(c), net.add_node(true), ref);
  settle();
  auto& hp = manager.honeypot(0);
  ASSERT_EQ(hp.status(), honeypot::Status::connected);

  feed_hellos(hp, 2);
  hp.spool_now();              // chunk accepted; ack still 30 s away
  EXPECT_EQ(hp.pending_spool(), 1u);
  hp.crash();                  // inside the ack window
  EXPECT_EQ(hp.records_lost_tail(), 0u);  // everything was already spooled
  EXPECT_EQ(hp.pending_spool(), 1u);      // local spool survived the crash

  // Relaunch before the ack arrives: the chunk is re-sent at-least-once
  // with its original sequence number and deduplicated by the store.
  hp.connect_to_server(ref);
  settle();
  EXPECT_GE(hp.counters().chunks_resent, 1u);
  EXPECT_EQ(manager.spool_store().chunks_accepted(), 1u);
  EXPECT_GE(manager.spool_store().chunks_duplicate(), 1u);
  EXPECT_EQ(manager.spool_store().reassemble(hp.config().id).records.size(),
            2u);  // no duplicate records despite the duplicate chunk
  EXPECT_EQ(hp.epoch(), 2u);
  EXPECT_EQ(hp.pending_spool(), 0u);  // the re-send's ack cleared it
}

TEST_F(SpoolTest, ManagerStopFlushesFinalTail) {
  honeypot::ManagerConfig mc;
  mc.spool.enabled = true;
  mc.spool.period = hours(1);
  honeypot::Manager manager{net, mc};
  honeypot::HoneypotConfig c;
  manager.launch(std::move(c), net.add_node(true), ref);
  settle();
  feed_hellos(manager.honeypot(0), 4);
  manager.stop();  // final gathering flushes the unspooled tail
  const auto id = manager.honeypot(0).config().id;
  EXPECT_EQ(manager.spool_store().reassemble(id).records.size(), 4u);
}

}  // namespace
}  // namespace edhp::fault

namespace edhp::scenario {
namespace {

/// A small chaos campaign exercising every fault class.
DistributedConfig small_chaos_config() {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 2;
  config.honeypots = 4;
  config.with_top_peer = false;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = hours(18);
  config.chaos.uplink_mtbf = hours(16);
  config.chaos.server_mtbf = days(2);
  config.chaos.latency_spike_mtbf = hours(12);
  config.chaos.partition_mtbf = days(1);
  return config;
}

TEST(ChaosScenario, DeterministicForFixedSeed) {
  const auto config = small_chaos_config();
  const auto a = run_distributed(config);
  const auto b = run_distributed(config);
  EXPECT_GT(a.faults.host_crashes, 0u);
  EXPECT_EQ(a.faults.host_crashes, b.faults.host_crashes);
  EXPECT_EQ(a.faults.connections_aborted, b.faults.connections_aborted);
  EXPECT_EQ(a.recovery.relaunches, b.recovery.relaunches);
  EXPECT_EQ(a.recovery.honeypot_retries, b.recovery.honeypot_retries);
  EXPECT_EQ(a.merged.records.size(), b.merged.records.size());
  EXPECT_EQ(a.merged.records, b.merged.records);
}

TEST(ChaosScenario, RecoveryMachineryEngages) {
  const auto r = run_distributed(small_chaos_config());
  EXPECT_GT(r.faults.host_crashes, 0u);
  EXPECT_GT(r.faults.uplink_outages, 0u);
  EXPECT_GT(r.faults.connections_aborted, 0u);
  // Self-retry and/or watchdog relaunch brought honeypots back.
  EXPECT_GT(r.recovery.relaunches + r.recovery.honeypot_retries, 0u);
  EXPECT_GT(r.recovery.total_downtime, 0.0);
  // Spooling was active and bounded the damage.
  EXPECT_GT(r.recovery.records_spooled, 0u);
  EXPECT_GE(r.recovery.retained_fraction, 0.9);
  EXPECT_GT(r.merged.records.size(), 100u);
}

// Acceptance: at the paper's scale parameters (24 honeypots, 32 days, host
// MTBF 16 days) the platform retains at least 99% of the records a
// crash-free run of the same world produces.
TEST(ChaosScenario, RetainsAtLeast99PercentAtPaperMtbf) {
  DistributedConfig chaos;
  chaos.scale = 0.02;
  chaos.days = 32;
  chaos.honeypots = 24;
  chaos.with_top_peer = false;
  chaos.chaos.enabled = true;  // defaults: host MTBF 16 days

  DistributedConfig clean = chaos;
  clean.chaos.enabled = false;
  clean.host_mtbf = 0;  // crash-free baseline

  const auto faulty = run_distributed(chaos);
  const auto baseline = run_distributed(clean);
  ASSERT_GT(baseline.merged.records.size(), 1000u);
  EXPECT_GT(faulty.faults.host_crashes, 0u);

  const double ratio = static_cast<double>(faulty.merged.records.size()) /
                       static_cast<double>(baseline.merged.records.size());
  EXPECT_GE(ratio, 0.99) << faulty.merged.records.size() << " of "
                         << baseline.merged.records.size() << " records";
  EXPECT_GE(faulty.recovery.retained_fraction, 0.99);
  EXPECT_LE(faulty.recovery.retained_fraction, 1.0);
}

// Acceptance headline: control-plane crashes with recovery enabled cost
// nothing — at the paper's scale the merged anonymised log is bit-identical
// to the same world run without manager faults.
TEST(ChaosScenario, ManagerCrashRecoveryIsLossless) {
  DistributedConfig crashy;
  crashy.scale = 0.02;
  crashy.days = 32;
  crashy.honeypots = 24;
  crashy.with_top_peer = false;
  crashy.chaos.enabled = true;
  crashy.chaos.host_mtbf = 0;  // isolate the manager fault class
  crashy.chaos.manager_mtbf = days(8);

  DistributedConfig clean = crashy;
  clean.chaos.manager_mtbf = 0;

  const auto faulty = run_distributed(crashy);
  const auto baseline = run_distributed(clean);
  ASSERT_GT(faulty.faults.manager_crashes, 0u);
  EXPECT_EQ(faulty.recovery.manager_crashes, faulty.faults.manager_crashes);
  EXPECT_GT(faulty.recovery.manager_recoveries, 0u);
  EXPECT_GT(faulty.recovery.manager_downtime, 0.0);
  EXPECT_GT(faulty.recovery.journal_replayed, 0u);
  ASSERT_GT(baseline.merged.records.size(), 1000u);
  EXPECT_EQ(faulty.merged.records, baseline.merged.records);
  EXPECT_EQ(faulty.merged.names, baseline.merged.names);
}

// With recovery disabled the fleet is orphaned at the first crash, yet the
// durable merge (spool store + salvaged local spools) still retains at least
// 99% of the baseline: only per-honeypot tails newer than the last spool cut
// can be lost. The orphans still report what they observed, so Table I's
// distinct files and space used match the crash-free run exactly.
TEST(ChaosScenario, DisabledRecoveryLosesOnlyBoundedTails) {
  DistributedConfig config;
  config.scale = 0.02;
  config.days = 32;
  config.honeypots = 24;
  config.with_top_peer = false;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = 0;
  config.chaos.manager_mtbf = days(8);
  config.chaos.manager_recovery = false;

  DistributedConfig clean = config;
  clean.chaos.manager_mtbf = 0;

  const auto faulty = run_distributed(config);
  const auto baseline = run_distributed(clean);
  ASSERT_GT(faulty.faults.manager_crashes, 0u);
  EXPECT_EQ(faulty.recovery.manager_recoveries, 0u);
  ASSERT_GT(baseline.merged.records.size(), 1000u);
  const double ratio = static_cast<double>(faulty.merged.records.size()) /
                       static_cast<double>(baseline.merged.records.size());
  EXPECT_GE(ratio, 0.99) << faulty.merged.records.size() << " of "
                         << baseline.merged.records.size() << " records";
  EXPECT_LE(ratio, 1.0);
  ASSERT_GT(baseline.observed.distinct, 0u);
  EXPECT_EQ(faulty.observed.distinct, baseline.observed.distinct);
  EXPECT_EQ(faulty.observed.bytes, baseline.observed.bytes);
}

// Stream mode folds records into per-honeypot counters. After an unrecovered
// manager crash every honeypot is an orphan, and the audited run must still
// count what they streamed: the ledger balances, and the count and chained
// fingerprint equal the crash-free run's.
TEST(ChaosScenario, StreamedRunCountsOrphanedHoneypots) {
  DistributedConfig config;
  config.scale = 0.02;
  config.days = 8;
  config.honeypots = 8;
  config.with_top_peer = false;
  config.stream_records = true;
  config.audit = true;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = 0;
  config.chaos.manager_mtbf = days(2);
  config.chaos.manager_recovery = false;

  DistributedConfig clean = config;
  clean.chaos.manager_mtbf = 0;

  const auto orphaned = run_distributed(config);
  const auto baseline = run_distributed(clean);
  ASSERT_GT(orphaned.faults.manager_crashes, 0u);
  EXPECT_EQ(orphaned.recovery.manager_recoveries, 0u);
  EXPECT_TRUE(orphaned.audit.balanced()) << orphaned.audit.breakdown();
  ASSERT_GT(baseline.records_streamed, 0u);
  EXPECT_EQ(orphaned.records_streamed, baseline.records_streamed);
  EXPECT_EQ(orphaned.stream_fingerprint, baseline.stream_fingerprint);
}

TEST(ChaosScenario, GreedyChaosVariantRuns) {
  GreedyConfig config;
  config.scale = 0.02;
  config.days = 3;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = days(1);
  const auto r = run_greedy(config);
  EXPECT_GT(r.merged.records.size(), 100u);
  EXPECT_GT(r.faults.host_crashes, 0u);
  EXPECT_GE(r.recovery.retained_fraction, 0.5);
}

TEST(ChaosScenario, ChaosManagerConfigMapsKnobs) {
  fault::ChaosConfig chaos;
  EXPECT_FALSE(chaos_manager_config(chaos).retry);
  chaos.enabled = true;
  chaos.spool_period = minutes(7);
  const auto mc = chaos_manager_config(chaos);
  EXPECT_TRUE(mc.retry);
  EXPECT_TRUE(mc.spool.enabled);
  EXPECT_EQ(mc.spool.period, minutes(7));
}

}  // namespace
}  // namespace edhp::scenario
