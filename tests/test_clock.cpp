// Time under fire: the per-node virtual clock, clock-fault plan
// generation, the skew-tolerant merge, and the scenario-level twin-run
// property (clock faults re-stamp records, they never change behaviour).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "fault/fault.hpp"
#include "logbook/merge.hpp"
#include "scenario/scenario.hpp"
#include "sim/clock_model.hpp"

namespace edhp::sim {
namespace {

TEST(ClockModel, IdentityByDefault) {
  ClockModel clock;
  EXPECT_TRUE(clock.identity());
  // Bit-exact passthrough, not just approximately equal.
  EXPECT_EQ(clock.local(0.0), 0.0);
  EXPECT_EQ(clock.local(1234.5678), 1234.5678);
  EXPECT_EQ(clock.local(days(32)), days(32));
}

TEST(ClockModel, DriftScalesElapsedTime) {
  ClockModel clock;
  clock.set_drift(100.0, 200e-6);  // +200 ppm from t=100
  EXPECT_FALSE(clock.identity());
  EXPECT_DOUBLE_EQ(clock.local(100.0), 100.0);
  EXPECT_DOUBLE_EQ(clock.local(100.0 + 10000.0), 100.0 + 10000.0 * 1.0002);
  // Re-drawing the rate rebases: earlier skew is kept, new rate applies.
  clock.set_drift(10100.0, -500e-6);
  const Time at_rebase = clock.local(10100.0);
  EXPECT_DOUBLE_EQ(clock.local(10100.0 + 1000.0), at_rebase + 1000.0 * 0.9995);
}

TEST(ClockModel, StepShiftsImmediately) {
  ClockModel clock;
  clock.step(50.0, -30.0);  // NTP yanks the clock 30 s backwards
  EXPECT_DOUBLE_EQ(clock.local(50.0), 20.0);
  EXPECT_DOUBLE_EQ(clock.local(60.0), 30.0);  // rate unchanged
  clock.step(60.0, 45.0);
  EXPECT_DOUBLE_EQ(clock.local(60.0), 75.0);
}

TEST(ClockModel, FreezeHoldsAndThawResumes) {
  ClockModel clock;
  clock.set_drift(0.0, 1000e-6);
  const Time frozen_at = clock.local(100.0);
  clock.freeze(100.0);
  EXPECT_TRUE(clock.frozen());
  EXPECT_DOUBLE_EQ(clock.local(100.0), frozen_at);
  EXPECT_DOUBLE_EQ(clock.local(500.0), frozen_at);  // time stands still
  clock.thaw(500.0);
  EXPECT_FALSE(clock.frozen());
  // Resumes from the frozen reading at the old rate: the local clock is now
  // ~400 s behind true time.
  EXPECT_DOUBLE_EQ(clock.local(500.0), frozen_at);
  EXPECT_DOUBLE_EQ(clock.local(600.0), frozen_at + 100.0 * 1.001);
  clock.thaw(700.0);  // double-thaw is a no-op
  EXPECT_DOUBLE_EQ(clock.local(700.0), frozen_at + 200.0 * 1.001);
}

}  // namespace
}  // namespace edhp::sim

namespace edhp::fault {
namespace {

ChaosConfig clock_chaos() {
  ChaosConfig config;
  config.enabled = true;
  config.host_mtbf = 0;  // isolate the clock classes
  config.clock_drift_mtbf = days(2);
  config.clock_drift_ppm = 200.0;
  config.clock_step_mtbf = days(1);
  config.clock_step_max = 60.0;
  config.clock_freeze_mtbf = days(4);
  return config;
}

TEST(FaultPlan, ClockClassesGenerateAndStayBounded) {
  const auto plan = make_plan(clock_chaos(), 8, 1, days(32), Rng(9));
  ASSERT_FALSE(plan.empty());
  std::uint64_t drifts = 0, steps = 0, freezes = 0, thaws = 0;
  for (const auto& e : plan.events()) {
    EXPECT_LT(e.at, days(32));
    EXPECT_LT(e.subject, 8u);
    switch (e.kind) {
      case FaultKind::clock_drift:
        ++drifts;
        EXPECT_LE(std::abs(e.magnitude), 200.0);  // ppm bound
        break;
      case FaultKind::clock_step:
        ++steps;
        EXPECT_LE(std::abs(e.magnitude), 60.0);  // seconds bound
        break;
      case FaultKind::clock_freeze_begin: ++freezes; break;
      case FaultKind::clock_freeze_end: ++thaws; break;
      default: FAIL() << "unexpected kind " << to_string(e.kind);
    }
  }
  EXPECT_GE(drifts, 8u);  // every host gets an initial rate at t=0
  EXPECT_GT(steps, 0u);
  EXPECT_GT(freezes, 0u);
  // Renewal windows close, except a final window crossing the horizon
  // (at most one per host) whose thaw is never emitted.
  EXPECT_LE(thaws, freezes);
  EXPECT_LE(freezes - thaws, 8u);
}

TEST(FaultPlan, ClockClassesOnFreshSplitsLeaveOtherSchedulesAlone) {
  ChaosConfig config;
  config.enabled = true;
  config.uplink_mtbf = days(4);
  config.server_mtbf = days(8);
  const auto base = make_plan(config, 6, 1, days(32), Rng(11));
  config.clock_drift_mtbf = days(2);
  config.clock_step_mtbf = days(1);
  config.clock_freeze_mtbf = days(4);
  const auto more = make_plan(config, 6, 1, days(32), Rng(11));
  ASSERT_GT(more.size(), base.size());
  // Every pre-existing event survives unchanged.
  std::vector<FaultEvent> kept;
  for (const auto& e : more.events()) {
    if (e.kind != FaultKind::clock_drift && e.kind != FaultKind::clock_step &&
        e.kind != FaultKind::clock_freeze_begin &&
        e.kind != FaultKind::clock_freeze_end) {
      kept.push_back(e);
    }
  }
  EXPECT_EQ(kept, base.events());
}

}  // namespace
}  // namespace edhp::fault

namespace edhp::logbook {
namespace {

LogRecord record_at(Time t, std::uint16_t hp, std::uint64_t user) {
  LogRecord r;
  r.timestamp = t;
  r.honeypot = hp;
  r.peer = user * 1000 + hp;
  r.user = user;
  return r;
}

LogFile log_for(std::uint16_t hp, std::vector<LogRecord> records) {
  LogFile log;
  log.header.honeypot = hp;
  log.records = std::move(records);
  return log;
}

TEST(MergeSkew, NoObservationsMonotoneInputMatchesPlainMerge) {
  std::vector<LogFile> logs;
  logs.push_back(log_for(0, {record_at(10, 0, 1), record_at(30, 0, 2)}));
  logs.push_back(log_for(1, {record_at(5, 1, 3), record_at(20, 1, 4)}));
  TimeIntegrityStats stats;
  const auto skew = merge_logs_skew(borrow(logs), {}, &stats);
  const auto plain = merge_logs(borrow(logs));
  EXPECT_EQ(skew.records, plain.records);
  EXPECT_EQ(stats, TimeIntegrityStats{});
}

TEST(MergeSkew, CrossingDriftsRestoreTrueInterleaving) {
  // Two honeypots log the same true instants 0, 60, 120, ..., but hp0's
  // clock runs 1% fast from -100 s and hp1's 1% slow from +100 s (the
  // clocks cross mid-run). Raw merge interleaves them wrongly; observations
  // every 5 minutes let the corrected merge recover the true alternation.
  const auto local0 = [](Time t) { return -100.0 + t * 1.01; };
  const auto local1 = [](Time t) { return 100.0 + t * 0.99; };
  std::vector<LogRecord> r0, r1;
  std::vector<ClockObservation> obs;
  for (int i = 0; i < 200; ++i) {
    const Time t = 60.0 * i;
    r0.push_back(record_at(local0(t), 0, static_cast<std::uint64_t>(2 * i)));
    r1.push_back(
        record_at(local1(t + 30.0), 1, static_cast<std::uint64_t>(2 * i + 1)));
    if (i % 5 == 0) {
      obs.push_back({0, t, local0(t)});
      obs.push_back({1, t, local1(t)});
    }
  }
  std::vector<LogFile> logs{log_for(0, r0), log_for(1, r1)};

  // Sanity: the raw merge gets the interleaving wrong somewhere.
  const auto raw = merge_logs(borrow(logs));
  bool raw_alternates = true;
  for (std::size_t i = 0; i + 1 < raw.records.size(); ++i) {
    raw_alternates =
        raw_alternates && raw.records[i].user + 1 == raw.records[i + 1].user;
  }
  EXPECT_FALSE(raw_alternates);

  TimeIntegrityStats stats;
  const auto merged = merge_logs_skew(borrow(logs), obs, &stats);
  ASSERT_EQ(merged.records.size(), 400u);
  for (std::size_t i = 0; i < merged.records.size(); ++i) {
    EXPECT_EQ(merged.records[i].user, i) << "at position " << i;
  }
  EXPECT_EQ(stats.honeypots_tracked, 2u);
  EXPECT_GT(stats.records_corrected, 0u);
  EXPECT_GT(stats.records_interpolated, 0u);
  EXPECT_EQ(stats.monotonicity_violations, 0u);
}

TEST(MergeSkew, BackwardsStepRacingASpoolCutIsRepairedAndFlagged) {
  // hp0's clock is yanked 50 s backwards between records 2 and 3 — exactly
  // the window where a spool cut (and its clock observation) lands, so the
  // observation stream regresses too. Append order is ground truth: the
  // merge must keep records 0..5 in order, flag the violation, and never
  // reorder silently.
  std::vector<LogRecord> r0;
  const Time locals[] = {100, 160, 220, 170, 230, 290};  // -50 s step after #2
  for (int i = 0; i < 6; ++i) {
    r0.push_back(record_at(locals[i], 0, static_cast<std::uint64_t>(i)));
  }
  std::vector<ClockObservation> obs = {
      {0, 100, 100}, {0, 220, 220},
      {0, 240, 190},  // the cut fired just after the step: local regressed
      {0, 300, 250},
  };
  std::vector<LogFile> logs{log_for(0, r0)};
  TimeIntegrityStats stats;
  const auto merged = merge_logs_skew(borrow(logs), obs, &stats);
  ASSERT_EQ(merged.records.size(), 6u);
  for (std::size_t i = 0; i < merged.records.size(); ++i) {
    EXPECT_EQ(merged.records[i].user, i) << "same-hp order must hold";
    if (i > 0) {
      EXPECT_GE(merged.records[i].timestamp, merged.records[i - 1].timestamp);
    }
  }
  EXPECT_EQ(stats.monotonicity_violations, 1u);  // raw 220 -> 170
  EXPECT_GE(stats.order_restorations, 1u);
  EXPECT_EQ(stats.observation_resets, 1u);  // envelope absorbed 220 -> 190
  EXPECT_GT(stats.records_ambiguous + stats.records_interpolated +
                stats.records_extrapolated,
            0u);
}

TEST(MergeSkew, SingleObservationSupportsConstantOffset) {
  std::vector<LogFile> logs{
      log_for(0, {record_at(1000, 0, 0), record_at(1100, 0, 1)})};
  std::vector<ClockObservation> obs = {{0, 500, 1000}};  // clock +500 s fast
  TimeIntegrityStats stats;
  const auto merged = merge_logs_skew(borrow(logs), obs, &stats);
  EXPECT_DOUBLE_EQ(merged.records[0].timestamp, 500.0);
  EXPECT_DOUBLE_EQ(merged.records[1].timestamp, 600.0);
  EXPECT_EQ(stats.records_extrapolated, 2u);
  EXPECT_EQ(stats.records_corrected, 2u);
  EXPECT_DOUBLE_EQ(stats.max_abs_correction, 500.0);
}

TEST(MergeSkew, ExtrapolatesBeyondObservedRangeWithMeasuredDrift) {
  // Observations cover [1000, 2000] local with a 2:1 local:true rate;
  // records before and after that window extrapolate at the same rate.
  std::vector<ClockObservation> obs = {{0, 500, 1000}, {0, 1000, 2000}};
  std::vector<LogFile> logs{
      log_for(0, {record_at(800, 0, 0), record_at(2400, 0, 1)})};
  TimeIntegrityStats stats;
  const auto merged = merge_logs_skew(borrow(logs), obs, &stats);
  EXPECT_DOUBLE_EQ(merged.records[0].timestamp, 500.0 - 200.0 * 0.5);
  EXPECT_DOUBLE_EQ(merged.records[1].timestamp, 1000.0 + 400.0 * 0.5);
  EXPECT_EQ(stats.records_extrapolated, 2u);
}

TEST(MergeSkew, HoneypotSpanningTwoLogsCarriesItsAppendOrder) {
  // hp0's records arrive in two logs with hp1's in between; the second
  // hp0 log opens 50 s behind where the first one ended. Append order runs
  // on across the logs, so that stamp is a clock artifact: it is lifted
  // (and counted) once, and hp0's records publish in append order.
  std::vector<LogFile> logs{
      log_for(0, {record_at(100, 0, 0), record_at(200, 0, 1),
                  record_at(300, 0, 2)}),
      log_for(1, {record_at(260, 1, 3)}),
      log_for(0, {record_at(250, 0, 4), record_at(400, 0, 5)})};
  const std::vector<ClockObservation> obs = {{0, 0, 0}, {0, 1000, 1000}};
  TimeIntegrityStats stats;
  const auto merged = merge_logs_skew(borrow(logs), obs, &stats);
  std::vector<std::uint64_t> users;
  for (const auto& r : merged.records) users.push_back(r.user);
  EXPECT_EQ(users, (std::vector<std::uint64_t>{0, 1, 3, 2, 4, 5}));
  EXPECT_EQ(merged.records[4].timestamp, 300.0);  // lifted from 250
  EXPECT_EQ(stats.monotonicity_violations, 1u);
  EXPECT_EQ(stats.order_restorations, 1u);
}

TEST(MergeSkew, ExcludedRecordsStayOutOfTheLedger) {
  // A tainted record whose stamp runs backwards: excluded, it is neither
  // published nor seen by the correction pass; kept, it is lifted.
  LogRecord tainted = record_at(50, 0, 1);
  tainted.flags = kFlagProvFabricated;
  const std::vector<LogFile> logs{
      log_for(0, {record_at(100, 0, 0), tainted, record_at(200, 0, 2)})};
  const std::vector<ClockObservation> obs = {{0, 0, 0}, {0, 1000, 1000}};

  TimeIntegrityStats stats;
  std::uint64_t excluded = 0;
  const auto published = merge_logs_skew(borrow(logs), obs, &stats, &excluded);
  EXPECT_EQ(excluded, 1u);
  ASSERT_EQ(published.records.size(), 2u);
  EXPECT_EQ(published.records[1].user, 2u);
  EXPECT_EQ(stats.monotonicity_violations, 0u);

  const auto all = merge_logs_skew(borrow(logs), obs, &stats);
  ASSERT_EQ(all.records.size(), 3u);
  EXPECT_EQ(stats.monotonicity_violations, 1u);
}

}  // namespace
}  // namespace edhp::logbook

namespace edhp::scenario {
namespace {

DistributedConfig small_clock_config() {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 2;
  config.honeypots = 4;
  config.with_top_peer = false;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = 0;  // isolate the clock axis
  return config;
}

void enable_clock_faults(DistributedConfig& config) {
  config.chaos.clock_drift_mtbf = hours(12);
  config.chaos.clock_drift_ppm = 500.0;
  config.chaos.clock_step_mtbf = hours(8);
  config.chaos.clock_step_max = 90.0;
  config.chaos.clock_freeze_mtbf = days(1);
}

/// Per-honeypot sequence of twin-stable identity fields, in merged order.
std::map<std::uint16_t, std::vector<std::uint64_t>> per_hp_users(
    const logbook::LogFile& log) {
  std::map<std::uint16_t, std::vector<std::uint64_t>> out;
  for (const auto& r : log.records) {
    out[r.honeypot].push_back(r.user * 4 +
                              static_cast<std::uint64_t>(r.type));
  }
  return out;
}

TEST(ClockScenario, TwinRunsSameRecordsDifferentStampsOnly) {
  auto config = small_clock_config();
  const auto truth = run_distributed(config);
  EXPECT_EQ(truth.faults.clock_drift_changes, 0u);
  EXPECT_EQ(truth.time_integrity, logbook::TimeIntegrityStats{});

  enable_clock_faults(config);
  const auto skewed = run_distributed(config);
  EXPECT_GT(skewed.faults.clock_drift_changes, 0u);
  EXPECT_GT(skewed.faults.clock_steps, 0u);
  EXPECT_GT(skewed.time_integrity.observations_used, 0u);
  EXPECT_GT(skewed.time_integrity.records_corrected, 0u);

  // Clock faults re-stamp records; they must not change what was recorded.
  ASSERT_EQ(skewed.merged.records.size(), truth.merged.records.size());
  EXPECT_EQ(per_hp_users(skewed.merged), per_hp_users(truth.merged));
  EXPECT_EQ(skewed.recovery.records_spooled, truth.recovery.records_spooled);
}

TEST(ClockScenario, DeterministicForFixedSeed) {
  auto config = small_clock_config();
  enable_clock_faults(config);
  const auto a = run_distributed(config);
  const auto b = run_distributed(config);
  EXPECT_EQ(a.faults.clock_drift_changes, b.faults.clock_drift_changes);
  EXPECT_EQ(a.faults.clock_steps, b.faults.clock_steps);
  EXPECT_EQ(a.faults.clock_freezes, b.faults.clock_freezes);
  EXPECT_EQ(a.time_integrity, b.time_integrity);
  EXPECT_EQ(a.merged.records, b.merged.records);
}

TEST(ClockScenario, CorrectedOrderMatchesTrueOrder) {
  auto config = small_clock_config();
  const auto truth = run_distributed(config);
  enable_clock_faults(config);
  const auto skewed = run_distributed(config);
  ASSERT_EQ(skewed.merged.records.size(), truth.merged.records.size());
  const auto n = truth.merged.records.size();
  ASSERT_GT(n, 200u);

  // True rank of each record, keyed (honeypot, occurrence index) — valid
  // because the twin-run property keeps per-honeypot streams identical.
  std::map<std::uint16_t, std::vector<std::uint64_t>> true_ranks;
  for (std::size_t i = 0; i < n; ++i) {
    true_ranks[truth.merged.records[i].honeypot].push_back(i);
  }
  std::map<std::uint16_t, std::size_t> occ;
  std::vector<std::uint64_t> ranks;
  for (const auto& r : skewed.merged.records) {
    const auto k = occ[r.honeypot]++;
    ASSERT_LT(k, true_ranks[r.honeypot].size());
    ranks.push_back(true_ranks[r.honeypot][k]);
  }
  // O(n^2)/2 pair scan is fine at this scale; same-honeypot pairs cannot
  // invert (k is assigned in merged order), so inversions are cross-hp.
  std::uint64_t cross_pairs = 0, inversions = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (skewed.merged.records[i].honeypot ==
          skewed.merged.records[j].honeypot) {
        continue;
      }
      ++cross_pairs;
      if (ranks[i] > ranks[j]) ++inversions;
    }
  }
  ASSERT_GT(cross_pairs, 0u);
  const double accuracy =
      1.0 - static_cast<double>(inversions) / static_cast<double>(cross_pairs);
  EXPECT_GE(accuracy, 0.999) << inversions << " of " << cross_pairs
                             << " cross-honeypot pairs inverted";
  // Nothing silent: if anything was reordered, the ledger says so.
  if (inversions > 0) {
    EXPECT_GT(skewed.time_integrity.records_corrected, 0u);
  }
}

TEST(ClockScenario, ClockStepInsideManagerOutageSurvivesRecovery) {
  // A clock step landing while the control plane is down must not corrupt
  // the recovered manager's observation ledger: the journal replays the
  // pre-crash sightings, post-recovery polls resume them, and the durable
  // merge still corrects with full accounting.
  auto config = small_clock_config();
  enable_clock_faults(config);
  config.chaos.manager_mtbf = hours(12);
  config.chaos.manager_outage_mean = hours(2);
  const auto r = run_distributed(config);
  EXPECT_GT(r.recovery.manager_recoveries, 0u);
  EXPECT_GT(r.time_integrity.observations_used, 0u);
  EXPECT_GT(r.time_integrity.records_corrected, 0u);
  // Determinism holds through the outage + recovery path too.
  const auto again = run_distributed(config);
  EXPECT_EQ(r.merged.records, again.merged.records);
  EXPECT_EQ(r.time_integrity, again.time_integrity);
}

}  // namespace
}  // namespace edhp::scenario
