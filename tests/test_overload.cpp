// Overload survival: resource budgets, resource-exhaustion faults, and
// prioritized graceful degradation.
//
// The acceptance headline lives here: at the paper's scale, with the spool
// quota cut to HALF the peak an uninterrupted run needs, the published log
// still retains 100% of the evidence records and every dropped record is a
// declared shed (records_shed accounts the gap exactly — zero silent loss).

#include <gtest/gtest.h>

#include "common/budget.hpp"
#include "fault/abuse.hpp"
#include "scenario/scenario.hpp"

namespace edhp {
namespace {

using scenario::DistributedConfig;
using scenario::run_distributed;

// --- DegradeStats ------------------------------------------------------------

TEST(DegradeStats, AccumulateSumsCountersAndMaxesPeak) {
  budget::DegradeStats a;
  a.degrade_enters = 1;
  a.degrade_exits = 2;
  a.records_shed = 3;
  a.compaction_runs = 4;
  a.chunks_compacted = 5;
  a.compaction_bytes_reclaimed = 6;
  a.backpressure_cuts = 7;
  a.spool_cuts_deferred = 8;
  a.sessions_refused = 9;
  a.resends_paced = 10;
  a.quota_overruns = 11;
  a.spool_peak_bytes = 700;
  budget::DegradeStats b = a;
  b.spool_peak_bytes = 300;  // fleet aggregation keeps the per-honeypot MAX
  b += a;
  EXPECT_EQ(b.degrade_enters, 2u);
  EXPECT_EQ(b.degrade_exits, 4u);
  EXPECT_EQ(b.records_shed, 6u);
  EXPECT_EQ(b.compaction_runs, 8u);
  EXPECT_EQ(b.chunks_compacted, 10u);
  EXPECT_EQ(b.compaction_bytes_reclaimed, 12u);
  EXPECT_EQ(b.backpressure_cuts, 14u);
  EXPECT_EQ(b.spool_cuts_deferred, 16u);
  EXPECT_EQ(b.sessions_refused, 18u);
  EXPECT_EQ(b.resends_paced, 20u);
  EXPECT_EQ(b.quota_overruns, 22u);
  EXPECT_EQ(b.spool_peak_bytes, 700u);
}

// --- Scenario-level ----------------------------------------------------------

std::uint64_t hostile_count(const logbook::LogFile& log) {
  std::uint64_t n = 0;
  for (const auto& r : log.records) {
    if (r.user == fault::kAbuseUserWord) ++n;
  }
  return n;
}

std::uint64_t benign_count(const logbook::LogFile& log) {
  return log.records.size() - hostile_count(log);
}

/// A small chaos world shared by the focused scenario tests below.
DistributedConfig small_world() {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 8;
  config.honeypots = 6;
  config.with_top_peer = false;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = 0;  // isolate the resource fault classes
  return config;
}

// Disk faults alone never touch the published dataset: disk_full's quota is
// soft for evidence (overruns are counted, records kept) and disk_slow only
// re-times chunk cuts. The merged log is bit-identical to the fault-free
// run — which also proves the new fault classes draw from fresh RNG splits
// (7/8) and shift nothing else in the world.
TEST(OverloadScenario, DiskFaultsAloneNeverChangeThePublishedLog) {
  DistributedConfig faulty = small_world();
  faulty.chaos.disk_full_mtbf = days(2);
  faulty.chaos.disk_slow_mtbf = days(2);

  const auto with_faults = run_distributed(faulty);
  const auto baseline = run_distributed(small_world());

  ASSERT_GT(with_faults.faults.disk_full_episodes, 0u);
  ASSERT_GT(with_faults.faults.disk_slow_episodes, 0u);
  EXPECT_GT(with_faults.degrade.degrade_enters, 0u);
  EXPECT_GT(with_faults.degrade.degrade_exits, 0u);
  EXPECT_GT(with_faults.degrade.spool_cuts_deferred, 0u);
  EXPECT_EQ(with_faults.degrade.records_shed, 0u);  // nothing abuse-marked
  ASSERT_GT(baseline.merged.records.size(), 100u);
  EXPECT_EQ(with_faults.merged.records, baseline.merged.records);
  EXPECT_EQ(with_faults.merged.names, baseline.merged.names);
}

// mem_pressure is the one resource fault allowed to change observations: it
// freezes (or caps) the concurrent-session ceiling, so peers beyond it are
// refused at accept — the fd-exhaustion analog. Refusals are counted, never
// silent.
TEST(OverloadScenario, MemPressureCapsSessionsAndCountsRefusals) {
  DistributedConfig config = small_world();
  config.scale = 0.02;
  config.chaos.mem_pressure_mtbf = days(1);
  config.chaos.session_ceiling = 1;

  const auto result = run_distributed(config);
  ASSERT_GT(result.faults.mem_pressure_episodes, 0u);
  EXPECT_GT(result.degrade.degrade_enters, 0u);
  EXPECT_GT(result.degrade.sessions_refused, 0u);
  EXPECT_GT(result.merged.records.size(), 0u);
}

// A memory budget forces early backpressure chunk cuts while the control
// plane is crashing and recovering — and the run stays lossless: with no
// abuse traffic there is nothing shed, and the durable merge equals the
// budget-free run's bit-for-bit.
TEST(OverloadScenario, MemBudgetBackpressureIsLosslessAcrossCrashes) {
  DistributedConfig crashy = small_world();
  crashy.scale = 0.02;
  crashy.days = 16;
  crashy.chaos.manager_mtbf = days(4);

  DistributedConfig budgeted = crashy;
  budgeted.chaos.mem_budget_records = 32;

  const auto with_budget = run_distributed(budgeted);
  const auto baseline = run_distributed(crashy);

  ASSERT_GT(with_budget.faults.manager_crashes, 0u);
  EXPECT_GT(with_budget.degrade.backpressure_cuts, 0u);
  EXPECT_EQ(with_budget.degrade.records_shed, 0u);
  ASSERT_GT(baseline.merged.records.size(), 100u);
  EXPECT_EQ(with_budget.merged.records, baseline.merged.records);
}

// The manager's credit window paces recovery resends (at most `credit`
// chunks in flight per honeypot, one more per ack) without giving up the
// PR-4 losslessness guarantee.
TEST(OverloadScenario, CreditWindowPacesRecoveryAndStaysLossless) {
  DistributedConfig crashy = small_world();
  crashy.scale = 0.02;
  crashy.days = 16;
  crashy.honeypots = 12;
  crashy.chaos.manager_mtbf = days(4);
  crashy.chaos.resend_credit = 2;

  DistributedConfig clean = crashy;
  clean.chaos.manager_mtbf = 0;

  const auto paced = run_distributed(crashy);
  const auto baseline = run_distributed(clean);

  ASSERT_GT(paced.faults.manager_crashes, 0u);
  EXPECT_GT(paced.recovery.manager_recoveries, 0u);
  EXPECT_GT(paced.degrade.resends_paced, 0u);
  ASSERT_GT(baseline.merged.records.size(), 100u);
  EXPECT_EQ(paced.merged.records, baseline.merged.records);
  EXPECT_EQ(paced.merged.names, baseline.merged.names);
}

// ACCEPTANCE HEADLINE (ISSUE 5): 24 honeypots, 32 days, control-plane
// crashes every ~8 days, hostile traffic in the mix. Run A is unlimited and
// reports the peak spool footprint; run B gets HALF that as its quota plus
// a resend credit window. B must retain every evidence record A published,
// and the entire record-count gap must equal B's declared shed count —
// degradation is fully declared, loss is never silent.
TEST(OverloadScenario, HalvedSpoolQuotaRetainsEveryEvidenceRecord) {
  DistributedConfig base;
  base.scale = 0.02;
  base.days = 32;
  base.honeypots = 24;
  base.with_top_peer = false;
  base.chaos.enabled = true;
  base.chaos.host_mtbf = 0;
  base.chaos.manager_mtbf = days(8);
  base.abuse.enabled = true;

  const auto a = run_distributed(base);
  ASSERT_GT(a.faults.manager_crashes, 0u);
  ASSERT_GT(a.degrade.spool_peak_bytes, 0u);
  ASSERT_GT(hostile_count(a.merged), 0u);
  ASSERT_GT(benign_count(a.merged), 1000u);

  DistributedConfig limited = base;
  limited.chaos.disk_quota_bytes = a.degrade.spool_peak_bytes / 2;
  limited.chaos.resend_credit = 4;
  const auto b = run_distributed(limited);

  EXPECT_GT(b.degrade.degrade_enters, 0u);
  EXPECT_GT(b.degrade.compaction_runs, 0u);
  EXPECT_LE(b.degrade.spool_peak_bytes, a.degrade.spool_peak_bytes);
  // 100% evidence retention under half the disk.
  EXPECT_EQ(benign_count(b.merged), benign_count(a.merged));
  // Zero silent loss: the entire gap is declared shed.
  ASSERT_GE(a.merged.records.size(), b.merged.records.size());
  EXPECT_EQ(a.merged.records.size() - b.merged.records.size(),
            b.degrade.records_shed);
  EXPECT_GT(b.degrade.records_shed, 0u);
}

}  // namespace
}  // namespace edhp
