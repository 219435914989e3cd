// Integration tests: full measurement scenarios at miniature scale,
// asserting the qualitative properties of every figure the paper reports.

#include <gtest/gtest.h>

#include "analysis/log_stats.hpp"
#include "analysis/subsets.hpp"
#include "campaign_goldens.hpp"
#include "scenario/scenario.hpp"

namespace edhp::scenario {
namespace {

/// One shared miniature distributed run (scenarios are deterministic, so a
/// single run serves every assertion).
const ScenarioResult& mini_distributed() {
  static const ScenarioResult result = [] {
    DistributedConfig config;
    config.scale = 0.02;
    config.days = 8;
    config.honeypots = 8;
    config.audit = true;  // golden fingerprints prove auditing is a no-op
    return run_distributed(config);
  }();
  return result;
}

const ScenarioResult& mini_greedy() {
  static const ScenarioResult result = [] {
    GreedyConfig config;
    config.scale = 0.05;
    config.days = 5;
    config.audit = true;
    return run_greedy(config);
  }();
  return result;
}

TEST(DistributedScenario, ProducesAnonymisedMergedLog) {
  const auto& r = mini_distributed();
  EXPECT_EQ(r.merged.header.peer_kind, logbook::PeerIdKind::stage2_index);
  EXPECT_GT(r.merged.records.size(), 1000u);
  EXPECT_GT(r.distinct_peers, 100u);
  // Stage-2 peers are dense integers.
  for (const auto& rec : r.merged.records) {
    EXPECT_LT(rec.peer, r.distinct_peers);
  }
}

TEST(DistributedScenario, LogIsTimeOrdered) {
  const auto& r = mini_distributed();
  for (std::size_t i = 1; i < r.merged.records.size(); ++i) {
    EXPECT_LE(r.merged.records[i - 1].timestamp, r.merged.records[i].timestamp);
  }
}

TEST(DistributedScenario, AllThreeQueryTypesLogged) {
  const auto& r = mini_distributed();
  std::array<std::uint64_t, 3> counts{};
  for (const auto& rec : r.merged.records) {
    counts[static_cast<std::size_t>(rec.type)]++;
  }
  EXPECT_GT(counts[0], 0u);  // HELLO
  EXPECT_GT(counts[1], 0u);  // START-UPLOAD
  EXPECT_GT(counts[2], 0u);  // REQUEST-PART
  // HELLO outnumbers START-UPLOAD; REQUEST-PART outnumbers both (paper).
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[2], counts[1]);
}

TEST(DistributedScenario, EveryHoneypotObservesPeers) {
  const auto& r = mini_distributed();
  const auto sets = analysis::peer_sets_by_honeypot(r.merged, r.honeypots);
  for (std::size_t h = 0; h < sets.size(); ++h) {
    EXPECT_GT(sets[h].count(), 0u) << "honeypot " << h << " observed nothing";
  }
}

TEST(DistributedScenario, Fig2GrowthContinuesThroughMeasurement) {
  const auto& r = mini_distributed();
  const auto series = analysis::distinct_peers_by_day(
      r.merged, std::nullopt, static_cast<std::size_t>(r.days));
  // New peers appear on every day, including the last.
  for (std::size_t d = 0; d < series.fresh.size(); ++d) {
    EXPECT_GT(series.fresh[d], 0u) << "day " << d;
  }
  EXPECT_EQ(series.total, r.distinct_peers);
}

TEST(DistributedScenario, Fig4DayNightOscillation) {
  const auto& r = mini_distributed();
  const auto hours_total = static_cast<std::size_t>(r.days * 24);
  const auto hourly = analysis::messages_by_hour(
      r.merged, logbook::QueryType::hello, hours_total);
  double day = 0, night = 0;
  std::size_t dn = 0, nn = 0;
  for (std::size_t h = 24; h < hours_total; ++h) {
    const double hod = hour_of_day(static_cast<double>(h) * kHour + 1800);
    if (hod >= 12 && hod < 22) {
      day += static_cast<double>(hourly[h]);
      ++dn;
    } else if (hod < 7) {
      night += static_cast<double>(hourly[h]);
      ++nn;
    }
  }
  ASSERT_GT(dn, 0u);
  ASSERT_GT(nn, 0u);
  EXPECT_GT(day / static_cast<double>(dn), 1.3 * night / static_cast<double>(nn));
}

TEST(DistributedScenario, Fig5RandomContentObservesMorePeers) {
  const auto& r = mini_distributed();
  const auto days = static_cast<std::size_t>(r.days);
  const auto rc = analysis::distinct_peers_by_day(
      r.merged, logbook::QueryType::hello, days, strategy_filter(r, true));
  const auto nc = analysis::distinct_peers_by_day(
      r.merged, logbook::QueryType::hello, days, strategy_filter(r, false));
  EXPECT_GT(rc.total, nc.total);
}

TEST(DistributedScenario, Fig7RandomContentReceivesMoreRequestParts) {
  const auto& r = mini_distributed();
  const auto days = static_cast<std::size_t>(r.days);
  const auto rc = analysis::cumulative_messages_by_day(
      r.merged, logbook::QueryType::request_part, days, strategy_filter(r, true));
  const auto nc = analysis::cumulative_messages_by_day(
      r.merged, logbook::QueryType::request_part, days, strategy_filter(r, false));
  EXPECT_GT(rc.back(), nc.back());
}

TEST(DistributedScenario, Fig8TopPeerPrefersRandomContent) {
  const auto& r = mini_distributed();
  const auto top = analysis::most_active_peer(r.merged);
  ASSERT_TRUE(top.has_value());
  const auto days = static_cast<std::size_t>(r.days);
  const auto rc = analysis::peer_messages_by_day(
      r.merged, *top, logbook::QueryType::start_upload, days,
      strategy_filter(r, true));
  const auto nc = analysis::peer_messages_by_day(
      r.merged, *top, logbook::QueryType::start_upload, days,
      strategy_filter(r, false));
  EXPECT_GT(rc.back(), nc.back());
  EXPECT_GT(nc.back(), 0u);
}

TEST(DistributedScenario, Fig10CurveConcaveAndAnchored) {
  const auto& r = mini_distributed();
  const auto sets = analysis::peer_sets_by_honeypot(r.merged, r.honeypots);
  const auto curve = analysis::subset_union_curve(sets, 50, Rng(1));
  ASSERT_EQ(curve.size(), r.honeypots);
  // Anchors: n = all honeypots equals the global distinct count.
  EXPECT_EQ(curve.min.back(), r.distinct_peers);
  EXPECT_EQ(curve.max.back(), r.distinct_peers);
  // Diminishing returns: first honeypot adds more than the last.
  const double first_gain = curve.avg[0];
  const double last_gain = curve.avg[curve.size() - 1] - curve.avg[curve.size() - 2];
  EXPECT_GT(first_gain, last_gain);
  EXPECT_GT(last_gain, 0.0);
}

TEST(DistributedScenario, BlacklistReputationOrdering) {
  const auto& r = mini_distributed();
  EXPECT_GT(r.blacklist_reports, 0u);
  EXPECT_LT(r.reputation_no_content, r.reputation_random_content);
}

TEST(DistributedScenario, ObservedFilesAggregated) {
  const auto& r = mini_distributed();
  EXPECT_GT(r.observed.distinct, 0u);
  EXPECT_GT(r.observed.bytes, 0u);
}

TEST(GreedyScenario, HarvestGrowsAdvertisedList) {
  const auto& r = mini_greedy();
  EXPECT_GT(r.advertised_files, 50u);
  EXPECT_EQ(r.advertised_ids.size(), r.advertised_files);
  EXPECT_GT(r.distinct_peers, 500u);
}

TEST(GreedyScenario, Fig3InitialisationPhase) {
  const auto& r = mini_greedy();
  const auto series = analysis::distinct_peers_by_day(
      r.merged, std::nullopt, static_cast<std::size_t>(r.days));
  // Day 1 is the harvest phase: far fewer new peers than steady state.
  ASSERT_GE(series.fresh.size(), 3u);
  const double steady =
      static_cast<double>(series.fresh[2] + series.fresh.back()) / 2.0;
  EXPECT_LT(static_cast<double>(series.fresh[0]), steady);
  EXPECT_GT(series.fresh[0], 0u);
}

TEST(GreedyScenario, Fig11PerFileCurveGrowsSteadily) {
  const auto& r = mini_greedy();
  const std::size_t n_files = std::min<std::size_t>(30, r.advertised_ids.size());
  std::vector<FileId> chosen(r.advertised_ids.begin(),
                             r.advertised_ids.begin() +
                                 static_cast<std::ptrdiff_t>(n_files));
  const auto sets = analysis::peer_sets_by_file(r.merged, chosen);
  const auto curve = analysis::subset_union_curve(sets, 40, Rng(9));
  // Adding files keeps adding peers (near-linear growth in the paper).
  EXPECT_GT(curve.avg.back(), curve.avg[n_files / 2]);
  EXPECT_GT(curve.avg[n_files / 2], curve.avg[0]);
}

TEST(GreedyScenario, Fig12PopularityIsSkewed) {
  const auto& r = mini_greedy();
  const auto pop = analysis::file_popularity(r.merged);
  ASSERT_GT(pop.size(), 10u);
  // Heavy-tailed per-file interest: the top file dwarfs the median.
  EXPECT_GT(pop.front().peers, 4 * pop[pop.size() / 2].peers);
}

// The greedy honeypot sends no content, so peers detect and report it just
// as they report the distributed no-content group.
TEST(GreedyScenario, NoContentHoneypotGetsBlacklisted) {
  const auto& r = mini_greedy();
  EXPECT_GT(r.blacklist_reports, 0u);
  EXPECT_LT(r.reputation_no_content, 1.0);
  EXPECT_EQ(r.reputation_random_content, 1.0);  // no such group
}

// Golden baselines: with the fault model disabled (the default), the merged
// logs must stay bit-identical to the pre-fault-subsystem seed. A change
// here means some dormant code path consumed an RNG draw or reordered
// events — treat it as a regression, not a baseline refresh.
TEST(Scenarios, GoldenDistributedUnchangedWithFaultsDisabled) {
  const auto& r = mini_distributed();
  EXPECT_EQ(r.merged.records.size(), 28945u);
  EXPECT_EQ(fingerprint(r.merged), 0xad6b1b6fa123723aull);
  EXPECT_EQ(r.observed.distinct, 2637u);
  EXPECT_EQ(r.observed.bytes, 934041255808u);
  // Dormant fault machinery left no trace.
  EXPECT_EQ(r.faults.host_crashes + r.faults.uplink_outages +
                r.faults.server_restarts,
            0u);
  EXPECT_EQ(r.recovery.records_lost_tail, 0u);
  EXPECT_EQ(r.recovery.retained_fraction, 1.0);
  // The fixture is audited (and the fingerprints above still match the
  // pre-audit seed): the conservation ledger balances with every record in
  // exactly one disposition — here, all of them merged.
  EXPECT_TRUE(r.audit.enabled);
  EXPECT_TRUE(r.audit.balanced()) << r.audit.breakdown();
  EXPECT_EQ(r.audit.records_born, r.merged.records.size());
  EXPECT_EQ(r.audit.accounted(), 0u);
}

TEST(Scenarios, GoldenGreedyUnchangedWithFaultsDisabled) {
  const auto& r = mini_greedy();
  EXPECT_EQ(r.merged.records.size(), 479288u);
  EXPECT_EQ(fingerprint(r.merged), 0x7fe276d7b5708429ull);
  EXPECT_EQ(r.observed.distinct, 19181u);
  EXPECT_EQ(r.observed.bytes, 6999926281134u);
  EXPECT_TRUE(r.audit.balanced()) << r.audit.breakdown();
  EXPECT_EQ(r.audit.records_born, r.merged.records.size());
}

// Chaos-on goldens: every axis armed at once (host/uplink/server/manager
// churn, abuse, Byzantine lies, clock faults, resource budgets and faults).
// Each adversary draws from its own split of the engine RNG, so these pin
// the order in which a campaign wires its world, fleet and injectors.
TEST(Scenarios, GoldenDistributedWithEveryChaosAxis) {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 3;
  config.honeypots = 4;
  config.with_top_peer = false;
  config.audit = true;
  arm_every_chaos_axis(config);
  const auto r = run_distributed(config);
  EXPECT_EQ(r.merged.records.size(), 3013u);
  EXPECT_EQ(fingerprint(r.merged), 0x527ca2b987341e29ull);
  EXPECT_EQ(r.observed.distinct, 55882u);
  EXPECT_EQ(r.observed.bytes, 20504752514437u);
  EXPECT_EQ(r.recovery.journal_entries, 3527u);
  EXPECT_EQ(r.recovery.journal_bytes, 150999u);
  EXPECT_TRUE(r.audit.balanced()) << r.audit.breakdown();
}

TEST(Scenarios, GoldenGreedyWithEveryChaosAxis) {
  GreedyConfig config;
  config.scale = 0.02;
  config.days = 3;
  config.audit = true;
  arm_every_chaos_axis(config);
  const auto r = run_greedy(config);
  EXPECT_EQ(r.merged.records.size(), 283381u);
  EXPECT_EQ(fingerprint(r.merged), 0x94e825ffe2c3aad5ull);
  EXPECT_EQ(r.observed.distinct, 30951u);
  EXPECT_EQ(r.observed.bytes, 11310442560125u);
  EXPECT_EQ(r.recovery.journal_entries, 1451u);
  EXPECT_EQ(r.recovery.journal_bytes, 75533u);
  EXPECT_TRUE(r.audit.balanced()) << r.audit.breakdown();
}

TEST(Scenarios, DeterministicForFixedSeed) {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 2;
  config.honeypots = 4;
  config.with_top_peer = false;
  const auto a = run_distributed(config);
  const auto b = run_distributed(config);
  EXPECT_EQ(a.merged.records.size(), b.merged.records.size());
  EXPECT_EQ(a.distinct_peers, b.distinct_peers);
  EXPECT_EQ(a.merged.records, b.merged.records);
}

// The lazy slab (the default) and the historical eager map must produce the
// same campaign bit-for-bit: materialization strategy is invisible to the
// RNG stream and the event order. The golden tests above already pin the
// lazy path to the seed fingerprints; these pin eager == lazy directly.
TEST(Scenarios, LazyAndEagerPopulationsProduceIdenticalDatasets) {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 3;
  config.honeypots = 4;
  const auto lazy = run_distributed(config);
  config.population_mode = peer::PopulationMode::legacy_eager;
  const auto eager = run_distributed(config);
  EXPECT_EQ(lazy.merged.records.size(), eager.merged.records.size());
  EXPECT_EQ(fingerprint(lazy.merged), fingerprint(eager.merged));
  EXPECT_EQ(lazy.population_arrivals, eager.population_arrivals);
  EXPECT_EQ(lazy.peer_totals.sessions, eager.peer_totals.sessions);
  // ...while the memory behaviour diverges as designed.
  EXPECT_GT(lazy.net_nodes_retired, 0u);
  EXPECT_EQ(eager.net_nodes_retired, 0u);
  EXPECT_GT(lazy.population_slab_slots, 0u);
  EXPECT_EQ(eager.population_slab_slots, 0u);
  EXPECT_LT(lazy.population_slab_slots, lazy.population_arrivals);
}

// The hardest parity case: every adversarial subsystem at once. Chaos
// churn, abuse traffic and Byzantine lies all draw from their own split
// streams and schedule against the same engine, so the materialization
// strategy must stay invisible even while hosts crash, liars connect and
// the defense excludes records.
TEST(Scenarios, ChaosAbuseByzantineParityAcrossPopulationModes) {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 3;
  config.honeypots = 4;
  config.with_top_peer = false;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = hours(18);
  config.chaos.uplink_mtbf = hours(16);
  config.chaos.server_mtbf = days(2);
  config.abuse.enabled = true;
  auto& b = config.chaos.byzantine;
  b.enabled = true;
  b.offer_drop_mtbf = hours(12);
  b.stale_index_mtbf = hours(12);
  b.fabricate_mtbf = hours(12);
  b.forge_list_mtba = hours(4);
  b.replay_hello_mtba = hours(4);

  const auto lazy = run_distributed(config);
  config.population_mode = peer::PopulationMode::legacy_eager;
  const auto eager = run_distributed(config);

  // The run genuinely exercised all three adversaries.
  EXPECT_GT(lazy.faults.host_crashes, 0u);
  EXPECT_GT(lazy.abuse.connections_opened, 0u);
  EXPECT_GT(lazy.byzantine.forged_lists_sent, 0u);

  EXPECT_EQ(lazy.merged.records.size(), eager.merged.records.size());
  EXPECT_EQ(fingerprint(lazy.merged), fingerprint(eager.merged));
  EXPECT_EQ(lazy.integrity.records_excluded, eager.integrity.records_excluded);
  EXPECT_EQ(lazy.byzantine.messages_sent, eager.byzantine.messages_sent);
}

TEST(Scenarios, LazyAndEagerGreedyCampaignsProduceIdenticalDatasets) {
  GreedyConfig config;
  config.scale = 0.02;
  config.days = 3;
  const auto lazy = run_greedy(config);
  config.population_mode = peer::PopulationMode::legacy_eager;
  const auto eager = run_greedy(config);
  EXPECT_EQ(lazy.merged.records.size(), eager.merged.records.size());
  EXPECT_EQ(fingerprint(lazy.merged), fingerprint(eager.merged));
  EXPECT_EQ(lazy.population_arrivals, eager.population_arrivals);
}

// Record streaming folds the dataset into count + fingerprint instead of
// retaining it: the counters must match what an identical non-streaming run
// publishes, record for record.
TEST(Scenarios, StreamedRecordCountMatchesRetainedDataset) {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 3;
  config.honeypots = 4;
  const auto retained = run_distributed(config);
  config.stream_records = true;
  const auto streamed = run_distributed(config);
  EXPECT_EQ(streamed.merged.records.size(), 0u);
  EXPECT_EQ(streamed.records_streamed, retained.merged.records.size());
  EXPECT_NE(streamed.stream_fingerprint, 0u);
  // Campaign bits are otherwise untouched: the peers behaved identically.
  EXPECT_EQ(streamed.population_arrivals, retained.population_arrivals);
  EXPECT_EQ(streamed.peer_totals.sessions, retained.peer_totals.sessions);
}

TEST(Scenarios, PopulationOverrideScalesPoolsNotRates) {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 2;
  config.honeypots = 4;
  config.with_top_peer = false;
  const auto baseline = run_distributed(config);

  // A tiny override caps the interested pools: arrivals hit the ceiling.
  config.population_override = 40;
  const auto capped = run_distributed(config);
  EXPECT_LE(capped.population_arrivals, 40u);
  EXPECT_GT(capped.population_arrivals, 15u);
  EXPECT_LT(capped.population_arrivals, baseline.population_arrivals);

  // A huge override only raises the never-binding ceilings — the campaign
  // is bit-identical to the baseline (rates untouched, same RNG stream),
  // which is exactly why a million-peer interested population is free.
  config.population_override = 100000;
  const auto huge = run_distributed(config);
  EXPECT_EQ(huge.population_arrivals, baseline.population_arrivals);
  EXPECT_EQ(fingerprint(huge.merged), fingerprint(baseline.merged));
}

TEST(Scenarios, SeedChangesOutcome) {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 2;
  config.honeypots = 4;
  config.with_top_peer = false;
  const auto a = run_distributed(config);
  config.seed += 1;
  const auto b = run_distributed(config);
  EXPECT_NE(a.merged.records, b.merged.records);
}

}  // namespace
}  // namespace edhp::scenario
