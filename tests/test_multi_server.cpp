// Multi-server deployment scenario: survey-driven assignment, per-server
// subpopulations, global-view union.

#include <gtest/gtest.h>

#include "analysis/log_stats.hpp"
#include "campaign_goldens.hpp"
#include "scenario/multi_server.hpp"

namespace edhp::scenario {
namespace {

const MultiServerResult& mini_run() {
  static const MultiServerResult result = [] {
    MultiServerConfig config;
    config.scale = 0.03;
    config.days = 4;
    config.honeypots = 6;
    config.server_sizes = {0.5, 0.3, 0.2};
    config.audit = true;  // the golden below proves auditing is a no-op
    return run_multi_server(config);
  }();
  return result;
}

TEST(MultiServer, SurveyRanksServersBySize) {
  const auto& r = mini_run();
  ASSERT_EQ(r.survey.size(), 3u);
  // Busiest first, matching the configured resident shares.
  EXPECT_EQ(r.survey[0].first, "server-0");
  EXPECT_GE(r.survey[0].second, r.survey[1].second);
  EXPECT_GE(r.survey[1].second, r.survey[2].second);
  EXPECT_GT(r.survey[0].second, 0u);
}

TEST(MultiServer, BusyServersGetMoreHoneypots) {
  const auto& r = mini_run();
  std::vector<int> per_server(3, 0);
  for (auto s : r.server_of_honeypot) {
    ASSERT_LT(s, 3u);
    ++per_server[s];
  }
  EXPECT_GE(per_server[0], per_server[2]);
  EXPECT_GT(per_server[0], 0);
}

TEST(MultiServer, EveryAssignedHoneypotObservesPeers) {
  const auto& r = mini_run();
  ASSERT_EQ(r.peers_per_honeypot.size(), 6u);
  for (std::size_t h = 0; h < r.peers_per_honeypot.size(); ++h) {
    EXPECT_GT(r.peers_per_honeypot[h], 0u) << "honeypot " << h;
  }
}

TEST(MultiServer, UnionExceedsBestSingleHoneypot) {
  const auto& r = mini_run();
  std::uint64_t best = 0;
  for (auto v : r.peers_per_honeypot) best = std::max(best, v);
  EXPECT_GT(r.base.distinct_peers, best);
  // Cross-server observation: honeypots on different servers see largely
  // disjoint subpopulations, so the union is much bigger than any single
  // honeypot's view.
  EXPECT_GT(static_cast<double>(r.base.distinct_peers),
            1.5 * static_cast<double>(best));
}

TEST(MultiServer, HoneypotsOnDifferentServersSeeDifferentPeers) {
  const auto& r = mini_run();
  const auto sets = analysis::peer_sets_by_honeypot(r.base.merged, 6);
  // Find two honeypots on different servers and compare overlap with two on
  // the same server.
  std::optional<std::size_t> a, b_same, b_other;
  for (std::size_t h = 1; h < 6; ++h) {
    if (!a) {
      a = 0;
    }
    if (r.server_of_honeypot[h] == r.server_of_honeypot[0] && !b_same) {
      b_same = h;
    }
    if (r.server_of_honeypot[h] != r.server_of_honeypot[0] && !b_other) {
      b_other = h;
    }
  }
  ASSERT_TRUE(a && b_same && b_other);
  const auto same_overlap = sets[*a].intersect_count(sets[*b_same]);
  const auto cross_overlap = sets[*a].intersect_count(sets[*b_other]);
  // Peers are homed on one server; only peer exchange leaks providers
  // across groups, so same-server overlap must dominate.
  EXPECT_GT(same_overlap, cross_overlap)
      << "same-server honeypots should share far more peers";
}

// Golden baseline: with the fault model disabled (default), the campaign
// must stay bit-identical run over run and across refactors. A change here
// means a dormant code path consumed an RNG draw or reordered events.
TEST(MultiServer, GoldenUnchangedWithFaultsDisabled) {
  const auto& r = mini_run();
  EXPECT_EQ(r.base.merged.records.size(), 12778u);
  EXPECT_EQ(fingerprint(r.base.merged), 0x4187cf786e73a860ull);
  EXPECT_EQ(r.base.observed.distinct, 2382u);
  EXPECT_EQ(r.base.observed.bytes, 853930907371u);
  EXPECT_EQ(r.base.faults.host_crashes, 0u);
  EXPECT_EQ(r.base.recovery.records_lost_tail, 0u);
  // The conservation ledger covers the multi-server fleet too.
  EXPECT_TRUE(r.base.audit.enabled);
  EXPECT_TRUE(r.base.audit.balanced()) << r.base.audit.breakdown();
  EXPECT_EQ(r.base.audit.records_born, r.base.merged.records.size());
}

MultiServerConfig small_config() {
  MultiServerConfig config;
  config.scale = 0.03;
  config.days = 3;
  config.honeypots = 6;
  config.server_sizes = {0.5, 0.3, 0.2};
  config.audit = true;
  return config;
}

// Chaos-on golden: every axis armed at once against several directory
// servers (see test_scenario.cpp for the single-server campaigns). The
// campaign shares the other two's control plane, so the manager relaunches
// crashed honeypots, the merge repairs clock skew and the conservation
// ledger balances here as well.
TEST(MultiServer, GoldenWithEveryChaosAxis) {
  auto config = small_config();
  arm_every_chaos_axis(config);
  const auto r = run_multi_server(config);
  EXPECT_EQ(r.base.merged.records.size(), 8277u);
  EXPECT_EQ(fingerprint(r.base.merged), 0x45d902f9cac9af80ull);
  EXPECT_EQ(r.base.observed.distinct, 98891u);
  EXPECT_EQ(r.base.observed.bytes, 36098868467264u);
  EXPECT_EQ(r.base.recovery.journal_entries, 6356u);
  EXPECT_EQ(r.base.recovery.journal_bytes, 247178u);
  EXPECT_GT(r.base.faults.host_crashes, 0u);
  EXPECT_GT(r.base.relaunches, 0u);
  EXPECT_GT(r.base.time_integrity.observations_used, 0u);
  EXPECT_TRUE(r.base.audit.balanced()) << r.base.audit.breakdown();
  EXPECT_GT(r.base.audit.accounted(), 0u);
}

// The chaos link knobs reach the multi-server network: the manager's UDP
// survey datagrams are duplicated in flight.
TEST(MultiServer, HonoursChaosLinkKnobs) {
  auto config = small_config();
  config.days = 1;
  config.chaos.link_dup = 0.99;
  const auto r = run_multi_server(config);
  EXPECT_GT(r.base.net_totals.datagrams_duplicated, 0u);
  EXPECT_TRUE(r.base.audit.balanced()) << r.base.audit.breakdown();
}

// Third leg of the lazy-vs-eager determinism contract (distributed and
// greedy live in test_scenario.cpp): eager materialization must reproduce
// the lazy campaign — and therefore the golden fingerprint — bit for bit.
TEST(MultiServer, LazyAndEagerCampaignsProduceIdenticalDatasets) {
  MultiServerConfig config;
  config.scale = 0.03;
  config.days = 4;
  config.honeypots = 6;
  config.server_sizes = {0.5, 0.3, 0.2};
  config.population_mode = peer::PopulationMode::legacy_eager;
  const auto eager = run_multi_server(config);
  const auto& lazy = mini_run();  // default mode is lazy
  ASSERT_EQ(eager.base.merged.records.size(),
            lazy.base.merged.records.size());
  for (std::size_t i = 0; i < eager.base.merged.records.size(); ++i) {
    const auto& a = eager.base.merged.records[i];
    const auto& b = lazy.base.merged.records[i];
    ASSERT_EQ(a.timestamp, b.timestamp) << "record " << i;
    ASSERT_EQ(a.peer, b.peer) << "record " << i;
    ASSERT_EQ(a.user, b.user) << "record " << i;
    ASSERT_EQ(a.honeypot, b.honeypot) << "record " << i;
    ASSERT_EQ(a.type, b.type) << "record " << i;
  }
  EXPECT_EQ(eager.base.net_nodes_retired, 0u);
  EXPECT_GT(lazy.base.net_nodes_retired, 0u);
}

TEST(MultiServer, MergedLogIsStage2AndOrdered) {
  const auto& r = mini_run();
  EXPECT_EQ(r.base.merged.header.peer_kind, logbook::PeerIdKind::stage2_index);
  for (std::size_t i = 1; i < r.base.merged.records.size(); ++i) {
    EXPECT_LE(r.base.merged.records[i - 1].timestamp,
              r.base.merged.records[i].timestamp);
  }
}

}  // namespace
}  // namespace edhp::scenario
