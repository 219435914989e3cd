// Randomized property sweeps (parameterized over seeds) for cross-module
// invariants: simulation ordering, log serialization/merging/renumbering,
// and subset-curve anchors.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/log_stats.hpp"
#include "analysis/subsets.hpp"
#include "anonymize/renumber.hpp"
#include "common/rng.hpp"
#include "logbook/log_io.hpp"
#include "logbook/merge.hpp"
#include "sim/simulation.hpp"

namespace edhp {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 7, 42, 1234, 99991, 31337, 2008,
                                           0xDEADBEEF));

// --- Simulation: random schedules execute in nondecreasing time order -----

TEST_P(SeededProperty, SimulationExecutesChronologically) {
  Rng rng(GetParam());
  sim::Simulation s;
  std::vector<double> executed_at;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.uniform(0, 1000);
    handles.push_back(s.schedule_at(t, [&executed_at, &s] {
      executed_at.push_back(s.now());
    }));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (const auto& h : handles) {
    if (rng.chance(1.0 / 3)) {
      s.cancel(h);
      ++cancelled;
    }
  }
  s.run();
  EXPECT_EQ(executed_at.size(), 500 - cancelled);
  EXPECT_TRUE(std::is_sorted(executed_at.begin(), executed_at.end()));
}

// --- Logbook: arbitrary logs survive serialization and merging -------------

logbook::LogFile random_log(Rng& rng, std::uint16_t hp) {
  logbook::LogFile log;
  log.header.honeypot = hp;
  log.header.honeypot_name = "hp-" + std::to_string(hp);
  log.header.strategy = rng.chance(0.5) ? "no-content" : "random-content";
  log.header.server_ip = static_cast<std::uint32_t>(rng());
  std::vector<std::uint16_t> refs{0};
  for (int n = 0; n < 3; ++n) {
    refs.push_back(log.intern("client-" + std::to_string(rng.below(5))));
  }
  const auto records = rng.below(200);
  double t = 0;
  for (std::uint64_t i = 0; i < records; ++i) {
    logbook::LogRecord r;
    t += rng.exponential(60);
    r.timestamp = t;
    r.honeypot = hp;
    r.peer = rng.below(50);  // small id space forces cross-log collisions
    r.user = rng();
    r.type = static_cast<logbook::QueryType>(rng.below(3));
    r.peer_port = static_cast<std::uint16_t>(rng());
    r.name_ref = refs[rng.below(refs.size())];
    r.client_version = static_cast<std::uint32_t>(rng.below(100));
    r.flags = static_cast<std::uint8_t>(rng.below(4));
    if (r.has_file()) {
      r.file = FileId::from_words(rng.below(20), 1);
    } else {
      r.file = FileId{};
    }
    log.records.push_back(r);
  }
  return log;
}

TEST_P(SeededProperty, LogBinaryRoundTripIsIdentity) {
  Rng rng(GetParam() * 3 + 1);
  const auto log = random_log(rng, 3);
  std::stringstream buffer;
  logbook::write_binary(buffer, log);
  EXPECT_EQ(logbook::read_binary(buffer), log);
}

TEST_P(SeededProperty, MergePreservesEveryRecord) {
  Rng rng(GetParam() * 5 + 2);
  std::vector<logbook::LogFile> logs;
  std::size_t total = 0;
  const auto n_logs = 1 + rng.below(5);
  for (std::uint64_t i = 0; i < n_logs; ++i) {
    logs.push_back(random_log(rng, static_cast<std::uint16_t>(i)));
    total += logs.back().records.size();
  }
  const auto merged = logbook::merge_logs(logbook::borrow(logs));
  EXPECT_EQ(merged.records.size(), total);
  // Ordered by (timestamp, honeypot).
  for (std::size_t i = 1; i < merged.records.size(); ++i) {
    const auto& a = merged.records[i - 1];
    const auto& b = merged.records[i];
    EXPECT_TRUE(a.timestamp < b.timestamp ||
                (a.timestamp == b.timestamp && a.honeypot <= b.honeypot));
  }
  // Per-honeypot record counts conserved, and name strings resolve the same.
  for (std::uint64_t i = 0; i < n_logs; ++i) {
    std::size_t count = 0;
    for (const auto& r : merged.records) {
      if (r.honeypot == i) ++count;
    }
    EXPECT_EQ(count, logs[i].records.size());
  }
}

TEST_P(SeededProperty, RenumberingIsDenseAndCoherent) {
  Rng rng(GetParam() * 7 + 3);
  std::vector<logbook::LogFile> logs;
  const auto n_logs = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < n_logs; ++i) {
    logs.push_back(random_log(rng, static_cast<std::uint16_t>(i)));
  }
  // Remember hash -> (first seen) to verify coherence afterwards.
  std::vector<std::vector<std::uint64_t>> original;
  for (const auto& log : logs) {
    original.emplace_back();
    for (const auto& r : log.records) {
      original.back().push_back(r.peer);
    }
  }
  anonymize::PeerMapping mapping;
  const auto distinct =
      anonymize::renumber_peers(std::span<logbook::LogFile>(logs), &mapping);

  // Dense: every assigned id < distinct; coherent: same hash -> same id.
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  for (std::size_t l = 0; l < logs.size(); ++l) {
    for (std::size_t i = 0; i < logs[l].records.size(); ++i) {
      const auto id = logs[l].records[i].peer;
      EXPECT_LT(id, distinct);
      auto [it, inserted] = seen.try_emplace(original[l][i], id);
      EXPECT_EQ(it->second, id) << "hash mapped to two different ids";
    }
  }
  EXPECT_EQ(seen.size(), distinct);
  EXPECT_EQ(mapping.size(), distinct);
}

// --- Subset curves: anchors and monotonicity on random inputs --------------

TEST_P(SeededProperty, SubsetCurveAnchorsHold) {
  Rng rng(GetParam() * 11 + 5);
  const auto n_sets = 2 + rng.below(12);
  const std::size_t universe = 64 + rng.below(500);
  std::vector<analysis::DynBitset> sets(n_sets, analysis::DynBitset(universe));
  analysis::DynBitset all(universe);
  for (auto& set : sets) {
    const auto members = rng.below(universe / 2);
    for (std::uint64_t m = 0; m < members; ++m) {
      const auto v = rng.below(universe);
      set.set(v);
      all.set(v);
    }
  }
  const auto curve = analysis::subset_union_curve(sets, 40, Rng(GetParam()));
  ASSERT_EQ(curve.size(), n_sets);
  // The full prefix is exactly the union of everything, in every sample.
  EXPECT_EQ(curve.min.back(), all.count());
  EXPECT_EQ(curve.max.back(), all.count());
  // min <= avg <= max and all monotone in n.
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_LE(static_cast<double>(curve.min[i]), curve.avg[i] + 1e-9);
    EXPECT_GE(static_cast<double>(curve.max[i]) + 1e-9, curve.avg[i]);
    if (i > 0) {
      EXPECT_GE(curve.avg[i], curve.avg[i - 1]);
    }
  }
}

// --- Distinct series: cumulative equals running sum of fresh ----------------

TEST_P(SeededProperty, DistinctSeriesInternallyConsistent) {
  Rng rng(GetParam() * 13 + 7);
  auto log = random_log(rng, 0);
  log.header.peer_kind = logbook::PeerIdKind::stage2_index;
  const std::size_t days = 5;
  const auto series =
      analysis::distinct_peers_by_day(log, std::nullopt, days);
  std::uint64_t acc = 0;
  for (std::size_t d = 0; d < days; ++d) {
    acc += series.fresh[d];
    EXPECT_EQ(series.cumulative[d], acc);
  }
  EXPECT_LE(series.total, 50u);  // bounded by the record id space
  EXPECT_EQ(series.cumulative.back(), series.total);
}

}  // namespace
}  // namespace edhp
