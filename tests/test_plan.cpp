// The adversary plans of the fault, abuse and Byzantine axes: each axis's
// event sequence pinned for one fixed configuration with every class on,
// plus the renewal-window and late-arm guarantees the three axes share.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "fault/abuse.hpp"
#include "fault/byzantine.hpp"
#include "fault/fault.hpp"

namespace edhp::fault {
namespace {

/// FNV-1a over the little-endian bytes of each event field, in order.
class EventDigest {
 public:
  void add(Time at, std::uint8_t kind, std::uint32_t subject,
           double magnitude) {
    bytes(std::bit_cast<std::uint64_t>(at), 8);
    bytes(kind, 1);
    bytes(subject, 4);
    bytes(std::bit_cast<std::uint64_t>(magnitude), 8);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void bytes(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

// --- Pinned event sequences ------------------------------------------------
// Each pin fails on any reordered, added or dropped draw, on a changed split
// index and on a changed tie order, none of which a whole-campaign golden
// would attribute to its plan.

TEST(FaultPlan, EventSequenceIsPinned) {
  ChaosConfig config;
  config.enabled = true;
  config.host_mtbf = days(2);
  config.uplink_mtbf = days(3);
  config.server_mtbf = days(2);
  config.latency_spike_mtbf = days(2);
  config.partition_mtbf = days(2);
  config.manager_mtbf = days(3);
  config.disk_full_mtbf = days(3);
  config.disk_slow_mtbf = days(3);
  config.mem_pressure_mtbf = days(3);
  config.clock_drift_mtbf = days(2);
  config.clock_step_mtbf = days(2);
  config.clock_freeze_mtbf = days(3);
  const auto plan = make_plan(config, 6, 2, days(8), Rng(2026));
  EventDigest digest;
  for (const auto& e : plan.events()) {
    digest.add(e.at, static_cast<std::uint8_t>(e.kind), e.subject,
               e.magnitude);
  }
  EXPECT_EQ(plan.size(), 313u);
  EXPECT_EQ(digest.value(), 0xd2cdd7127dd6e881ull);
}

TEST(AbusePlan, EventSequenceIsPinned) {
  AbuseConfig config;  // every class on by default
  config.enabled = true;
  config.intensity = 1.5;
  const auto plan = make_plan(config, 6, 2, days(2), Rng(2026));
  EventDigest digest;
  for (const auto& e : plan.events()) {
    digest.add(e.at, static_cast<std::uint8_t>(e.kind), e.subject,
               e.magnitude);
  }
  EXPECT_EQ(plan.size(), 392u);
  EXPECT_EQ(digest.value(), 0x6a9aebf0200e6964ull);
}

TEST(ByzantinePlan, EventSequenceIsPinned) {
  ByzantineConfig config;
  config.enabled = true;
  config.offer_drop_mtbf = days(2);
  config.offer_truncate_mtbf = days(2);
  config.stale_index_mtbf = days(2);
  config.fabricate_mtbf = days(2);
  config.corrupt_search_mtbf = days(2);
  config.forge_list_mtba = hours(12);
  config.replay_hello_mtba = hours(12);
  const auto plan = make_plan(config, 6, 3, days(8), Rng(2026));
  EventDigest digest;
  for (const auto& e : plan.events()) {
    digest.add(e.at, static_cast<std::uint8_t>(e.kind), e.subject,
               e.magnitude);
  }
  EXPECT_EQ(plan.size(), 291u);
  EXPECT_EQ(digest.value(), 0xe5c6023799798f6eull);
}

// --- Shared generator and scheduler ------------------------------------------

// Renewal windows: per subject, begin and end alternate; a repair drawn
// shorter than a second is clamped to one; nothing lands at or past the
// horizon; and a window that crosses the horizon emits no end.
TEST(FaultPlan, RenewalWindowsClampToOneSecondAndStopAtHorizon) {
  ChaosConfig config;
  config.enabled = true;
  config.host_mtbf = hours(1);
  config.host_reboot_mean = 0.01;
  config.uplink_mtbf = hours(6);
  config.uplink_outage_mean = days(365);  // every outage outlives the run
  const Duration horizon = days(2);
  const auto plan = make_plan(config, 4, 1, horizon, Rng(17));

  std::map<std::pair<std::uint32_t, bool>, std::vector<FaultEvent>> windows;
  for (const auto& e : plan.events()) {
    EXPECT_LT(e.at, horizon);
    const bool uplink =
        e.kind == FaultKind::uplink_down || e.kind == FaultKind::uplink_up;
    windows[{e.subject, uplink}].push_back(e);
  }
  ASSERT_EQ(windows.size(), 8u);  // both classes fired on every host
  for (const auto& [key, events] : windows) {
    const bool uplink = key.second;
    const FaultKind begin =
        uplink ? FaultKind::uplink_down : FaultKind::host_crash;
    const FaultKind end = uplink ? FaultKind::uplink_up : FaultKind::host_reboot;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].kind, i % 2 == 0 ? begin : end);
      if (i % 2 == 1) {
        EXPECT_GE(events[i].at, events[i - 1].at + 1.0);
      }
    }
    if (uplink) {
      // The first outage crosses the horizon: one begin, never an end.
      EXPECT_EQ(events.size(), 1u);
    } else {
      EXPECT_GT(events.size(), 20u);
      // A crash without its reboot is one whose clamped window crossed the
      // horizon.
      if (events.size() % 2 == 1) {
        EXPECT_GE(events.back().at + 1.0, horizon);
      }
    }
  }
}

// --- NaN and infinity in a config built in code ------------------------------
// The flag and repro parsers reject non-finite numbers, but benches,
// ablations and tests set config fields directly. A NaN rate draws nothing,
// like zero, and a NaN or infinite horizon gives an empty plan: `t >=
// horizon` never holds for either, so a generator that let one through
// would grow its event vector until the allocator gave up.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultPlan, NanMtbfDrawsNothingAndNanHorizonIsEmpty) {
  ChaosConfig config;
  config.enabled = true;
  config.host_mtbf = kNaN;
  config.uplink_mtbf = days(1);
  const auto plan = make_plan(config, 4, 1, days(4), Rng(3));
  EXPECT_FALSE(plan.empty());
  for (const auto& e : plan.events()) {
    EXPECT_TRUE(e.kind == FaultKind::uplink_down ||
                e.kind == FaultKind::uplink_up);
  }
  config.host_mtbf = days(1);
  EXPECT_TRUE(make_plan(config, 4, 1, kNaN, Rng(3)).empty());
}

TEST(FaultPlan, InfiniteHorizonIsEmpty) {
  ChaosConfig config;
  config.enabled = true;
  config.host_mtbf = days(1);
  ASSERT_FALSE(make_plan(config, 2, 1, days(4), Rng(1)).empty());
  EXPECT_TRUE(make_plan(config, 2, 1, kInf, Rng(1)).empty());
}

TEST(AbusePlan, NanGapOrIntensityDrawsNothingAndNanHorizonIsEmpty) {
  AbuseConfig config;  // every class on by default
  config.enabled = true;
  config.corrupt_mtba = kNaN;
  const auto plan = make_plan(config, 2, 1, days(2), Rng(3));
  EXPECT_FALSE(plan.empty());
  for (const auto& e : plan.events()) {
    EXPECT_NE(e.kind, AbuseKind::corrupt_episode);
  }
  config.corrupt_mtba = hours(6);
  EXPECT_TRUE(make_plan(config, 2, 1, kNaN, Rng(3)).empty());
  config.intensity = kNaN;
  EXPECT_TRUE(make_plan(config, 2, 1, days(2), Rng(3)).empty());
}

TEST(AbusePlan, InfiniteHorizonIsEmpty) {
  AbuseConfig config;  // every class on by default
  config.enabled = true;
  ASSERT_FALSE(make_plan(config, 2, 1, days(2), Rng(1)).empty());
  EXPECT_TRUE(make_plan(config, 2, 1, kInf, Rng(1)).empty());
}

TEST(ByzantinePlan, NanMtbfOrGapDrawsNothingAndNanHorizonIsEmpty) {
  ByzantineConfig config;
  config.enabled = true;
  config.offer_drop_mtbf = kNaN;
  config.stale_index_mtbf = days(1);
  config.forge_list_mtba = kNaN;
  config.replay_hello_mtba = hours(12);
  const auto plan = make_plan(config, 2, 1, days(4), Rng(3));
  EXPECT_FALSE(plan.empty());
  for (const auto& e : plan.events()) {
    EXPECT_TRUE(e.kind == ByzantineKind::stale_index_begin ||
                e.kind == ByzantineKind::stale_index_end ||
                e.kind == ByzantineKind::replay_hello);
  }
  EXPECT_TRUE(make_plan(config, 2, 1, kNaN, Rng(3)).empty());
}

TEST(ByzantinePlan, InfiniteHorizonIsEmpty) {
  ByzantineConfig config;
  config.enabled = true;
  config.stale_index_mtbf = days(1);
  config.replay_hello_mtba = hours(12);
  ASSERT_FALSE(make_plan(config, 2, 1, days(4), Rng(1)).empty());
  EXPECT_TRUE(make_plan(config, 2, 1, kInf, Rng(1)).empty());
}

// A plan armed after the clock has passed some of its events fires those
// at the current instant, in plan order, ahead of the events still due.
TEST(Injector, LateArmFiresPastEventsNowInPlanOrder) {
  sim::Simulation s{4};
  net::Network net{s};
  const auto node = net.add_node(true);
  FaultPlan plan(std::vector<FaultEvent>{
      {20.0, FaultKind::host_crash, 0, 1.0},
      {10.0, FaultKind::host_crash, 1, 1.0},
      {60.0, FaultKind::host_crash, 2, 1.0},
  });
  std::vector<std::pair<Time, std::size_t>> fired;
  Injector::Bindings bind;
  bind.host_count = 3;
  bind.host_node = [node](std::size_t) { return node; };
  bind.crash_host = [&](std::size_t h) { fired.emplace_back(s.now(), h); };
  Injector injector{net, std::move(plan), std::move(bind)};

  s.run_until(50.0);
  injector.arm();
  s.run_until(100.0);
  const std::vector<std::pair<Time, std::size_t>> expected = {
      {50.0, 1}, {50.0, 0}, {60.0, 2}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(injector.stats().host_crashes, 3u);
}

}  // namespace
}  // namespace edhp::fault
