#pragma once
// Shared helpers for the campaign golden tests: the record fingerprint every
// golden pins, and the "every chaos axis armed" configuration the chaos-on
// goldens run (the same list benchmark/rep.cpp arms for its chaos workload,
// link knobs left at their defaults).

#include <cstdint>
#include <cstring>

#include "common/clock.hpp"
#include "logbook/record.hpp"
#include "scenario/scenario.hpp"

namespace edhp::scenario {

/// FNV-1a (64-bit words) over every merged record field that matters for
/// bit-identity.
inline std::uint64_t fingerprint(const logbook::LogFile& log) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& rec : log.records) {
    std::uint64_t t_bits = 0;
    static_assert(sizeof(rec.timestamp) == 8);
    std::memcpy(&t_bits, &rec.timestamp, 8);
    mix(t_bits);
    mix(rec.peer);
    mix(rec.user);
    mix(static_cast<std::uint64_t>(rec.honeypot));
    mix(static_cast<std::uint64_t>(rec.type));
  }
  return h;
}

/// Arms host/uplink/server/manager churn, abuse, Byzantine lies, clock
/// drift and steps, resource budgets and resource faults at once.
inline void arm_every_chaos_axis(CampaignConfig& c) {
  c.chaos.enabled = true;
  c.chaos.host_mtbf = hours(18);
  c.chaos.uplink_mtbf = hours(16);
  c.chaos.server_mtbf = days(2);
  c.abuse.enabled = true;
  auto& b = c.chaos.byzantine;
  b.enabled = true;
  b.fabricate_mtbf = hours(12);
  b.stale_index_mtbf = hours(12);
  b.forge_list_mtba = hours(4);
  b.replay_hello_mtba = hours(4);
  c.chaos.clock_drift_mtbf = days(2);
  c.chaos.clock_step_mtbf = hours(12);
  c.chaos.clock_step_max = 60.0;
  c.chaos.disk_quota_bytes = 192 * 1024;
  c.chaos.mem_budget_records = 4096;
  c.chaos.manager_mtbf = days(1);
  c.chaos.disk_full_mtbf = hours(12);
  c.chaos.mem_pressure_mtbf = hours(12);
}

}  // namespace edhp::scenario
