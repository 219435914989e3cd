#include "audit/chaos_point.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/clock.hpp"
#include "common/parse.hpp"

namespace edhp::audit {
namespace {

using fault::AbuseConfig;
using fault::ChaosConfig;

/// Registry entry: public knob description + the setter projecting its
/// value onto the live configs (capture-free, so a plain function pointer).
struct KnobImpl {
  KnobInfo info;
  void (*set)(ChaosConfig&, AbuseConfig&, double);
};

constexpr double kH = 3600.0;  // one hour in seconds

/// An integer knob's value as its field type T (bool for a flag). Throws
/// std::out_of_range unless T holds `v` exactly: whole, not negative and
/// below 2^digits — so a float-to-integer cast never sees a value it cannot
/// represent.
template <class T>
T whole(double v) {
  if (!(v >= 0 && v == std::floor(v) &&
        v < std::ldexp(1.0, std::numeric_limits<T>::digits))) {
    throw std::out_of_range("chaos point: integer knob value out of range");
  }
  return static_cast<T>(v);
}

#define EDHP_KNOB_SET(expr)                                         \
  +[](ChaosConfig& c, AbuseConfig& a, double v) {                   \
    (void)c;                                                        \
    (void)a;                                                        \
    (void)v;                                                        \
    expr;                                                           \
  }

const KnobImpl kKnobs[] = {
    // --- Silence faults (host / link / server / partition churn) ---------
    {{"host_mtbf", KnobGroup::chaos, 4 * kH, 192 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.host_mtbf = v)},
    {{"host_reboot_mean", KnobGroup::chaos, 60, 2 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.host_reboot_mean = v)},
    {{"uplink_mtbf", KnobGroup::chaos, 2 * kH, 96 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.uplink_mtbf = v)},
    {{"uplink_outage_mean", KnobGroup::chaos, 120, kH, true, false, 0.12},
     EDHP_KNOB_SET(c.uplink_outage_mean = v)},
    {{"server_mtbf", KnobGroup::chaos, 8 * kH, 192 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.server_mtbf = v)},
    {{"server_restart_mean", KnobGroup::chaos, 60, 600, false, false, 0.12},
     EDHP_KNOB_SET(c.server_restart_mean = v)},
    {{"latency_spike_mtbf", KnobGroup::chaos, 4 * kH, 96 * kH, true, false,
      0.12},
     EDHP_KNOB_SET(c.latency_spike_mtbf = v)},
    {{"latency_spike_factor", KnobGroup::chaos, 2, 16, false, false, 0.12},
     EDHP_KNOB_SET(c.latency_spike_factor = v)},
    {{"partition_mtbf", KnobGroup::chaos, 8 * kH, 192 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.partition_mtbf = v)},
    {{"partition_fraction", KnobGroup::chaos, 0.1, 0.5, false, false, 0.12},
     EDHP_KNOB_SET(c.partition_fraction = v)},
    // --- Control-plane churn ---------------------------------------------
    {{"manager_mtbf", KnobGroup::chaos, 24 * kH, 192 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.manager_mtbf = v)},
    {{"manager_outage_mean", KnobGroup::chaos, 600, 2 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.manager_outage_mean = v)},
    {{"manager_no_recovery", KnobGroup::chaos, 1, 1, false, true, 0.06},
     EDHP_KNOB_SET(c.manager_recovery = !whole<bool>(v))},
    // --- Resource-exhaustion episodes ------------------------------------
    {{"disk_full_mtbf", KnobGroup::chaos, 4 * kH, 48 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.disk_full_mtbf = v)},
    {{"disk_full_fraction", KnobGroup::chaos, 0.05, 0.5, false, false, 0.12},
     EDHP_KNOB_SET(c.disk_full_fraction = v)},
    {{"disk_slow_mtbf", KnobGroup::chaos, 4 * kH, 48 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.disk_slow_mtbf = v)},
    {{"disk_slow_factor", KnobGroup::chaos, 2, 8, false, false, 0.12},
     EDHP_KNOB_SET(c.disk_slow_factor = v)},
    {{"mem_pressure_mtbf", KnobGroup::chaos, 4 * kH, 48 * kH, true, false,
      0.12},
     EDHP_KNOB_SET(c.mem_pressure_mtbf = v)},
    {{"mem_pressure_fraction", KnobGroup::chaos, 0.2, 0.8, false, false, 0.12},
     EDHP_KNOB_SET(c.mem_pressure_fraction = v)},
    // --- Clock faults ------------------------------------------------------
    {{"clock_drift_mtbf", KnobGroup::chaos, 4 * kH, 96 * kH, true, false,
      0.12},
     EDHP_KNOB_SET(c.clock_drift_mtbf = v)},
    {{"clock_drift_ppm", KnobGroup::chaos, 50, 500, false, false, 0.12},
     EDHP_KNOB_SET(c.clock_drift_ppm = v)},
    {{"clock_step_mtbf", KnobGroup::chaos, 4 * kH, 96 * kH, true, false, 0.12},
     EDHP_KNOB_SET(c.clock_step_mtbf = v)},
    {{"clock_step_max", KnobGroup::chaos, 5, 300, false, false, 0.12},
     EDHP_KNOB_SET(c.clock_step_max = v)},
    {{"clock_freeze_mtbf", KnobGroup::chaos, 8 * kH, 96 * kH, true, false,
      0.12},
     EDHP_KNOB_SET(c.clock_freeze_mtbf = v)},
    {{"clock_freeze_mean", KnobGroup::chaos, 30, 600, true, false, 0.12},
     EDHP_KNOB_SET(c.clock_freeze_mean = v)},
    // --- Spool / recovery policy ------------------------------------------
    {{"spool_period", KnobGroup::chaos, 120, kH, true, false, 0.12},
     EDHP_KNOB_SET(c.spool_period = v)},
    {{"resend_credit", KnobGroup::chaos, 1, 8, false, true, 0.12},
     EDHP_KNOB_SET(c.resend_credit = whole<std::uint32_t>(v))},
    // --- Resource budgets --------------------------------------------------
    {{"disk_quota_bytes", KnobGroup::chaos, 65536, 4194304, true, true, 0.12},
     EDHP_KNOB_SET(c.disk_quota_bytes = whole<std::uint64_t>(v))},
    {{"mem_budget_records", KnobGroup::chaos, 512, 65536, true, true, 0.12},
     EDHP_KNOB_SET(c.mem_budget_records = whole<std::uint64_t>(v))},
    {{"session_ceiling", KnobGroup::chaos, 8, 128, true, true, 0.12},
     EDHP_KNOB_SET(c.session_ceiling = whole<std::uint32_t>(v))},
    {{"degrade_off", KnobGroup::chaos, 1, 1, false, true, 0.04},
     EDHP_KNOB_SET(c.degrade_policy = whole<bool>(v)
                       ? budget::DegradePolicy::off
                       : budget::DegradePolicy::priority_shed)},
    // --- Link-quality model (no master switch: zero values are no-ops) ----
    {{"link_burst_enter", KnobGroup::plain, 0.001, 0.05, true, false, 0.12},
     EDHP_KNOB_SET(c.link_burst_enter = v)},
    {{"link_burst_loss", KnobGroup::plain, 0.2, 0.9, false, false, 0.12},
     EDHP_KNOB_SET(c.link_burst_loss = v)},
    {{"link_dup", KnobGroup::plain, 0.001, 0.05, true, false, 0.12},
     EDHP_KNOB_SET(c.link_dup = v)},
    {{"link_reorder", KnobGroup::plain, 0.001, 0.1, true, false, 0.12},
     EDHP_KNOB_SET(c.link_reorder = v)},
    // --- Adversarial traffic ----------------------------------------------
    {{"abuse_intensity", KnobGroup::abuse, 0.5, 3.0, false, false, 0.12},
     EDHP_KNOB_SET(a.intensity = v)},
    {{"abuse_corrupt_mtba", KnobGroup::abuse, kH, 12 * kH, true, false, 0.12},
     EDHP_KNOB_SET(a.corrupt_mtba = v)},
    {{"abuse_flood_mtba", KnobGroup::abuse, 2 * kH, 16 * kH, true, false,
      0.12},
     EDHP_KNOB_SET(a.flood_mtba = v)},
    {{"abuse_slowloris_mtba", KnobGroup::abuse, kH, 8 * kH, true, false, 0.12},
     EDHP_KNOB_SET(a.slowloris_mtba = v)},
    {{"abuse_oversize_mtba", KnobGroup::abuse, kH, 12 * kH, true, false, 0.12},
     EDHP_KNOB_SET(a.oversize_mtba = v)},
    {{"abuse_attackers", KnobGroup::abuse, 1, 8, false, true, 0.12},
     EDHP_KNOB_SET(a.attackers_per_class = whole<std::size_t>(v))},
    // --- Byzantine lies + defense ablation --------------------------------
    {{"byz_offer_drop_mtbf", KnobGroup::byzantine, 2 * kH, 48 * kH, true,
      false, 0.12},
     EDHP_KNOB_SET(c.byzantine.offer_drop_mtbf = v)},
    {{"byz_offer_truncate_mtbf", KnobGroup::byzantine, 2 * kH, 48 * kH, true,
      false, 0.12},
     EDHP_KNOB_SET(c.byzantine.offer_truncate_mtbf = v)},
    {{"byz_stale_index_mtbf", KnobGroup::byzantine, 2 * kH, 48 * kH, true,
      false, 0.12},
     EDHP_KNOB_SET(c.byzantine.stale_index_mtbf = v)},
    {{"byz_fabricate_mtbf", KnobGroup::byzantine, 2 * kH, 48 * kH, true, false,
      0.12},
     EDHP_KNOB_SET(c.byzantine.fabricate_mtbf = v)},
    {{"byz_corrupt_search_mtbf", KnobGroup::byzantine, 2 * kH, 48 * kH, true,
      false, 0.12},
     EDHP_KNOB_SET(c.byzantine.corrupt_search_mtbf = v)},
    {{"byz_forge_list_mtba", KnobGroup::byzantine, kH, 24 * kH, true, false,
      0.12},
     EDHP_KNOB_SET(c.byzantine.forge_list_mtba = v)},
    {{"byz_replay_hello_mtba", KnobGroup::byzantine, kH, 24 * kH, true, false,
      0.12},
     EDHP_KNOB_SET(c.byzantine.replay_hello_mtba = v)},
    {{"byz_no_defend", KnobGroup::byzantine, 1, 1, false, true, 0.06},
     EDHP_KNOB_SET(c.byzantine.defend = !whole<bool>(v))},
    // --- Audit self-test backdoor (never sampled: p_on = 0). Kept in the
    // registry so a committed repro can arm it and the shrinker can name
    // it; see ChaosConfig::audit_selftest_drop ----------------------------
    {{"audit_selftest_drop", KnobGroup::plain, 2, 1000, true, true, 0.0},
     EDHP_KNOB_SET(c.audit_selftest_drop = whole<std::uint32_t>(v))},
};

#undef EDHP_KNOB_SET

constexpr std::size_t kKnobCount = std::size(kKnobs);

const std::vector<KnobInfo>& info_table() {
  static const std::vector<KnobInfo> table = [] {
    std::vector<KnobInfo> t;
    t.reserve(kKnobCount);
    for (const auto& k : kKnobs) t.push_back(k.info);
    return t;
  }();
  return table;
}

/// Strip leading/trailing blanks (the only whitespace the format allows).
std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void bad_value(std::string_view line) {
  throw std::runtime_error("chaos repro: bad value in line: " +
                           std::string(line));
}

/// `text` as a complete number (no sign when T is unsigned, finite when T
/// is floating); anything else throws naming the offending line.
template <class T>
T parse_value(std::string_view text, std::string_view line) {
  const auto value = parse_number<T>(text);
  if (!value) bad_value(line);
  return *value;
}

/// Whether knob `k`'s field holds `value`. The setter is where each knob's
/// field type is written down, so this runs it on throwaway configs.
bool holds(const KnobImpl& k, double value) {
  ChaosConfig chaos;
  AbuseConfig abuse;
  try {
    k.set(chaos, abuse, value);
  } catch (const std::out_of_range&) {
    return false;
  }
  return true;
}

}  // namespace

std::span<const KnobInfo> knob_registry() { return info_table(); }

int knob_index(std::string_view name) {
  for (std::size_t i = 0; i < kKnobCount; ++i) {
    if (kKnobs[i].info.name == name) return static_cast<int>(i);
  }
  return -1;
}

ChaosPoint ChaosPoint::without(std::size_t i) const {
  ChaosPoint out;
  out.knobs.reserve(knobs.size() - 1);
  for (std::size_t j = 0; j < knobs.size(); ++j) {
    if (j != i) out.knobs.push_back(knobs[j]);
  }
  return out;
}

ChaosPoint sample_point(Rng& rng) {
  ChaosPoint point;
  for (std::size_t i = 0; i < kKnobCount; ++i) {
    const KnobInfo& k = kKnobs[i].info;
    if (!rng.chance(k.p_on)) continue;
    double v = k.log_scale
                   ? std::exp(rng.uniform(std::log(k.lo), std::log(k.hi)))
                   : rng.uniform(k.lo, k.hi);
    if (k.integer) v = static_cast<double>(std::llround(v));
    point.knobs.emplace_back(i, v);
  }
  return point;
}

void apply(const ChaosPoint& point, fault::ChaosConfig& chaos,
           fault::AbuseConfig& abuse) {
  for (const auto& [index, value] : point.knobs) {
    if (index >= kKnobCount) {
      throw std::runtime_error("chaos point: knob index out of range");
    }
    const KnobImpl& k = kKnobs[index];
    k.set(chaos, abuse, value);
    switch (k.info.group) {
      case KnobGroup::chaos:
        chaos.enabled = true;
        break;
      case KnobGroup::abuse:
        abuse.enabled = true;
        break;
      case KnobGroup::byzantine:
        chaos.byzantine.enabled = true;
        break;
      case KnobGroup::plain:
        break;
    }
  }
}

std::string serialize(const ReproConfig& repro) {
  std::ostringstream out;
  out.precision(17);
  out << "# edhp_chaosfuzz repro (replayed by test_audit + edhp_inspect "
         "audit)\n";
  out << "seed=" << repro.seed << "\n";
  out << "scale=" << repro.scale << "\n";
  out << "days=" << repro.days << "\n";
  out << "honeypots=" << repro.honeypots << "\n";
  out << "expect=" << (repro.expect_imbalance ? "imbalance" : "balanced")
      << "\n";
  auto sorted = repro.point.knobs;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [index, value] : sorted) {
    out << "knob " << kKnobs[index].info.name << "=" << value << "\n";
  }
  return out.str();
}

ReproConfig parse_repro(std::string_view text) {
  ReproConfig repro;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;
    if (line.rfind("knob ", 0) == 0) {
      std::string_view body = trim(line.substr(5));
      const std::size_t eq = body.find('=');
      if (eq == std::string_view::npos) {
        throw std::runtime_error("chaos repro: missing '=' in line: " +
                                 std::string(line));
      }
      const std::string_view name = trim(body.substr(0, eq));
      const int index = knob_index(name);
      if (index < 0) {
        throw std::runtime_error("chaos repro: unknown knob: " +
                                 std::string(name));
      }
      const auto knob = static_cast<std::size_t>(index);
      const auto value = parse_value<double>(trim(body.substr(eq + 1)), line);
      if (!holds(kKnobs[knob], value)) bad_value(line);
      repro.point.knobs.emplace_back(knob, value);
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("chaos repro: malformed line: " +
                               std::string(line));
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key == "seed") {
      repro.seed = parse_value<std::uint64_t>(value, line);
    } else if (key == "scale") {
      repro.scale = parse_value<double>(value, line);
    } else if (key == "days") {
      repro.days = parse_value<double>(value, line);
    } else if (key == "honeypots") {
      repro.honeypots = parse_value<std::size_t>(value, line);
    } else if (key == "expect") {
      if (value == "imbalance") {
        repro.expect_imbalance = true;
      } else if (value == "balanced") {
        repro.expect_imbalance = false;
      } else {
        throw std::runtime_error("chaos repro: expect must be balanced or "
                                 "imbalance, got: " +
                                 std::string(value));
      }
    } else {
      throw std::runtime_error("chaos repro: unknown key: " +
                               std::string(key));
    }
  }
  std::sort(repro.point.knobs.begin(), repro.point.knobs.end());
  return repro;
}

}  // namespace edhp::audit
