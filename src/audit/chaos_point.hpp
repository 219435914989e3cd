#pragma once
// The chaos-knob registry: one named, sampleable point in the cross-product
// of every chaos knob family (faults × abuse × byzantine × clocks × budgets
// × link model × manager churn), plus the serialized repro format the
// chaosfuzz tool emits and the regression tests replay.
//
// A ChaosPoint holds only the knobs that differ from their defaults, as
// (registry index, value) pairs — which makes delta-debugging natural: a
// shrink candidate is the same point with one knob removed (reset to its
// default). apply() projects a point onto the real ChaosConfig/AbuseConfig,
// flipping the right `enabled` master switches per knob group.
//
// The repro file format is line-oriented, diff-friendly and committed under
// tests/chaos_corpus/:
//
//   # comment
//   seed=123456
//   scale=0.02
//   days=2
//   honeypots=6
//   expect=imbalance        (or: balanced)
//   knob host_mtbf=14400
//   knob abuse_intensity=1.5

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/abuse.hpp"
#include "fault/fault.hpp"

namespace edhp::audit {

/// Which master switch a knob belongs to (apply() flips it).
enum class KnobGroup : std::uint8_t {
  chaos,     ///< fault::ChaosConfig::enabled
  abuse,     ///< fault::AbuseConfig::enabled
  byzantine, ///< ChaosConfig::byzantine.enabled
  plain,     ///< no master switch (budgets, link model, audit self-test)
};

/// One sampleable knob: a name (stable, serialized), a sampling range and
/// shape, and the group whose master switch it implies.
struct KnobInfo {
  std::string_view name;
  KnobGroup group = KnobGroup::plain;
  double lo = 0;          ///< sampling range (inclusive)
  double hi = 0;
  bool log_scale = false; ///< sample log-uniform (MTBF-style spans)
  bool integer = false;   ///< round the sampled value
  /// Per-point enable probability (0 = never sampled; the audit self-test
  /// backdoor is reachable only through an explicit repro file).
  double p_on = 0.12;
};

/// The full registry, in stable serialization order.
[[nodiscard]] std::span<const KnobInfo> knob_registry();

/// Registry index of `name`, or -1 when unknown.
[[nodiscard]] int knob_index(std::string_view name);

/// One point in the chaos cross-product: the non-default knobs only,
/// sorted by registry index (canonical form; parse/sample both produce it).
struct ChaosPoint {
  std::vector<std::pair<std::size_t, double>> knobs;

  [[nodiscard]] bool empty() const noexcept { return knobs.empty(); }
  /// The point with knob-list entry `i` removed (a ddmin shrink candidate).
  [[nodiscard]] ChaosPoint without(std::size_t i) const;
};

/// Draw a random point: each knob independently enabled with its p_on, its
/// value uniform (or log-uniform) in [lo, hi]. Deterministic in the rng
/// state; every knob consumes draws only when enabled, but the enable coin
/// itself is one draw per knob, so points are independent of registry
/// growth history only within one build.
[[nodiscard]] ChaosPoint sample_point(Rng& rng);

/// Project a point onto live configs: assign every knob's value and flip
/// the master switches its groups imply. Values are clamped to sane ranges
/// by the consuming subsystems, not here; an integer knob whose field type
/// cannot hold its value (negative, fractional, too large, or a flag other
/// than 0 or 1) throws std::out_of_range.
void apply(const ChaosPoint& point, fault::ChaosConfig& chaos,
           fault::AbuseConfig& abuse);

/// A complete committed repro: campaign shape + point + expected verdict.
struct ReproConfig {
  std::uint64_t seed = 1;
  double scale = 0.02;
  double days = 2.0;
  std::size_t honeypots = 6;
  /// True when the repro is SUPPOSED to imbalance (auditor-catches-it
  /// regression); false pins a once-failing point as now-balanced.
  bool expect_imbalance = false;
  ChaosPoint point;
};

/// Render a repro file (stable ordering; round-trips through parse_repro).
[[nodiscard]] std::string serialize(const ReproConfig& repro);

/// Parse a repro file. Every number must be complete and finite ("2x" and
/// "nan" are malformed), unsigned fields (seed, honeypots) take no sign, and
/// an integer knob takes only a value its field holds. Throws
/// std::runtime_error naming the offending line on malformed input or
/// unknown knob names.
[[nodiscard]] ReproConfig parse_repro(std::string_view text);

}  // namespace edhp::audit
