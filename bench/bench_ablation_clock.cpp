// Ablation: merge-order fidelity vs per-honeypot clock skew.
//
// The clock-fault layer makes honeypot clocks *wrong* — per-host drift
// rates re-drawn on a Poisson cadence, NTP-style steps, and frozen-clock
// episodes — while the behaviour of every node stays bit-identical (clock
// faults change what records SAY about time, never what happens or what
// the RNG draws). That twin-run property is the measurement instrument
// here: the same seed with clocks off yields the same record stream with
// true timestamps, so every record in the skewed run has a known true
// position, identified by (honeypot, per-honeypot occurrence index).
//
// The skew-corrected merge claims: after reconstruction from the manager's
// clock observations, (a) same-honeypot record order is exactly the true
// order, (b) >= 99.9% of cross-honeypot record pairs land in true relative
// order, and (c) nothing is reordered silently — the TimeIntegrityStats
// ledger accounts for every repair. This harness sweeps drift from mild to
// hostile (drift + steps + freezes), counts surviving inversions against
// the clock-off twin, and prints the machine line BENCH_clock.json tracks.
//
// Usage mirrors the other ablations: --scale/--days/--seed/--quiet.

#include <map>
#include <vector>

#include "bench_common.hpp"

using namespace edhp;

namespace {

/// Per-record identity that survives re-stamping and stage-2 renumbering:
/// the user hash, query type and client version are recomputed identically
/// in both twin runs, and per-honeypot record order is append order.
struct RecordKey {
  std::uint64_t user;
  std::uint8_t type;
  std::uint32_t version;
  bool operator==(const RecordKey&) const = default;
};

RecordKey key_of(const logbook::LogRecord& r) {
  return RecordKey{r.user, static_cast<std::uint8_t>(r.type),
                   r.client_version};
}

/// Merge-sort inversion count over `ranks` (number of pairs out of order).
std::uint64_t count_inversions(std::vector<std::uint64_t> ranks) {
  std::vector<std::uint64_t> tmp(ranks.size());
  std::uint64_t inversions = 0;
  for (std::size_t width = 1; width < ranks.size(); width *= 2) {
    for (std::size_t lo = 0; lo + width < ranks.size(); lo += 2 * width) {
      const std::size_t mid = lo + width;
      const std::size_t hi = std::min(lo + 2 * width, ranks.size());
      std::size_t a = lo, b = mid, out = lo;
      while (a < mid && b < hi) {
        if (ranks[a] <= ranks[b]) {
          tmp[out++] = ranks[a++];
        } else {
          inversions += mid - a;  // everything left in [a, mid) beats ranks[b]
          tmp[out++] = ranks[b++];
        }
      }
      while (a < mid) tmp[out++] = ranks[a++];
      while (b < hi) tmp[out++] = ranks[b++];
      std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(lo),
                tmp.begin() + static_cast<std::ptrdiff_t>(hi),
                ranks.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
  return inversions;
}

struct ClockCase {
  const char* name;
  Duration drift_mtbf;
  double drift_ppm;
  Duration step_mtbf;
  Duration step_max;
  Duration freeze_mtbf;
};

struct Outcome {
  std::uint64_t records = 0;
  std::uint64_t cross_pairs = 0;
  std::uint64_t cross_inversions = 0;
  bool same_hp_order_preserved = false;
  bool record_sets_match = false;
  double pair_accuracy_pct = 0;
  std::uint64_t unaccounted_reorders = 0;
  logbook::TimeIntegrityStats integrity;
  double events_per_sec = 0;
};

scenario::DistributedConfig base_config(const bench::Options& opt) {
  auto config = bench::distributed_config(opt);
  config.with_top_peer = false;
  config.chaos.enabled = true;
  // Isolate the clock axis: no silence faults, no control-plane outages.
  // The twin runs then produce identical record streams whose only
  // difference is what the timestamps claim.
  config.chaos.host_mtbf = 0;
  config.chaos.manager_mtbf = 0;
  return config;
}

Outcome run_case(const bench::Options& opt, const ClockCase& c,
                 const scenario::ScenarioResult& truth) {
  auto config = base_config(opt);
  config.chaos.clock_drift_mtbf = c.drift_mtbf;
  config.chaos.clock_drift_ppm = c.drift_ppm;
  config.chaos.clock_step_mtbf = c.step_mtbf;
  config.chaos.clock_step_max = c.step_max;
  config.chaos.clock_freeze_mtbf = c.freeze_mtbf;
  const auto run = bench::timed_run(config);
  const auto& skewed = run.result;

  Outcome o;
  o.records = skewed.merged.records.size();
  o.integrity = skewed.time_integrity;
  o.events_per_sec = run.events_per_sec;

  // True rank of the skewed run's records: position in the clock-off twin's
  // merged order, identified by (honeypot, occurrence index).
  std::map<std::uint16_t, std::vector<std::uint64_t>> true_ranks_by_hp;
  std::map<std::uint16_t, std::vector<RecordKey>> true_keys_by_hp;
  for (std::size_t i = 0; i < truth.merged.records.size(); ++i) {
    const auto& r = truth.merged.records[i];
    true_ranks_by_hp[r.honeypot].push_back(i);
    true_keys_by_hp[r.honeypot].push_back(key_of(r));
  }
  o.record_sets_match = o.records == truth.merged.records.size();
  o.same_hp_order_preserved = o.record_sets_match;
  std::map<std::uint16_t, std::size_t> occurrence;
  std::vector<std::uint64_t> ranks;
  ranks.reserve(o.records);
  std::uint64_t same_hp_pairs = 0;
  for (const auto& r : skewed.merged.records) {
    const auto occ = occurrence[r.honeypot]++;
    const auto& hp_ranks = true_ranks_by_hp[r.honeypot];
    if (occ >= hp_ranks.size()) {
      o.record_sets_match = false;
      o.same_hp_order_preserved = false;
      break;
    }
    // Same-honeypot order check by content: occurrence slot occ of this
    // honeypot must hold the same record as in the twin run, or the merge
    // silently permuted a honeypot's own stream.
    if (!(key_of(r) == true_keys_by_hp[r.honeypot][occ])) {
      o.same_hp_order_preserved = false;
    }
    ranks.push_back(hp_ranks[occ]);
  }
  for (const auto& [hp, n] : occurrence) {
    same_hp_pairs += static_cast<std::uint64_t>(n) * (n - 1) / 2;
    if (n != true_ranks_by_hp[hp].size()) o.record_sets_match = false;
  }
  if (!o.record_sets_match) return o;

  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(o.records) * (o.records - 1) / 2;
  o.cross_pairs = total_pairs - same_hp_pairs;
  // Same-honeypot pairs cannot invert (order equality was checked above),
  // so every counted inversion is a cross-honeypot pair.
  o.cross_inversions = count_inversions(std::move(ranks));
  o.pair_accuracy_pct =
      o.cross_pairs == 0
          ? 100.0
          : 100.0 * (1.0 - static_cast<double>(o.cross_inversions) /
                               static_cast<double>(o.cross_pairs));
  // Silent-reordering audit: a merge that moved records while its own
  // ledger claims it corrected nothing (and saw no ambiguity) reordered
  // silently. Same for a permuted same-honeypot stream.
  const bool ledger_silent = o.integrity.records_corrected == 0 &&
                             o.integrity.records_ambiguous == 0 &&
                             o.integrity.monotonicity_violations == 0 &&
                             o.integrity.observation_resets == 0;
  if (!o.same_hp_order_preserved || (o.cross_inversions > 0 && ledger_silent)) {
    o.unaccounted_reorders = o.cross_inversions + (o.same_hp_order_preserved
                                                       ? 0
                                                       : std::uint64_t{1});
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, 0.02);
  std::cout << "ablation: merge-order fidelity vs honeypot clock skew "
               "(skew-corrected merge; acceptance: same-honeypot order exact, "
               ">= 99.9% of cross-honeypot pairs in true order, zero "
               "unaccounted reorders)\n\n";

  // The clock-off twin is the ground truth: same seed, same behaviour,
  // true timestamps.
  const auto truth = scenario::run_distributed(base_config(opt));
  std::cout << "  clock-off twin: " << truth.merged.records.size()
            << " records (true order)\n";

  const ClockCase cases[] = {
      {"drift ±50 ppm (mild)", days(4), 50.0, 0, 0, 0},
      {"drift ±200 ppm + 60 s steps (nominal)", days(2), 200.0, hours(12),
       60.0, 0},
      {"drift ±500 ppm + 300 s steps + freezes (hostile)", days(1), 500.0,
       hours(4), 300.0, hours(18)},
  };
  Outcome nominal{};
  bool all_ok = true;
  for (const auto& c : cases) {
    const auto o = run_case(opt, c, truth);
    if (std::string_view(c.name).find("nominal") != std::string_view::npos) {
      nominal = o;
    }
    if (!o.record_sets_match) {
      std::cout << "  " << c.name
                << ": RECORD SETS DIVERGED (clock faults must not change "
                   "behaviour)\n";
      all_ok = false;
      continue;
    }
    std::cout << "  " << c.name << ": " << o.records << " records, "
              << o.cross_inversions << " of " << o.cross_pairs
              << " cross-honeypot pairs inverted (accuracy "
              << o.pair_accuracy_pct << "%), same-hp order "
              << (o.same_hp_order_preserved ? "exact" : "BROKEN") << ", "
              << o.integrity.observations_used << " observations, "
              << o.integrity.records_corrected << " corrected (max "
              << o.integrity.max_abs_correction << " s), "
              << o.integrity.monotonicity_violations
              << " monotonicity violations repaired, "
              << o.unaccounted_reorders << " unaccounted, "
              << static_cast<std::uint64_t>(o.events_per_sec) << " events/s\n";
    all_ok = all_ok && o.same_hp_order_preserved &&
             o.pair_accuracy_pct >= 99.9 && o.unaccounted_reorders == 0;
  }
  std::cout << "\nexpected: accuracy >= 99.9% with zero unaccounted reorders "
               "at every intensity; corrections scale with drift while "
               "same-honeypot order never moves\n";
  if (!all_ok) {
    std::cout << "ACCEPTANCE FAILED (see rows above)\n";
  }
  // One machine-readable line for the perf trajectory (BENCH_clock.json):
  // the nominal drift+step run.
  bench::print_record(
      "clock",
      {{"pair_accuracy_pct", nominal.pair_accuracy_pct, 4},
       {"cross_inversions", nominal.cross_inversions},
       {"unaccounted_reorders", nominal.unaccounted_reorders},
       {"same_hp_order_preserved", nominal.same_hp_order_preserved},
       {"records", nominal.records},
       {"observations", nominal.integrity.observations_used},
       {"records_corrected", nominal.integrity.records_corrected},
       {"monotonicity_violations", nominal.integrity.monotonicity_violations},
       {"max_abs_correction_s", nominal.integrity.max_abs_correction, 3},
       {"events_per_sec", nominal.events_per_sec, 0}});
  return all_ok ? 0 : 1;
}
