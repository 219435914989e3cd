// edhp_chaosfuzz — combinatorial chaos-schedule fuzzer with automatic
// shrinking.
//
// Draws seeded random points from the full cross-product of every chaos
// knob family (silence faults × abuse × byzantine lies × clock faults ×
// budgets × link model × manager churn — see audit::knob_registry), runs a
// scaled-down distributed campaign per point, and checks the standing
// invariants:
//
//   conservation   born == merged + Σ accounted (the audit ledger balances);
//   determinism    every --twin-th point runs twice and must reproduce the
//                  same dataset and the same ledger bit-for-bit;
//   no surprises   a run must not throw.
//
// On failure the offending point is delta-debugged to a 1-minimal knob set
// (greedily reset each knob to its default; keep any removal that still
// fails; loop to fixpoint) and a replayable repro file is written — commit
// it under tests/chaos_corpus/ and test_audit replays it forever.
//
// Usage:
//   edhp_chaosfuzz [--points=N] [--seed=S] [--scale=F] [--days=D]
//                  [--honeypots=H] [--twin=K] [--out=DIR] [--quiet]
//   edhp_chaosfuzz --replay=FILE...   replay repro files, verify `expect=`
//   edhp_chaosfuzz --selftest         prove the auditor catches an injected
//                                     imbalance and shrinks it (exit 0 iff
//                                     caught and the repro is <= 3 knobs)
//
// Exit codes: 0 every point/replay passed; 1 an invariant failed (repro
// written in batch mode); 2 usage: an unknown flag, or a numeric flag whose
// value is not a complete number (unsigned flags take no sign), rejected
// before any campaign runs.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "audit/chaos_point.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"

#include "chaos_run.hpp"

using namespace edhp;

namespace {

struct Options {
  std::size_t points = 20;
  std::uint64_t seed = 20260808;
  double scale = 0.02;
  double days = 2.0;
  std::size_t honeypots = 6;
  std::size_t twin = 8;  ///< twin-run determinism cadence (0 = never)
  std::string out = "tests/chaos_corpus";
  bool quiet = false;
  bool selftest = false;
  std::vector<std::string> replays;
};

[[noreturn]] void usage_error(std::string_view reason, std::string_view arg) {
  std::cerr << reason << ": " << arg << "\n"
            << "usage: edhp_chaosfuzz [--points=N] [--seed=S] [--scale=F] "
               "[--days=D] [--honeypots=H] [--twin=K] [--out=DIR] [--quiet]\n"
               "       edhp_chaosfuzz --replay=FILE...\n"
               "       edhp_chaosfuzz --selftest\n";
  std::exit(2);
}

/// The number after the `=` of `arg`; anything but a complete number is a
/// usage error.
template <class T>
T flag_value(std::string_view arg) {
  const auto value = parse_number<T>(arg.substr(arg.find('=') + 1));
  if (!value) usage_error("not a number", arg);
  return *value;
}

/// What one run of a point observed (a thrown exception counts as failed).
struct Outcome {
  audit::AuditStats stats;
  bool threw = false;
  std::string error;

  [[nodiscard]] bool failed() const { return threw || !stats.balanced(); }
};

Outcome run_point(const audit::ReproConfig& repro) {
  Outcome out;
  try {
    out.stats = tools::run_repro(repro);
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  return out;
}

/// Greedy ddmin: drop one knob at a time (reset to default) while the
/// point keeps failing; loop to fixpoint. The result is 1-minimal — no
/// single remaining knob can be removed without the failure vanishing.
audit::ReproConfig shrink(audit::ReproConfig repro, std::size_t* runs) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < repro.point.knobs.size(); ++i) {
      audit::ReproConfig candidate = repro;
      candidate.point = repro.point.without(i);
      ++*runs;
      if (run_point(candidate).failed()) {
        repro = candidate;
        changed = true;
        break;
      }
    }
  }
  return repro;
}

std::string knob_names(const audit::ChaosPoint& point) {
  const auto registry = audit::knob_registry();
  std::string out;
  for (const auto& [index, value] : point.knobs) {
    if (!out.empty()) out += ",";
    out += std::string(registry[index].name);
  }
  return out.empty() ? "(none)" : out;
}

/// Write the shrunk repro where the batch asked (default: the committed
/// corpus directory). Returns the path, empty on I/O failure.
std::string write_repro(const Options& opt, const audit::ReproConfig& repro,
                        std::size_t point_index) {
  const std::string path = opt.out + "/shrunk-" + std::to_string(opt.seed) +
                           "-" + std::to_string(point_index) + ".cfg";
  std::ofstream file(path);
  if (!file) {
    std::cerr << "chaosfuzz: cannot write repro to " << path << "\n";
    return {};
  }
  file << audit::serialize(repro);
  return path;
}

int run_batch(const Options& opt) {
  const Rng batch_rng(opt.seed);
  std::size_t failed = 0;
  std::size_t total_runs = 0;
  for (std::size_t i = 0; i < opt.points; ++i) {
    Rng point_rng = batch_rng.split(i);
    audit::ReproConfig repro;
    repro.seed = point_rng();
    repro.scale = opt.scale;
    repro.days = opt.days;
    repro.honeypots = opt.honeypots;
    repro.point = audit::sample_point(point_rng);
    ++total_runs;
    const Outcome first = run_point(repro);
    bool bad = first.failed();
    std::string why = first.threw ? ("throw: " + first.error)
                                  : "imbalance: " + first.stats.breakdown();
    if (!bad && opt.twin != 0 && i % opt.twin == 0) {
      // Twin-run determinism: same repro, bit-identical ledger (born and
      // merged pin the dataset record count; the scenario's own golden
      // tests pin content fingerprints).
      ++total_runs;
      const Outcome second = run_point(repro);
      if (second.threw ||
          second.stats.records_born != first.stats.records_born ||
          second.stats.records_merged != first.stats.records_merged ||
          second.stats.accounted() != first.stats.accounted()) {
        bad = true;
        why = "twin-run mismatch: first " + first.stats.breakdown() +
              " | second " +
              (second.threw ? "throw: " + second.error
                            : second.stats.breakdown());
      }
    }
    if (!bad) {
      if (!opt.quiet) {
        std::cout << "point " << i << ": ok knobs=" << repro.point.knobs.size()
                  << " " << first.stats.breakdown() << "\n";
      }
      continue;
    }
    ++failed;
    std::cout << "point " << i << ": FAILED (" << why << ")\n"
              << "  knobs: " << knob_names(repro.point) << "\n";
    repro.expect_imbalance = true;
    std::size_t shrink_runs = 0;
    const audit::ReproConfig minimal = shrink(repro, &shrink_runs);
    total_runs += shrink_runs;
    std::cout << "  shrunk to " << minimal.point.knobs.size() << " knob(s) in "
              << shrink_runs << " runs: " << knob_names(minimal.point) << "\n";
    const std::string path = write_repro(opt, minimal, i);
    if (!path.empty()) {
      std::cout << "  repro written: " << path << "\n";
    }
  }
  std::cout << "chaosfuzz: " << (opt.points - failed) << "/" << opt.points
            << " points passed (" << total_runs << " campaign runs, seed "
            << opt.seed << ")\n";
  return failed == 0 ? 0 : 1;
}

int run_replays(const Options& opt) {
  // Read every file first: a malformed one fails before any campaign runs.
  std::vector<audit::ReproConfig> repros;
  for (const auto& path : opt.replays) {
    std::ifstream file(path);
    if (!file) {
      std::cerr << "chaosfuzz: cannot read " << path << "\n";
      return 1;
    }
    const std::string text((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
    repros.push_back(audit::parse_repro(text));
  }
  int rc = 0;
  for (std::size_t i = 0; i < repros.size(); ++i) {
    const std::string& path = opt.replays[i];
    const audit::ReproConfig& repro = repros[i];
    const Outcome outcome = run_point(repro);
    const bool imbalanced = outcome.failed();
    const bool pass = imbalanced == repro.expect_imbalance;
    std::cout << path << ": "
              << (imbalanced ? "imbalance" : "balanced") << " (expected "
              << (repro.expect_imbalance ? "imbalance" : "balanced") << ") "
              << (pass ? "OK" : "MISMATCH") << "\n  "
              << (outcome.threw ? "throw: " + outcome.error
                                : outcome.stats.breakdown())
              << "\n";
    if (!pass) rc = 1;
  }
  return rc;
}

int run_selftest(const Options& opt) {
  // Arm the deliberate silent-loss backdoor plus two innocent-bystander
  // knobs, prove the auditor flags it, and prove the shrinker strips the
  // bystanders — ending at a <= 3-knob (here: 1-knob) repro.
  audit::ReproConfig repro;
  repro.seed = opt.seed;
  repro.scale = opt.scale;
  repro.days = 1.0;
  repro.honeypots = 4;
  repro.expect_imbalance = true;
  const auto add = [&repro](std::string_view name, double value) {
    repro.point.knobs.emplace_back(
        static_cast<std::size_t>(audit::knob_index(name)), value);
  };
  add("host_mtbf", 6 * 3600.0);
  add("clock_step_mtbf", 8 * 3600.0);
  add("audit_selftest_drop", 97);
  const Outcome outcome = run_point(repro);
  if (!outcome.failed()) {
    std::cout << "selftest: auditor MISSED the injected imbalance: "
              << outcome.stats.breakdown() << "\n";
    return 1;
  }
  std::size_t shrink_runs = 0;
  const audit::ReproConfig minimal = shrink(repro, &shrink_runs);
  std::cout << "selftest: injected imbalance caught ("
            << (outcome.threw ? outcome.error : outcome.stats.breakdown())
            << ")\n  shrunk " << repro.point.knobs.size() << " -> "
            << minimal.point.knobs.size()
            << " knob(s): " << knob_names(minimal.point) << "\n";
  return minimal.point.knobs.size() <= 3 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--points=")) {
      opt.points = flag_value<std::size_t>(arg);
    } else if (arg.starts_with("--seed=")) {
      opt.seed = flag_value<std::uint64_t>(arg);
    } else if (arg.starts_with("--scale=")) {
      opt.scale = flag_value<double>(arg);
    } else if (arg.starts_with("--days=")) {
      opt.days = flag_value<double>(arg);
    } else if (arg.starts_with("--honeypots=")) {
      opt.honeypots = flag_value<std::size_t>(arg);
    } else if (arg.starts_with("--twin=")) {
      opt.twin = flag_value<std::size_t>(arg);
    } else if (arg.starts_with("--out=")) {
      opt.out = arg.substr(arg.find('=') + 1);
    } else if (arg.starts_with("--replay=")) {
      opt.replays.emplace_back(arg.substr(arg.find('=') + 1));
    } else if (arg == "--selftest") {
      opt.selftest = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      usage_error("unknown argument", arg);
    }
  }
  try {
    if (opt.selftest) return run_selftest(opt);
    if (!opt.replays.empty()) return run_replays(opt);
    return run_batch(opt);
  } catch (const std::exception& e) {
    std::cerr << "chaosfuzz: error: " << e.what() << "\n";
    return 1;
  }
}
