#pragma once
// Command line, campaign configs, the timed campaign run and the JSON record
// shared by the bench harnesses: bench_reproduce (Table I and Figs 2-12 from
// one run of each campaign), the ablations and the micro benches.
//
// Every harness accepts:
//   --scale=<f>   population scale (1.0 = paper scale; default per harness)
//   --paper       shorthand for --scale=1.0
//   --seed=<n>    RNG seed (default: the scenario's own)
//   --days=<d>    shorten the measurement (shapes preserved)
//   --quiet       suppress per-day progress
//   --help        print the usage and exit
// Any other argument, or a value that is not a complete number, prints the
// usage to stderr and exits with status 2.

#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "common/parse.hpp"
#include "scenario/scenario.hpp"

namespace edhp::bench {

struct Options {
  double scale = 0.2;
  std::optional<std::uint64_t> seed;  ///< unset: keep the scenario default
  std::optional<double> days;
  bool quiet = false;
};

inline constexpr std::string_view kUsage =
    "options: --scale=<f> | --paper | --seed=<n> | --days=<d> | --quiet\n";

[[noreturn]] inline void usage_error(std::string_view what,
                                     std::string_view arg) {
  std::cerr << what << ": " << arg << "\n" << kUsage;
  std::exit(2);
}

/// The number after the `=` of `arg`; anything but a complete number is a
/// usage error.
template <class T>
T parse_value(std::string_view arg) {
  const auto value = parse_number<T>(arg.substr(arg.find('=') + 1));
  if (!value) usage_error("not a number", arg);
  return *value;
}

inline Options parse_options(int argc, char** argv, double default_scale = 0.2) {
  Options opt;
  opt.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--paper") {
      opt.scale = 1.0;
    } else if (arg.starts_with("--scale=")) {
      opt.scale = parse_value<double>(arg);
    } else if (arg.starts_with("--seed=")) {
      opt.seed = parse_value<std::uint64_t>(arg);
    } else if (arg.starts_with("--days=")) {
      opt.days = parse_value<double>(arg);
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help") {
      std::cout << kUsage;
      std::exit(0);
    } else {
      usage_error("unknown argument", arg);
    }
  }
  return opt;
}

inline scenario::DistributedConfig distributed_config(const Options& opt) {
  scenario::DistributedConfig config;
  config.scale = opt.scale;
  if (opt.seed) config.seed = *opt.seed;
  if (opt.days) config.days = *opt.days;
  return config;
}

inline scenario::GreedyConfig greedy_config(const Options& opt) {
  scenario::GreedyConfig config;
  config.scale = opt.scale;
  if (opt.seed) config.seed = *opt.seed;
  if (opt.days) config.days = *opt.days;
  return config;
}

/// A campaign's result with the wall time it took.
struct TimedRun {
  scenario::ScenarioResult result;
  double wall_seconds = 0;
  double events_per_sec = 0;  ///< engine events executed per wall second
};

/// One distributed campaign on the wall clock.
inline TimedRun timed_run(const scenario::DistributedConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  TimedRun run{scenario::run_distributed(config)};
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.events_per_sec =
      static_cast<double>(run.result.engine.events_executed) /
      run.wall_seconds;
  return run;
}

/// One field of a bench record: an integer prints in full, a real with a
/// fixed number of decimals.
struct Field {
  template <std::integral T>
  Field(std::string_view name, T value)
      : key(name), text(std::to_string(value)) {}
  Field(std::string_view name, double value, int decimals) : key(name) {
    char buf[400];  // any double at up to 80 decimals (DBL_MAX: 309 digits)
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    text = buf;
  }
  std::string key;
  std::string text;
};

/// Print a bench's record: one JSON object on one line, `"bench":<name>`
/// first and then `fields` in order. It is the last line a bench prints,
/// the line its BENCH_<name>.json keeps and scripts/bench_gate.py checks.
inline void print_record(std::string_view name,
                         std::initializer_list<Field> fields) {
  std::string line = "{\"bench\":\"" + std::string(name) + '"';
  for (const Field& f : fields) {
    line += ",\"" + f.key + "\":" + f.text;
  }
  std::cout << line << "}\n";
}

}  // namespace edhp::bench
