#pragma once
// Command line and campaign configs shared by the bench harnesses:
// bench_reproduce (Table I and Figs 2-12 from one run of each campaign) and
// the ablations.
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

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
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

}  // namespace edhp::bench
