// The paper's greedy campaign as an application: one honeypot that asks
// every contacting peer for its shared-file list, adopts everything during
// the first day, and then simply logs for two weeks.
//
// Run: ./build/examples/greedy_measurement [--scale=0.05] [--days=15]

#include <iostream>
#include <string>

#include "analysis/log_stats.hpp"
#include "analysis/report.hpp"
#include "honeypot/config.hpp"
#include "scenario/scenario.hpp"

using namespace edhp;

int main(int argc, char** argv) {
  scenario::GreedyConfig config;
  config.scale = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) config.scale = std::stod(arg.substr(8));
    if (arg.rfind("--days=", 0) == 0) config.days = std::stod(arg.substr(7));
    if (arg.rfind("--seed=", 0) == 0) config.seed = std::stoull(arg.substr(7));
  }

  std::cout << "greedy measurement: 1 honeypot, " << config.days
            << " days, harvest window "
            << honeypot::kGreedyHarvestWindow / kDay << " day(s), scale "
            << config.scale << "\n";
  const auto result = scenario::run_greedy(config, &std::cout);

  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("advertised files after harvest",
                    analysis::with_commas(result.advertised_files));
  rows.emplace_back("distinct peers", analysis::with_commas(result.distinct_peers));
  rows.emplace_back("distinct files observed",
                    analysis::with_commas(result.observed.distinct));
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f TB",
                  static_cast<double>(result.observed.bytes) / 1e12);
    rows.emplace_back("space covered by observed files", buf);
  }
  rows.emplace_back("log records",
                    analysis::with_commas(result.merged.records.size()));
  analysis::print_kv(std::cout, "campaign summary", rows);

  // Per-day novelty: the signature of Fig 3.
  const auto series = analysis::distinct_peers_by_day(
      result.merged, std::nullopt, static_cast<std::size_t>(config.days));
  std::cout << "new peers per day (day 1 is the harvest phase):\n";
  for (std::size_t d = 0; d < series.fresh.size(); ++d) {
    std::cout << "  day " << d + 1 << ": " << series.fresh[d] << "\n";
  }

  // The most and least queried files, as in the paper's Fig 12 commentary.
  const auto popularity = analysis::file_popularity(result.merged);
  if (!popularity.empty()) {
    std::cout << "most queried file: " << popularity.front().peers
              << " peers; least: " << popularity.back().peers << " peers over "
              << popularity.size() << " queried files\n";
  }
  return 0;
}
