// The paper's distributed campaign as an application: 24 honeypots on one
// server, 4 advertised files, two content strategies, a month of simulated
// time — then the full analysis pass over the merged anonymised log.
//
// Run: ./build/examples/distributed_measurement [--scale=0.05] [--days=32]

#include <iostream>
#include <string>

#include "analysis/log_stats.hpp"
#include "analysis/report.hpp"
#include "analysis/subsets.hpp"
#include "scenario/scenario.hpp"

using namespace edhp;

int main(int argc, char** argv) {
  scenario::DistributedConfig config;
  config.scale = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) config.scale = std::stod(arg.substr(8));
    if (arg.rfind("--days=", 0) == 0) config.days = std::stod(arg.substr(7));
    if (arg.rfind("--seed=", 0) == 0) config.seed = std::stoull(arg.substr(7));
  }

  std::cout << "distributed measurement: " << config.honeypots
            << " honeypots, " << config.days << " days, scale " << config.scale
            << "\n";
  const auto result = scenario::run_distributed(config, &std::cout);

  // --- Campaign summary -----------------------------------------------------
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("distinct peers", analysis::with_commas(result.distinct_peers));
  rows.emplace_back("distinct files observed",
                    analysis::with_commas(result.observed.distinct));
  rows.emplace_back("log records",
                    analysis::with_commas(result.merged.records.size()));
  rows.emplace_back("honeypot relaunches (host crashes)",
                    analysis::with_commas(result.relaunches));
  rows.emplace_back("published blacklist reports",
                    analysis::with_commas(result.blacklist_reports));
  rows.emplace_back("wire messages simulated",
                    analysis::with_commas(result.net_totals.messages_delivered));
  rows.emplace_back("simulation events",
                    analysis::with_commas(result.engine.events_executed));
  analysis::print_kv(std::cout, "campaign summary", rows);

  // --- Strategy comparison ----------------------------------------------------
  const auto days = static_cast<std::size_t>(result.days);
  for (auto type : {logbook::QueryType::hello, logbook::QueryType::start_upload}) {
    const auto rc = analysis::distinct_peers_by_day(
        result.merged, type, days, scenario::strategy_filter(result, true));
    const auto nc = analysis::distinct_peers_by_day(
        result.merged, type, days, scenario::strategy_filter(result, false));
    std::cout << logbook::to_string(type) << " peers: random-content "
              << rc.total << " vs no-content " << nc.total << "\n";
  }

  // --- How many honeypots were worth it? --------------------------------------
  const auto sets = analysis::peer_sets_by_honeypot(result.merged, result.honeypots);
  analysis::ThreadPool pool;
  const auto curve = analysis::subset_union_curve(sets, 100, Rng(1), &pool);
  std::cout << "\nmarginal value of each additional honeypot (avg of 100 "
               "subsets):\n";
  for (std::size_t n = 1; n < curve.size(); n += 4) {
    std::cout << "  " << n + 1 << " honeypots: " << curve.avg[n] << " peers (+"
              << curve.avg[n] - curve.avg[n - 1] << ")\n";
  }
  return 0;
}
