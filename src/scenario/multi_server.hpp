#pragma once
// Multi-server measurement: the strategy the paper sketches in Section
// III.A — "one may typically choose a different server for each honeypot,
// in order to obtain a more global view", with server choice "guided by
// their resources and number of users".
//
// The simulated network runs several directory servers of different sizes;
// each peer is homed on one server (weighted by size) and only discovers
// providers indexed there. The manager surveys the servers over UDP and
// spreads honeypots across them proportionally to their user counts, so
// the fleet observes subpopulations a single-server deployment would miss.

#include "scenario/scenario.hpp"

namespace edhp::scenario {

struct MultiServerConfig : CampaignConfig {
  std::size_t honeypots = 8;
  /// Relative size (resident user share) of each simulated server. Kept:
  /// the multi-server goldens pin a {0.5, 0.3, 0.2} campaign.
  std::vector<double> server_sizes = {0.45, 0.3, 0.15, 0.1};

  MultiServerConfig();
};

struct MultiServerResult {
  ScenarioResult base;  ///< merged log, distinct peers, etc.
  /// Manager's survey outcome: users seen per server, busiest first.
  std::vector<std::pair<std::string, std::uint32_t>> survey;
  /// server index assigned to each honeypot.
  std::vector<std::size_t> server_of_honeypot;
  /// Distinct peers observed per honeypot.
  std::vector<std::uint64_t> peers_per_honeypot;
};

[[nodiscard]] MultiServerResult run_multi_server(const MultiServerConfig& config,
                                                 std::ostream* progress = nullptr);

}  // namespace edhp::scenario
