#include "scenario/multi_server.hpp"

#include <cmath>

#include "analysis/log_stats.hpp"
#include "fault/rng_splits.hpp"
#include "peer/population.hpp"
#include "scenario/calibration.hpp"
#include "scenario/campaign.hpp"

namespace edhp::scenario {

namespace splits = fault::splits;

namespace {

/// Resident (idle, logged-in) clients representing each server's standing
/// population, at scale 1.
constexpr std::size_t kResidentsAtScale1 = 2000;

/// An idle resident client: logs in and just sits on the server, giving it
/// a standing user count for the manager's survey.
struct Resident {
  net::EndpointPtr endpoint;
};

}  // namespace

MultiServerConfig::MultiServerConfig() {
  scale = 0.1;
  seed = 20081201;
  days = 10;
}

MultiServerResult run_multi_server(const MultiServerConfig& config,
                                   std::ostream* progress) {
  Campaign campaign(config);
  World& world = campaign.world();
  auto& rng = campaign.rng();

  // --- Servers of different sizes -------------------------------------------
  const std::size_t n_servers = config.server_sizes.size();
  for (std::size_t i = 0; i < n_servers; ++i) {
    campaign.add_directory_server("server-" + std::to_string(i));
  }
  const auto& refs = campaign.directory();

  // Residents give each server its standing population.
  std::vector<Resident> residents;
  double total_size = 0;
  for (double s : config.server_sizes) total_size += s;
  std::vector<std::size_t> resident_counts;
  std::size_t resident_total = 0;
  for (std::size_t i = 0; i < n_servers; ++i) {
    resident_counts.push_back(static_cast<std::size_t>(std::llround(
        static_cast<double>(kResidentsAtScale1) * config.scale *
        config.server_sizes[i] / total_size)));
    resident_total += resident_counts.back();
  }
  // Callbacks capture references into this vector: reserve up front so they
  // never dangle.
  residents.reserve(resident_total);
  Rng resident_rng = rng.split(splits::kMultiServerResidents);
  for (std::size_t i = 0; i < n_servers; ++i) {
    const auto count = resident_counts[i];
    for (std::size_t c = 0; c < count; ++c) {
      const auto node = world.network.add_node(true);
      residents.emplace_back();
      auto& resident = residents.back();
      world.network.connect(
          node, refs[i].node, [&resident, &resident_rng](net::EndpointPtr ep) {
            if (!ep) return;
            resident.endpoint = std::move(ep);
            proto::LoginRequest login;
            login.user = UserId::from_words(resident_rng(), resident_rng());
            login.port = 4662;
            login.tags = {proto::Tag::string_tag(proto::kTagName, "resident")};
            resident.endpoint->send(proto::encode(login));
          });
    }
  }
  world.simulation.run_until(30.0);

  // --- Manager surveys and assigns -------------------------------------------
  // In adversarial runs the sibling servers double as escalation backups, so
  // a honeypot whose server keeps refusing it is redirected — the paper's
  // "redirect them toward other servers".
  campaign.set_backup_servers(refs);
  MultiServerResult result;
  const auto probe = world.network.add_node(true);
  std::vector<honeypot::Manager::ServerSurveyEntry> survey;
  campaign.manager().survey_servers(refs, probe, 5.0, [&survey](auto entries) {
    survey = std::move(entries);
  });
  world.simulation.run_until(40.0);

  for (const auto& entry : survey) {
    result.survey.emplace_back(entry.server.name, entry.users);
  }

  // Assign honeypots proportionally to surveyed user counts (largest-
  // remainder): busy servers get more honeypots.
  std::vector<std::size_t> assignment;
  if (!survey.empty()) {
    double users_total = 0;
    for (const auto& e : survey) users_total += e.users;
    std::size_t assigned = 0;
    for (const auto& e : survey) {
      const auto share = users_total > 0
                             ? static_cast<std::size_t>(std::floor(
                                   static_cast<double>(config.honeypots) *
                                   static_cast<double>(e.users) / users_total))
                             : 0;
      for (std::size_t k = 0; k < share && assigned < config.honeypots; ++k) {
        for (std::size_t i = 0; i < refs.size(); ++i) {
          if (refs[i].name == e.server.name) assignment.push_back(i);
        }
        ++assigned;
      }
    }
    std::size_t next = 0;
    while (assigned < config.honeypots) {  // leftovers round-robin by rank
      const auto& e = survey[next++ % survey.size()];
      for (std::size_t i = 0; i < refs.size(); ++i) {
        if (refs[i].name == e.server.name) assignment.push_back(i);
      }
      ++assigned;
    }
  } else {
    for (std::size_t h = 0; h < config.honeypots; ++h) {
      assignment.push_back(h % n_servers);
    }
  }

  for (std::size_t h = 0; h < config.honeypots; ++h) {
    honeypot::HoneypotConfig hp;
    hp.id = static_cast<std::uint16_t>(h);
    hp.name = "mhp-" + std::to_string(h);
    hp.strategy = honeypot::ContentStrategy::random_content;
    campaign.launch(std::move(hp), refs[assignment[h]]);
  }
  result.server_of_honeypot = assignment;
  campaign.manager().start();
  campaign.arm_adversaries();

  // --- Advertised files + demand ----------------------------------------------
  std::vector<honeypot::AdvertisedFile> files;
  Rng id_rng = rng.split(splits::kFileIds);
  for (const auto& d : kDistributedFiles) {
    files.push_back(honeypot::AdvertisedFile{
        FileId::from_words(id_rng(), id_rng()), d.name, d.size});
  }
  world.simulation.run_until(60.0);
  campaign.manager().advertise_all(files);
  for (const auto& f : files) {
    result.base.advertised_ids.push_back(f.id);
  }
  result.base.advertised_files = files.size();

  // Each peer is homed on one server, weighted by size.
  peer::PeerContext ctx = world.context(refs[0].node);
  for (std::size_t i = 0; i < n_servers; ++i) {
    ctx.home_servers.push_back(refs[i].node);
    ctx.home_server_weights.push_back(config.server_sizes[i]);
  }
  peer::Population population(ctx, rng.split(splits::kPopulation),
                              config.population_mode);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& d = kDistributedFiles[i];
    peer::FileDemand demand;
    demand.file = files[i].id;
    demand.base_rate_per_day = d.rate_per_day * config.scale;
    demand.decay_per_day = d.decay_per_day;
    demand.population = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(d.population) * config.scale));
    demand.ramp_up = hours(6);
    population.add_demand(demand);
  }
  world.simulation.schedule_at(minutes(10),
                               [&population] { population.start(); });

  // Whole days only: this campaign's published dataset must not change for
  // a fractional `days` (the single-server campaigns run the partial day).
  campaign.run_days(std::floor(config.days), progress);
  population.stop();
  campaign.stop();
  for (auto& r : residents) {
    if (r.endpoint) r.endpoint->close();
  }
  campaign.fill(result.base, population);

  const auto sets =
      analysis::peer_sets_by_honeypot(result.base.merged, config.honeypots);
  for (const auto& s : sets) {
    result.peers_per_honeypot.push_back(s.count());
  }
  return result;
}

}  // namespace edhp::scenario
