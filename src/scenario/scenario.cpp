#include "scenario/scenario.hpp"

#include <cmath>

#include "fault/rng_splits.hpp"
#include "peer/population.hpp"
#include "peer/top_peer.hpp"
#include "scenario/calibration.hpp"
#include "scenario/campaign.hpp"

namespace edhp::scenario {

namespace splits = fault::splits;

honeypot::ManagerConfig chaos_manager_config(const fault::ChaosConfig& chaos) {
  honeypot::ManagerConfig mc;
  if (chaos.byzantine.enabled && chaos.byzantine.defend) {
    // Quarantine policy rides with the Byzantine model, independent of the
    // crash/outage switch: a lying server is a threat even in an otherwise
    // healthy run. Byzantine-only campaigns still get a journal so probe
    // verdicts and quarantine decisions leave an auditable trail (appends
    // consume no RNG draws and schedule no events).
    mc.quarantine_threshold = chaos.byzantine.quarantine_threshold;
    if (!chaos.enabled) {
      mc.journal = std::make_shared<logbook::Journal>();
    }
  }
  if (!chaos.enabled) return mc;
  mc.retry = true;
  mc.spool.enabled = true;
  mc.spool.period = chaos.spool_period;
  mc.resend_credit = chaos.resend_credit;
  // Control-plane durability: the write-ahead journal and the chunk store
  // live outside the Manager object, modelling the fsync'd files that
  // survive a control-plane crash. Appending to the journal consumes no
  // RNG draws and schedules no events, so chaos schedules are unchanged.
  mc.journal = std::make_shared<logbook::Journal>();
  mc.spool_store = std::make_shared<logbook::SpoolStore>();
  // Clock tracking rides with the clock fault knobs: sightings are recorded
  // on exchanges that happen anyway (status polls, fresh spool cuts), so
  // enabling it consumes no RNG draws and schedules no events.
  mc.track_clocks = chaos.clock_drift_mtbf > 0 || chaos.clock_step_mtbf > 0 ||
                    chaos.clock_freeze_mtbf > 0;
  return mc;
}

CampaignConfig::CampaignConfig() : behavior(behavior_2008()) {}

DistributedConfig::DistributedConfig() {
  scale = 0.25;
  seed = 20081001;
  days = 32;
}

GreedyConfig::GreedyConfig() {
  scale = 0.25;
  seed = 20081101;
  days = 15;
  // Among thousands of harvested files, clients typically want several from
  // the same provider (Figs 11/12 imply ~3.6 files per observed peer).
  behavior.secondary_targets_mean = 4.0;
}

ScenarioResult run_distributed(const DistributedConfig& config,
                               std::ostream* progress) {
  Campaign campaign(config);
  World& world = campaign.world();
  if (config.diurnal) {
    world.diurnal = *config.diurnal;
  }
  auto& rng = campaign.rng();

  // The large server all honeypots connect to, plus standby servers for
  // watchdog escalation and Byzantine quarantine.
  const auto server = campaign.add_directory_server("big-server-2008");
  campaign.add_standby_servers();
  campaign.set_backup_servers(campaign.standby());

  // Fleet: PlanetLab-like hosts; first half no-content, second half
  // random-content (the paper's 12/12 split).
  // Visibility weights are drawn once per host *pair* (one no-content, one
  // random-content honeypot share each draw), so the two strategy groups
  // have identical weight profiles and the Fig 5/6 gap isolates the
  // blacklisting effect instead of host heterogeneity.
  Rng weight_rng = rng.split(splits::kPairWeights);
  const std::size_t half = std::max<std::size_t>(1, config.honeypots / 2);
  std::vector<double> pair_weights(half);
  for (auto& w : pair_weights) {
    w = weight_rng.lognormal(0.0, config.behavior.source_weight_sigma);
  }
  for (std::size_t h = 0; h < config.honeypots; ++h) {
    honeypot::HoneypotConfig hp;
    hp.id = static_cast<std::uint16_t>(h);
    hp.name = "hp-" + std::to_string(h);
    hp.strategy = h >= config.honeypots / 2
                      ? honeypot::ContentStrategy::random_content
                      : honeypot::ContentStrategy::no_content;
    hp.stream_records = config.stream_records;
    const auto host = campaign.launch(std::move(hp), server).node();
    // Per-honeypot visibility weight (uptime, bandwidth, position in
    // provider lists): drives the Fig 10 min/max spread.
    world.source_weights[world.network.info(host).ip.value()] =
        pair_weights[h % half];
  }
  campaign.manager().start();

  // The four advertised fake files.
  std::vector<honeypot::AdvertisedFile> files;
  Rng id_rng = rng.split(splits::kFileIds);
  for (const auto& d : kDistributedFiles) {
    files.push_back(honeypot::AdvertisedFile{
        FileId::from_words(id_rng(), id_rng()), d.name, d.size});
  }
  // Give honeypots a moment to log in before advertising.
  world.simulation.run_until(30.0);
  campaign.manager().advertise_all(files);
  ScenarioResult result;
  for (const auto& f : files) {
    result.advertised_ids.push_back(f.id);
  }
  result.advertised_files = files.size();

  // Interested-peer demand per file. A population override rescales every
  // file's finite pool pro-rata so the pools sum to the override, while the
  // arrival rates stay at the campaign baseline: the interested population
  // is how many peers *could* arrive, and since unarrived peers are pure
  // per-demand accounting, memory stays bounded by concurrency (rate x
  // lifetime) no matter how large the pool grows. Pools smaller than the
  // baseline bite earlier; pools larger never bite sooner.
  double pool_factor = 1.0;
  if (config.population_override > 0) {
    double scaled_total = 0;
    for (const auto& d : kDistributedFiles) {
      scaled_total += static_cast<double>(d.population) * config.scale;
    }
    pool_factor =
        static_cast<double>(config.population_override) / scaled_total;
  }
  peer::Population population(world.context(server.node),
                              rng.split(splits::kPopulation),
                              config.population_mode);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& d = kDistributedFiles[i];
    peer::FileDemand demand;
    demand.file = files[i].id;
    demand.base_rate_per_day = d.rate_per_day * config.scale;
    demand.decay_per_day = d.decay_per_day;
    demand.population = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(d.population) * config.scale * pool_factor));
    demand.ramp_up = hours(6);  // server indexing + peers' re-query cadence
    population.add_demand(demand);
  }
  // Interested peers only find the honeypots once the server has indexed
  // and republished the OFFER-FILES lists; the paper saw its first query
  // after ~10 minutes.
  world.simulation.schedule_at(minutes(8),
                               [&population] { population.start(); });

  campaign.arm_adversaries(config.host_mtbf);

  // The single hyperactive peer of Figs 8/9.
  std::unique_ptr<peer::TopPeer> top;
  if (config.with_top_peer) {
    Rng top_rng = rng.split(splits::kTopPeer);
    peer::PeerProfile profile =
        peer::sample_profile(top_rng, config.behavior, world.diurnal);
    profile.client_name = "MLDonkey 2.9";  // crawler-ish client
    top = std::make_unique<peer::TopPeer>(world.network, server.node, profile,
                                          files[0].id, top_rng.split(7));
    world.simulation.schedule_at(hours(6), [&top] { top->start(); });
  }

  campaign.run_days(config.days, progress);
  population.stop();
  if (top) top->stop();
  campaign.stop();
  campaign.fill(result, population);
  return result;
}

ScenarioResult run_greedy(const GreedyConfig& config, std::ostream* progress) {
  Campaign campaign(config);
  World& world = campaign.world();
  auto& rng = campaign.rng();

  const auto server = campaign.add_directory_server("big-server-2008");
  honeypot::HoneypotConfig hp;
  hp.id = 0;
  hp.name = "hp-greedy";
  hp.strategy = honeypot::ContentStrategy::no_content;  // sent no content
  hp.greedy = true;
  hp.greedy_max_files = std::max<std::size_t>(
      kGreedyAdvertisedFloor,
      static_cast<std::size_t>(
          std::llround(static_cast<double>(kGreedyAdvertisedFiles) * config.scale)));
  // integrity_defense stays OFF for the greedy strategy: it adopts the very
  // files it harvests from contacting peers, so the forged-list rule (peer
  // claims our own advertised hashes) would flag every honest provider and
  // break the harvest. Self-probes alone still catch the server-side lies.
  const honeypot::Honeypot& greedy =
      campaign.launch(std::move(hp), server, /*integrity_defense=*/false);
  campaign.manager().start();

  // Seed files from the catalog.
  std::vector<honeypot::AdvertisedFile> seeds;
  for (const auto rank : kGreedySeeds) {
    const auto& f = world.catalog.at(rank);
    seeds.push_back(honeypot::AdvertisedFile{f.id, f.name, f.size});
  }
  world.simulation.run_until(30.0);
  campaign.manager().advertise(0, seeds);
  campaign.arm_adversaries();

  // Demands follow the advertised list as it grows: a watcher adds a demand
  // for every newly advertised file. Per-file demand is a property of the
  // network (not of the honeypot) and is NOT scaled: the greedy measurement
  // scales through the size of the harvested list instead.
  peer::Population population(world.context(server.node),
                              rng.split(splits::kPopulation),
                              config.population_mode);
  Rng demand_rng = rng.split(splits::kGreedyDemand);
  std::size_t demanded = 0;
  auto sync_demands = [&] {
    // Through the stable handle: the watcher keeps firing during a
    // control-plane outage, when the manager's fleet table is empty.
    const auto& advertised = greedy.advertised();
    while (demanded < advertised.size()) {
      const auto& file = advertised[demanded];
      ++demanded;
      const double peers_over_run = demand_rng.lognormal(
          kGreedyPeersPerFileMu, kGreedyPeersPerFileSigma);
      peer::FileDemand demand;
      demand.file = file.id;
      demand.base_rate_per_day = peers_over_run / config.days;
      demand.decay_per_day = 0.0;  // stable inflow (Fig 3)
      demand.population = static_cast<std::uint64_t>(
          std::llround(peers_over_run * kGreedyPoolFactor));
      // Fresh advertisements are noticed gradually: this keeps day 1 (the
      // harvest phase) nearly invisible in Fig 3, as the paper observed.
      demand.ramp_up = hours(20);
      population.add_demand(demand);
    }
  };
  sync_demands();
  sim::PeriodicTimer demand_watcher(world.simulation, minutes(10), sync_demands);
  demand_watcher.start();
  population.start();

  campaign.run_days(config.days, progress);
  demand_watcher.stop();
  population.stop();
  campaign.stop();
  ScenarioResult result;
  for (const auto& f : greedy.advertised()) {
    result.advertised_ids.push_back(f.id);
  }
  result.advertised_files = result.advertised_ids.size();
  campaign.fill(result, population);
  return result;
}

std::function<bool(std::uint16_t)> strategy_filter(const ScenarioResult& result,
                                                   bool random_content) {
  std::vector<bool> mask = result.random_content;
  return [mask, random_content](std::uint16_t h) {
    return h < mask.size() && mask[h] == random_content;
  };
}

}  // namespace edhp::scenario
