#include "scenario/campaign.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <span>

#include "common/memstat.hpp"
#include "scenario/calibration.hpp"

namespace edhp::scenario {
namespace {

/// Standby servers for escalation.
constexpr std::size_t kBackupServers = 1;

/// Project the chaos link knobs onto the network's link model. All-default
/// knobs yield the default model (no extra RNG draws), so link-clean runs
/// are bit-identical to a build without the projection.
net::LinkModel link_model(const fault::ChaosConfig& chaos) {
  net::LinkModel m;
  m.ge_p_enter_bad = chaos.link_burst_enter;
  m.ge_loss_bad = chaos.link_burst_loss;
  m.datagram_dup = chaos.link_dup;
  m.datagram_reorder = chaos.link_reorder;
  return m;
}

honeypot::ManagerConfig manager_config(const CampaignConfig& config,
                                       bool defense) {
  honeypot::ManagerConfig mc = chaos_manager_config(config.chaos);
  mc.defense = defense;
  return mc;
}

/// Fill the conservation ledger from counters every subsystem already
/// keeps, then hard-fail an audited imbalance. `hosts` must cover every
/// honeypot ever launched, fleet and orphans alike. `durable` mirrors the
/// merge path the result took. Call after every other result field is
/// final (degrade, streamed and merged all feed the equation).
void finalize_audit(ScenarioResult& result, const honeypot::Manager& manager,
                    std::span<honeypot::Honeypot* const> hosts, bool durable,
                    bool enforce) {
  auto& a = result.audit;
  a.enabled = enforce;
  a.records_merged = result.merged.records.size();
  a.records_shed = result.degrade.records_shed;
  a.records_excluded = manager.records_excluded_last_merge();
  a.records_streamed = result.records_streamed;
  for (const auto* hp : hosts) {
    a.records_born += hp->records_born();
    a.records_lost_tail += hp->records_lost_tail();
    // In-memory tails reach a live merge but not a durable salvage: they
    // are an accounted (spool-period-bounded) loss only on that path.
    if (durable) a.records_unflushed += hp->unspooled_tail();
  }
  if (durable) {
    a.records_quarantined = manager.records_quarantined_last_merge();
  }
  audit::enforce(a);
}

}  // namespace

World::World(const CampaignConfig& config)
    : simulation(config.seed),
      network(simulation, link_model(config.chaos)),
      catalog(catalog_2008(),
              simulation.rng().split(fault::splits::kCatalog)),
      // The penalty models the *fraction* of the community a published
      // detection reaches, so the product (reports x penalty) must be
      // scale-invariant: fewer simulated peers, louder each report.
      blacklist(config.behavior.gossip_penalty / std::max(config.scale, 1e-6)),
      params(config.behavior) {}

peer::PeerContext World::context(net::NodeId server_node) {
  peer::PeerContext ctx;
  ctx.net = &network;
  ctx.server_node = server_node;
  ctx.server_port = 4661;
  ctx.blacklist = &blacklist;
  ctx.catalog = &catalog;
  ctx.params = &params;
  ctx.diurnal = &diurnal;
  ctx.source_weights = &source_weights;
  ctx.source_cache = &source_cache;
  return ctx;
}

Campaign::Campaign(const CampaignConfig& config)
    : config_(config),
      world_(config),
      // Abuse campaigns run the admission gate (its thresholds are tuned
      // against the default abuse mix in test_abuse.cpp) unless the
      // ablation baseline (`auto_defense == false`) fights bare-handed.
      defense_(config.abuse.enabled && config.auto_defense),
      // The manager's constructor draws nothing and adds no node, so the
      // control plane exists from the start in every scenario.
      manager_(world_.network, manager_config(config, defense_)) {}

honeypot::ServerRef Campaign::add_directory_server(std::string name) {
  // Directory servers come first in the Byzantine plan's numbering.
  assert(standby_refs_.empty());
  directory_refs_.push_back(start_server(std::move(name)));
  return directory_refs_.back();
}

void Campaign::add_standby_servers() {
  if (!config_.chaos.enabled && !config_.chaos.byzantine.enabled) return;
  for (std::size_t s = 0; s < kBackupServers; ++s) {
    standby_refs_.push_back(start_server("standby-" + std::to_string(s)));
  }
}

honeypot::ServerRef Campaign::start_server(std::string name) {
  const auto node = world_.network.add_node(true);
  server::ServerConfig sc;
  sc.name = std::move(name);
  sc.defense = defense_;
  servers_.push_back(
      std::make_unique<server::Server>(world_.network, node, sc));
  servers_.back()->start();
  return honeypot::ServerRef{node, sc.name, 4661};
}

void Campaign::set_backup_servers(
    const std::vector<honeypot::ServerRef>& backups) {
  // The manager journals its backup list, so an idle list is not free.
  if (!config_.chaos.enabled && !config_.chaos.byzantine.enabled) return;
  if (backups.empty()) return;
  manager_.set_backup_servers(backups);
}

honeypot::Honeypot& Campaign::launch(honeypot::HoneypotConfig hp,
                                     const honeypot::ServerRef& server,
                                     bool integrity_defense) {
  const auto& chaos = config_.chaos;
  // Resource budgets: zero ceilings are exact no-ops, so unconditional
  // assignment keeps the budget-free goldens bit-identical.
  hp.budget.disk_quota_bytes = chaos.disk_quota_bytes;
  hp.budget.mem_budget_records = chaos.mem_budget_records;
  hp.budget.session_ceiling = chaos.session_ceiling;
  hp.budget.policy = chaos.degrade_policy;
  hp.audit_selftest_drop = chaos.audit_selftest_drop;
  if (chaos.byzantine.enabled && chaos.byzantine.defend) {
    hp.self_probes = true;
    hp.integrity_defense = integrity_defense;
  }
  random_content_.push_back(hp.strategy ==
                            honeypot::ContentStrategy::random_content);
  const auto host = world_.network.add_node(true);
  const auto index = manager_.launch(std::move(hp), host, server);
  hosts_.push_back(&manager_.honeypot(index));
  return *hosts_.back();
}

void Campaign::arm_adversaries(Duration legacy_host_mtbf) {
  arm_faults(legacy_host_mtbf);
  arm_abuse();
  arm_byzantine();
}

void Campaign::arm_faults(Duration legacy_host_mtbf) {
  auto& rng = world_.simulation.rng();
  if (!config_.chaos.enabled) {
    if (legacy_host_mtbf > 0) {
      // The historical hourly crash grid, bit-for-bit: it walks the
      // manager's fleet table, not the stable host list.
      crash_grid_ = fault::Injector::legacy_crash_grid(
          world_.simulation, legacy_host_mtbf,
          [this] { return manager_.fleet_size(); },
          [this](std::size_t h) { manager_.honeypot(h).crash(); },
          rng.split(fault::splits::kLegacyCrashGrid));
      crash_grid_->start();
    }
    return;
  }
  // A full seeded FaultPlan: host crash/reboot windows, uplink outages,
  // server restarts, latency spikes, partitions, resource faults and
  // control-plane crashes. Dead honeypots are respawned by the manager's
  // status poll, exactly the paper's relaunch mechanism.
  auto plan = fault::make_plan(config_.chaos, hosts_.size(),
                               directory_refs_.size(), config_.days * kDay,
                               rng.split(fault::splits::kChaosSeed));
  fault::Injector::Bindings bind;
  bind.host_count = hosts_.size();
  // Host bindings go through the stable pointers, not the manager's fleet
  // table: a host can crash, reboot or fill its disk while the control
  // plane is down.
  bind.host_node = [this](std::size_t h) { return hosts_[h]->node(); };
  bind.crash_host = [this](std::size_t h) { hosts_[h]->crash(); };
  auto resource_fault = [this](budget::ResourceFault which) {
    return [this, which](std::size_t h, bool active, double magnitude) {
      hosts_[h]->set_resource_fault(which, active, magnitude);
    };
  };
  bind.disk_full = resource_fault(budget::ResourceFault::disk_full);
  bind.disk_slow = resource_fault(budget::ResourceFault::disk_slow);
  bind.mem_pressure = resource_fault(budget::ResourceFault::mem_pressure);
  bind.stop_server = [this](std::size_t s) { servers_[s]->stop(); };
  bind.start_server = [this](std::size_t s) { servers_[s]->start(); };
  bind.crash_manager = [this] {
    manager_down_at_ = world_.simulation.now();
    ++manager_crashes_;
    manager_.crash();
  };
  if (config_.chaos.manager_recovery) {
    bind.recover_manager = [this] {
      manager_.recover(manager_down_at_);
      manager_down_at_ = -1.0;
    };
  }
  faults_ = std::make_unique<fault::Injector>(world_.network, std::move(plan),
                                              std::move(bind));
  faults_->arm();
}

void Campaign::arm_abuse() {
  // Hostile peers against every honeypot and directory server. The
  // injector (and its attacker nodes) exists only when abuse is enabled.
  if (!config_.abuse.enabled) return;
  const Rng abuse_rng =
      world_.simulation.rng().split(fault::splits::kAbuseSeed);
  auto plan = fault::make_plan(config_.abuse, hosts_.size(),
                               directory_refs_.size(), config_.days * kDay,
                               abuse_rng);
  fault::AbuseInjector::Bindings bind;
  bind.honeypot_count = hosts_.size();
  bind.honeypot_node = [this](std::size_t h) { return hosts_[h]->node(); };
  bind.server_count = directory_refs_.size();
  bind.server_node = [this](std::size_t s) {
    return directory_refs_[s].node;
  };
  abuse_ = std::make_unique<fault::AbuseInjector>(
      world_.network, std::move(plan), config_.abuse, std::move(bind),
      abuse_rng.split(fault::splits::kAbuseContent));
  abuse_->arm();
}

void Campaign::arm_byzantine() {
  // Lie windows flipped on the live servers (directory and standby), liar
  // peers run against the honeypots. Gated exactly like abuse.
  const auto& byz = config_.chaos.byzantine;
  if (!byz.enabled) return;
  const Rng byz_rng =
      world_.simulation.rng().split(fault::splits::kByzantineSeed);
  auto plan = fault::make_plan(byz, hosts_.size(), servers_.size(),
                               config_.days * kDay, byz_rng);
  fault::ByzantineInjector::Bindings bind;
  bind.honeypot_count = hosts_.size();
  bind.honeypot_node = [this](std::size_t h) { return hosts_[h]->node(); };
  bind.drop_offers = [this](std::size_t s, bool active) {
    servers_[s]->set_drop_offers(active);
  };
  bind.truncate_offers = [this](std::size_t s, bool active, double keep) {
    servers_[s]->set_truncate_offers(active, keep);
  };
  bind.stale_index = [this](std::size_t s, bool active) {
    servers_[s]->set_stale_index(active);
  };
  bind.fabricate_sources = [this](std::size_t s, bool active,
                                  std::size_t count, std::uint64_t seed) {
    servers_[s]->set_fabricate_sources(active, count, seed);
  };
  bind.corrupt_search = [this](std::size_t s, bool active,
                               std::uint64_t seed) {
    servers_[s]->set_corrupt_search(active, seed);
  };
  bind.advertised_files = [this](std::size_t h) {
    return hosts_[h]->published_files();
  };
  byzantine_ = std::make_unique<fault::ByzantineInjector>(
      world_.network, std::move(plan), byz, std::move(bind),
      byz_rng.split(fault::splits::kByzContent));
  byzantine_->arm();
}

void Campaign::run_days(double days, std::ostream* progress) {
  // Day by day: a progress line each, and bounded queue growth.
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(days); ++d) {
    world_.simulation.run_until((d + 1) * kDay);
    if (progress != nullptr) {
      *progress << "  day " << day_index(world_.simulation.now()) << "/"
                << static_cast<int>(days) << ", events "
                << world_.simulation.executed() << "\n";
    }
  }
  world_.simulation.run_until(days * kDay);
}

void Campaign::stop() {
  // A crash window can reach past the horizon (its recover event is never
  // emitted). With recovery on, the restarted process replays the journal
  // now so the final gathering flushes every honeypot; with recovery off
  // the control plane stays dead and the run publishes what the durable
  // state alone can salvage.
  if (manager_down_at_ >= 0 && config_.chaos.manager_recovery) {
    manager_.recover(manager_down_at_);
    manager_down_at_ = -1.0;
  }
  manager_.stop();
}

void Campaign::fill(ScenarioResult& result,
                    const peer::Population& population) {
  // After any control-plane crash the published dataset is what the durable
  // pipeline (journal-acked chunk store + salvaged local spools) yields —
  // the run's headline claim is that it matches the live merge bit-for-bit.
  const bool durable = manager_crashes_ > 0;
  result.merged =
      durable ? manager_.merged_anonymized_durable(&result.distinct_peers)
              : manager_.merged_anonymized(&result.distinct_peers);
  // The merge above is what fills the timestamp-integrity ledger and fixes
  // records_excluded; read them only afterwards.
  result.time_integrity = manager_.time_integrity();
  result.integrity = manager_.integrity_stats();
  result.honeypots = hosts_.size();
  result.days = config_.days;
  result.random_content = random_content_;
  result.observed = manager_.observed_files();
  result.relaunches = manager_.relaunches();
  result.peer_totals = population.totals();
  result.recovery = manager_.recovery_stats();
  if (faults_) {
    result.faults = faults_->stats();
    result.recovery.manager_crashes = result.faults.manager_crashes;
  }
  if (manager_down_at_ >= 0) {
    result.recovery.manager_downtime +=
        world_.simulation.now() - manager_down_at_;
  }
  result.engine = world_.simulation.stats();
  result.net_totals = world_.network.totals();
  result.population_arrivals = population.arrivals();
  result.population_peak_active = population.peak_active();
  result.population_slab_slots = population.slab_capacity();
  result.net_peak_live_nodes = world_.network.peak_live_node_count();
  result.net_nodes_retired = world_.network.nodes_retired();

  result.defense = manager_.defense_stats();
  for (const auto& s : servers_) {
    result.defense += s->defense_stats();
  }
  for (const auto* hp : hosts_) {
    result.degrade += hp->degrade_stats();
  }
  if (abuse_) result.abuse = abuse_->stats();
  if (byzantine_) result.byzantine = byzantine_->stats();

  // Community reputation per strategy group (1.0 = never reported).
  result.blacklist_reports = world_.blacklist.reports();
  double rep_nc = 0, rep_rc = 0;
  std::size_t n_nc = 0, n_rc = 0;
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    const auto ip = world_.network.info(hosts_[h]->node()).ip.value();
    const double rep = world_.blacklist.reputation(ip);
    if (random_content_[h]) {
      rep_rc += rep;
      ++n_rc;
    } else {
      rep_nc += rep;
      ++n_nc;
    }
  }
  if (n_nc > 0) {
    result.reputation_no_content = rep_nc / static_cast<double>(n_nc);
  }
  if (n_rc > 0) {
    result.reputation_random_content = rep_rc / static_cast<double>(n_rc);
  }

  // Stream-mode accounting: sum the counts, chain the per-honeypot
  // fingerprints (in launch order, orphans of a dead manager included) into
  // one run fingerprint.
  std::uint64_t sf = 1469598103934665603ull;
  for (const auto* hp : hosts_) {
    result.records_streamed += hp->records_streamed();
    sf ^= hp->stream_fingerprint();
    sf *= 1099511628211ull;
  }
  result.stream_fingerprint = sf;
  result.peak_rss_bytes = peak_rss_bytes();
  finalize_audit(result, manager_, hosts_, durable, config_.audit);
}

}  // namespace edhp::scenario
