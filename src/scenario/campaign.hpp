#pragma once
// Campaign: the control plane every measurement scenario shares. Private to
// src/scenario/ — the public entry points are run_distributed, run_greedy
// and run_multi_server.
//
// The paper's manager is one control plane for both campaigns and for the
// multi-server strategy of §III.A: it launches honeypots, assigns them to
// servers, monitors and relaunches them, and gathers and merges their logs.
// A Campaign owns that plane plus the world it runs in (engine, network
// with the chaos link model, catalog, blacklist), the directory and standby
// servers under the effective defense policy, the fault/abuse/Byzantine
// injectors bound to the fleet, manager-outage tracking, the day loop and
// the assembly of the published result. A scenario supplies only topology,
// demand and advertising policy, calling the steps below in its own order.
//
// Call order is part of every golden: add_node order fixes IP assignment,
// and rng().split() draws from the live engine RNG, which random-content
// honeypots also draw from while the engine runs. A scenario therefore
// never moves a step across a run_until, or ahead of a node it follows.

#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/abuse.hpp"
#include "fault/byzantine.hpp"
#include "fault/fault.hpp"
#include "honeypot/manager.hpp"
#include "peer/population.hpp"
#include "scenario/scenario.hpp"
#include "server/server.hpp"

namespace edhp::scenario {

/// Engine, network and the shared peer-side state of one measurement run.
struct World {
  sim::Simulation simulation;
  net::Network network;
  sim::DiurnalProfile diurnal = sim::DiurnalProfile::european_2008();
  peer::FileCatalog catalog;
  peer::SharedBlacklist blacklist;
  peer::BehaviorParams params;
  peer::SourceCache source_cache;
  std::unordered_map<std::uint32_t, double> source_weights;

  explicit World(const CampaignConfig& config);

  [[nodiscard]] peer::PeerContext context(net::NodeId server_node);
};

class Campaign {
 public:
  explicit Campaign(const CampaignConfig& config);
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  [[nodiscard]] World& world() noexcept { return world_; }
  [[nodiscard]] Rng& rng() noexcept { return world_.simulation.rng(); }
  [[nodiscard]] honeypot::Manager& manager() noexcept { return manager_; }
  /// Directory servers, in the order the fault, abuse and Byzantine plans
  /// number them.
  [[nodiscard]] const std::vector<honeypot::ServerRef>& directory() const {
    return directory_refs_;
  }
  [[nodiscard]] const std::vector<honeypot::ServerRef>& standby() const {
    return standby_refs_;
  }

  /// Start a directory server on a fresh node under the campaign's defense.
  honeypot::ServerRef add_directory_server(std::string name);
  /// Start the standby servers (one) — only when chaos or the
  /// Byzantine model is on: their nodes would shift every later IP
  /// assignment otherwise. Byzantine lie windows target them too.
  void add_standby_servers();
  /// The manager's escalation and quarantine targets. Only adversarial runs
  /// (chaos or Byzantine) hand them over; elsewhere the call is a no-op.
  void set_backup_servers(const std::vector<honeypot::ServerRef>& backups);

  /// Launch a honeypot on a fresh host node with the chaos-derived fields
  /// (resource budgets, the audit self-test, and, under a defended
  /// Byzantine model, self-probes plus `integrity_defense`). The returned
  /// honeypot outlives manager crashes, so it is a stable handle.
  honeypot::Honeypot& launch(honeypot::HoneypotConfig hp,
                             const honeypot::ServerRef& server,
                             bool integrity_defense = true);

  /// Arm the seeded fault plan (or, without chaos, the historical hourly
  /// crash grid when `legacy_host_mtbf` > 0), then the abuse and Byzantine
  /// injectors. Fault and abuse plans target the directory servers; the
  /// Byzantine plan targets the directory servers plus the standbys. A
  /// disabled axis allocates no nodes and draws nothing.
  void arm_adversaries(Duration legacy_host_mtbf = 0);

  /// Run whole days with one progress line each, then up to `days`.
  void run_days(double days, std::ostream* progress);

  /// End of horizon: recover a control-plane outage that reached past it
  /// (when recovery is on), then stop the manager.
  void stop();

  /// Publish the merged dataset into `result` and fill every subsystem's
  /// accounting, ending with the conservation ledger (which throws
  /// audit::ImbalanceError on an audited imbalance). Call after stop().
  void fill(ScenarioResult& result, const peer::Population& population);

 private:
  honeypot::ServerRef start_server(std::string name);
  void arm_faults(Duration legacy_host_mtbf);
  void arm_abuse();
  void arm_byzantine();

  const CampaignConfig& config_;
  World world_;
  bool defense_;
  /// Directory servers first, then standbys: the Byzantine plan's numbering.
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::vector<honeypot::ServerRef> directory_refs_;
  std::vector<honeypot::ServerRef> standby_refs_;
  honeypot::Manager manager_;
  /// Every honeypot ever launched, in fleet order. Honeypot objects outlive
  /// manager crashes (parked as orphans), so these stay valid while the
  /// manager's fleet table is down.
  std::vector<honeypot::Honeypot*> hosts_;
  std::vector<bool> random_content_;
  /// Open control-plane outage (sim time of the crash, -1 when up) and the
  /// number of manager crashes the fault plan delivered.
  Time manager_down_at_ = -1.0;
  std::uint64_t manager_crashes_ = 0;
  std::unique_ptr<sim::PeriodicTimer> crash_grid_;
  std::unique_ptr<fault::Injector> faults_;
  std::unique_ptr<fault::AbuseInjector> abuse_;
  std::unique_ptr<fault::ByzantineInjector> byzantine_;
};

}  // namespace edhp::scenario
