#pragma once
// Fault-injection subsystem.
//
// The paper's measurement platform survives PlanetLab churn: hosts die and
// reboot, uplinks flap, directory servers restart, and the manager
// "regularly checks the status of each honeypot" to "re-launch dead
// honeypots or redirect them toward other servers" (Section III.A). This
// module gives the reproduction a real fault model:
//
//   ChaosConfig  — knobs (MTBFs and outage durations per fault class);
//   FaultPlan    — the seeded schedule of fault events (fault/plan.hpp:
//                  the same config + rng always yields the same plan, so
//                  chaos campaigns are reproducible bit-for-bit);
//   Injector     — binds a plan to a live world: drives net::Network
//                  primitives plus app-level hooks (honeypot crash, server
//                  restart) as each event fires.
//
// Fault classes and their observable semantics:
//   host crash / reboot   node down + RST of every connection + the honeypot
//                         process dies (unspooled log tail at risk);
//   uplink outage         node down + RSTs, but the process survives and
//                         retries with backoff once the link returns;
//   server restart        the directory server drops all sessions, then
//                         accepts logins again (honeypots must re-login and
//                         re-advertise);
//   latency spike         per-host latency multiplier for an episode;
//   partition             a subset of hosts is split from the rest (connect
//                         refusal both ways + RST of cross-group traffic);
//   manager crash         the control plane dies (fleet table, watchdog and
//                         ack state lost); honeypots keep running and keep
//                         spooling locally until a recovery re-adopts them;
//   disk full             a host's spool quota collapses to a fraction of
//                         its budget for an episode (the honeypot degrades:
//                         compaction + priority shedding, never silent loss);
//   disk slow             periodic spool cuts are throttled for an episode
//                         (the unspooled tail grows; backpressure covers it);
//   memory pressure       a host's record buffer shrinks and an fd-style
//                         session ceiling engages for an episode.

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/budget.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "fault/byzantine.hpp"
#include "fault/plan.hpp"
#include "fault/rng_splits.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace edhp::fault {

enum class FaultKind : std::uint8_t {
  host_crash,           ///< host + honeypot process die (subject = host)
  host_reboot,          ///< host back up; manager relaunch can reach it
  uplink_down,          ///< host NIC outage; process survives (subject = host)
  uplink_up,
  server_down,          ///< server restart begins (subject = server index)
  server_up,            ///< server accepts logins again
  latency_spike_begin,  ///< magnitude multiplies every host's latency
  latency_spike_end,
  partition_begin,      ///< host `subject` moves to partition group 1
  partition_heal,       ///< host `subject` rejoins group 0
  manager_crash,        ///< control-plane process dies (subject unused)
  manager_recover,      ///< replacement manager replays the journal
  // Resource-exhaustion classes (appended — on-disk/journal values of the
  // kinds above never change).
  disk_full_begin,      ///< spool quota × magnitude for the episode
  disk_full_end,
  disk_slow_begin,      ///< periodic cuts throttled by factor `magnitude`
  disk_slow_end,
  mem_pressure_begin,   ///< record budget × magnitude + session ceiling
  mem_pressure_end,
  // Clock-fault classes (appended): they perturb a host's *virtual clock*
  // only — never topology, traffic, or any RNG stream at apply time — so
  // record content other than timestamps is invariant under them.
  clock_drift,          ///< set drift rate; magnitude = signed ppm
  clock_step,           ///< NTP-style step; magnitude = signed local seconds
  clock_freeze_begin,   ///< local clock halts (hung RTC / suspended VM)
  clock_freeze_end,     ///< clock resumes from the frozen reading
};

[[nodiscard]] std::string_view to_string(FaultKind k);

/// One scheduled fault. `subject` indexes hosts or servers at scenario
/// level (the Injector's bindings translate to net::NodeId); `magnitude` is
/// the latency multiplier, resource fraction or factor, or clock offset the
/// kind's comment names.
using FaultEvent = Event<FaultKind>;
using FaultPlan = Plan<FaultKind>;

/// Churn knobs. Every *_mtbf of 0 disables that fault class. The defaults
/// model the paper's platform: PlanetLab hosts failing every ~16 days over a
/// 32-day campaign, with everything else off until enabled.
struct ChaosConfig {
  bool enabled = false;

  Duration host_mtbf = days(16);          ///< per-host crash rate
  Duration host_reboot_mean = minutes(20);
  Duration uplink_mtbf = 0;               ///< per-host link-outage rate
  Duration uplink_outage_mean = minutes(10);
  Duration server_mtbf = 0;               ///< per-server restart rate
  Duration server_restart_mean = minutes(3);
  Duration latency_spike_mtbf = 0;        ///< measurement-wide episodes
  double latency_spike_factor = 8.0;
  Duration partition_mtbf = 0;            ///< measurement-wide episodes
  double partition_fraction = 0.33;       ///< of hosts isolated per episode
  Duration manager_mtbf = 0;              ///< control-plane crash rate
  Duration manager_outage_mean = hours(1);
  /// Replay the journal when the outage ends. Disabling this models the
  /// pre-journal manager (the crash still fires; the recover event becomes
  /// a no-op), so the plan — and therefore every other fault stream — stays
  /// bit-identical across the ablation.
  bool manager_recovery = true;

  // --- Resource-exhaustion classes (fresh RNG splits: enabling any of
  // these never shifts the schedules above) ------------------------------
  Duration disk_full_mtbf = 0;            ///< per-host spool-quota collapse
  double disk_full_fraction = 0.25;       ///< quota multiplier during episode
  Duration disk_slow_mtbf = 0;            ///< per-host spool-cut throttling
  double disk_slow_factor = 4.0;          ///< cut-period multiplier
  Duration mem_pressure_mtbf = 0;         ///< per-host record-buffer squeeze
  double mem_pressure_fraction = 0.5;     ///< record-budget multiplier

  // --- Clock-fault classes (fresh RNG splits: enabling any of these never
  // shifts the schedules above, and applying them consumes no RNG — the
  // same seed with clocks on/off yields the same records, differently
  // stamped) --------------------------------------------------------------
  Duration clock_drift_mtbf = 0;          ///< per-host drift re-draw cadence
  double clock_drift_ppm = 200.0;         ///< rate drawn uniform in ±ppm
  Duration clock_step_mtbf = 0;           ///< per-host NTP-style step rate
  Duration clock_step_max = 60.0;         ///< |step| bound in seconds (signed)
  Duration clock_freeze_mtbf = 0;         ///< per-host clock-halt episodes
  Duration clock_freeze_mean = minutes(2);

  // --- Resource budgets + degradation policy the scenarios hand every
  // honeypot (0 = unlimited; defaults reproduce the pre-budget plane) -----
  std::uint64_t disk_quota_bytes = 0;     ///< resident spool-byte quota
  std::uint64_t mem_budget_records = 0;   ///< unspooled log-tail ceiling
  std::uint32_t session_ceiling = 0;      ///< accepts allowed under mem_pressure
  std::uint32_t resend_credit = 0;        ///< manager recovery-resend window
  budget::DegradePolicy degrade_policy = budget::DegradePolicy::priority_shed;

  // --- Byzantine (wrongness) behaviors + their defenses. Own seed, fresh
  // splits: enabling lies never shifts any silence-fault schedule ---------
  ByzantineConfig byzantine;

  // --- Link-quality model the scenarios hand the network at construction
  // (all-zero defaults = the pristine link, bit-for-bit). These feed
  // net::LinkModel directly; the burst chain is Gilbert–Elliott, and its
  // exit probability and the reorder delay keep LinkModel's defaults ------
  double link_burst_enter = 0;            ///< P(good → bad) per datagram
  double link_burst_loss = 0.5;           ///< drop probability while bad
  double link_dup = 0;                    ///< datagram duplication probability
  double link_reorder = 0;                ///< datagram reordering probability

  // --- Recovery policy the scenarios apply alongside the plan (the
  // reconnect backoff and the watchdog's limits are constants) ------------
  Duration spool_period = minutes(10);    ///< log-chunk gathering cadence

  /// Audit self-test fault: every Nth admitted record is destroyed AFTER
  /// the shed/stream accounting points, i.e. a deliberate silent loss no
  /// disposition counter sees (0 = off, the only sane setting outside the
  /// auditor's own negative tests). This is the "historical-style injected
  /// imbalance" the conservation ledger must catch: with it enabled the
  /// balance equation cannot hold, and an audited run must fail.
  std::uint32_t audit_selftest_drop = 0;
};

/// Counters of faults actually applied by an Injector.
struct FaultStats {
  std::uint64_t host_crashes = 0;
  std::uint64_t host_reboots = 0;
  std::uint64_t uplink_outages = 0;
  std::uint64_t server_restarts = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t partition_episodes = 0;  ///< host-level isolation events
  std::uint64_t manager_crashes = 0;     ///< control-plane crashes
  std::uint64_t manager_recoveries = 0;  ///< recover events delivered
  std::uint64_t disk_full_episodes = 0;
  std::uint64_t disk_slow_episodes = 0;
  std::uint64_t mem_pressure_episodes = 0;
  std::uint64_t clock_drift_changes = 0;
  std::uint64_t clock_steps = 0;
  std::uint64_t clock_freezes = 0;
  std::uint64_t connections_aborted = 0;
};

/// Build the fault plan for `hosts` honeypot hosts and `servers` directory
/// servers over `horizon` seconds. Deterministic in (config, rng state);
/// empty when chaos is off or `horizon` is not positive and finite (NaN
/// and +inf included).
[[nodiscard]] FaultPlan make_plan(const ChaosConfig& config, std::size_t hosts,
                                  std::size_t servers, Duration horizon,
                                  Rng rng);

/// Applies a FaultPlan to a live world.
class Injector {
 public:
  /// Translation from plan subjects to the concrete world. `host_node` is
  /// required; the rest may be empty (those events become no-ops at the app
  /// level while the network-level effect still applies where possible).
  struct Bindings {
    std::size_t host_count = 0;
    std::function<net::NodeId(std::size_t)> host_node;
    std::function<void(std::size_t)> crash_host;  ///< app-level process death
    std::function<void(std::size_t)> stop_server;
    std::function<void(std::size_t)> start_server;
    std::function<void()> crash_manager;    ///< control-plane process death
    std::function<void()> recover_manager;  ///< journal replay + re-adoption
    /// Resource-fault hooks: (host, active, magnitude). Unset = no-op; the
    /// episodes are purely app-level (no network effect to fall back on).
    std::function<void(std::size_t, bool, double)> disk_full;
    std::function<void(std::size_t, bool, double)> disk_slow;
    std::function<void(std::size_t, bool, double)> mem_pressure;
  };

  Injector(net::Network& network, FaultPlan plan, Bindings bindings);

  /// Schedule the whole plan on the network's simulation (see arm_plan).
  void arm();

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  /// The pre-fault-subsystem `host_mtbf` model, preserved bit-for-bit: an
  /// hourly Bernoulli grid over the fleet with immediate process crash and
  /// no host-down window. The caller starts the returned timer; draws come
  /// from `rng` in fleet order exactly as the historical inline loop did.
  [[nodiscard]] static std::unique_ptr<sim::PeriodicTimer> legacy_crash_grid(
      sim::Simulation& simulation, Duration mtbf,
      std::function<std::size_t()> fleet_size,
      std::function<void(std::size_t)> crash, Rng rng);

 private:
  void apply(const FaultEvent& event);

  net::Network& net_;
  FaultPlan plan_;
  Bindings bind_;
  FaultStats stats_;
};

}  // namespace edhp::fault
