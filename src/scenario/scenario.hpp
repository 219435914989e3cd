#pragma once
// Canonical measurement scenarios reproducing the paper's two campaigns.
//
// run_distributed(): 24 honeypots on PlanetLab-like hosts, one large
// server, 4 advertised files, 32 days, 12 no-content + 12 random-content
// honeypots, plus the hyperactive "top peer" of Figs 8/9.
//
// run_greedy(): a single honeypot that harvests the shared-file lists of
// contacting peers during its first day and advertises everything it
// learns; 15 days.
//
// Both, and run_multi_server() (multi_server.hpp), take the shared
// CampaignConfig block and return the published dataset (merged + stage-2
// anonymised log) plus the scenario metadata analyses need. `scale`
// multiplies peer arrival rates and pools; durations are unchanged, so
// shapes are preserved while runtime drops.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include <optional>

#include "audit/audit.hpp"
#include "common/budget.hpp"
#include "fault/abuse.hpp"
#include "fault/fault.hpp"
#include "honeypot/manager.hpp"
#include "net/admission.hpp"
#include "logbook/record.hpp"
#include "net/network.hpp"
#include "peer/behavior.hpp"
#include "peer/downloader.hpp"
#include "peer/population.hpp"
#include "sim/diurnal.hpp"
#include "sim/simulation.hpp"

namespace edhp::scenario {

/// The knobs every campaign shares (distributed, greedy, multi-server).
/// Each campaign's config derives from it and sets its own defaults.
struct CampaignConfig {
  // Each campaign's constructor sets its own scale, seed and days.
  double scale = 0;
  std::uint64_t seed = 0;
  double days = 0;
  /// Full fault model: when enabled, a seeded FaultPlan drives host, link,
  /// server, latency, partition, resource, clock and control-plane churn,
  /// and the manager runs with retry backoff, watchdog escalation and
  /// crash-safe log spooling. The link knobs (bursty loss, duplication,
  /// reordering) and the Byzantine model apply whenever they are set.
  fault::ChaosConfig chaos;
  /// Adversarial traffic: when enabled, a seeded AbusePlan spawns hostile
  /// peers (byte corruptors, connection flooders, slowloris sessions,
  /// oversize-message abusers) against every honeypot and directory server.
  fault::AbuseConfig abuse;
  /// Admission control (net::AdmissionGate) guards the servers and every
  /// honeypot exactly when `abuse.enabled` and this flag are both set; set
  /// it false to run an abuse campaign with no admission control at all
  /// (the ablation baseline).
  bool auto_defense = true;
  peer::BehaviorParams behavior;  ///< defaults to behavior_2008()
  /// Live-peer storage strategy; both modes produce bit-identical campaign
  /// datasets and differ only in memory behaviour.
  peer::PopulationMode population_mode = peer::PopulationMode::lazy;
  /// Enforce the record-conservation ledger: the run fails (throws
  /// audit::ImbalanceError) unless born == merged + Σ accounted. The ledger
  /// itself is always filled (ScenarioResult::audit); this flag only arms
  /// the hard failure. Off-path cost is one counter increment per record,
  /// so goldens are bit-identical either way.
  bool audit = false;

 protected:
  CampaignConfig();
};

struct DistributedConfig : CampaignConfig {
  std::size_t honeypots = 24;
  bool with_top_peer = true;
  /// Mean time between honeypot host failures (0 disables crash injection).
  /// This is the historical hourly-Bernoulli crash grid, kept bit-for-bit;
  /// ignored when `chaos.enabled` (the FaultPlan then owns all churn).
  Duration host_mtbf = 16 * kDay;
  /// Override of the regional activity mixture (default: european_2008).
  std::optional<sim::DiurnalProfile> diurnal;
  /// When nonzero, rescales the per-file finite pools pro-rata so the total
  /// interested-peer population equals this count. Arrival rates are left
  /// at the campaign baseline: unarrived peers are pure per-demand
  /// accounting, so memory stays bounded by peak concurrency (rate x peer
  /// lifetime) however large the pool — the million-peer bench knob. Pools
  /// below the baseline cap arrivals early; 0 keeps the paper's pools
  /// (times `scale`).
  std::uint64_t population_override = 0;
  /// Fold every honeypot record into a count + fingerprint instead of
  /// retaining it (ScenarioResult::records_streamed/stream_fingerprint).
  /// Bench-only: the merged dataset comes out empty. Keep off with chaos.
  bool stream_records = false;

  DistributedConfig();
};

struct GreedyConfig : CampaignConfig {
  GreedyConfig();
};

/// Everything a bench needs to regenerate the paper's tables and figures.
struct ScenarioResult {
  logbook::LogFile merged;  ///< stage-2 anonymised, time-ordered
  std::uint64_t distinct_peers = 0;
  std::size_t honeypots = 0;
  double days = 0;
  std::size_t advertised_files = 0;  ///< final advertised-list size
  std::vector<FileId> advertised_ids;
  honeypot::ObservedFiles observed;
  /// strategy_of[h]: true when honeypot h used random-content.
  std::vector<bool> random_content;
  peer::PeerStats peer_totals;
  std::uint64_t relaunches = 0;
  std::uint64_t blacklist_reports = 0;
  /// Mean end-of-run community reputation per strategy group (1.0 = never
  /// reported, or no honeypot in the group).
  double reputation_no_content = 1.0;
  double reputation_random_content = 1.0;
  /// Event-engine run statistics (slab recycling, cancellations, peak heap).
  sim::EngineStats engine;
  /// Aggregate traffic counters over every node in the run.
  net::LinkCounters net_totals;
  /// Watchdog/retry/spooling accounting (all-zero when chaos is disabled
  /// and nothing ever died).
  honeypot::RecoveryStats recovery;
  /// Faults actually injected (all-zero unless chaos was enabled).
  fault::FaultStats faults;
  /// Admission-control decisions, summed over the server and the fleet
  /// (all-zero unless the defense policy was enabled; `malformed` counts
  /// even without it).
  net::DefenseStats defense;
  /// Hostile traffic actually generated (all-zero unless abuse was enabled).
  fault::AbuseStats abuse;
  /// Overload/degradation accounting summed over the fleet (all-zero unless
  /// resource budgets or resource faults were configured);
  /// `spool_peak_bytes` is the fleet per-honeypot maximum, the number quota
  /// sizing needs.
  budget::DegradeStats degrade;
  /// Measurement-integrity accounting: self-probe verdicts, fabrication/
  /// forgery/replay detections, quarantined + excluded records, and server
  /// quarantine verdicts (all-zero unless chaos.byzantine was enabled).
  honeypot::IntegrityStats integrity;
  /// Byzantine misbehavior actually injected (all-zero unless enabled).
  fault::ByzantineStats byzantine;
  /// Timestamp-integrity ledger from the skew-corrected merge (all-zero
  /// unless clock faults were enabled: observations, corrections, detected
  /// monotonicity violations, ambiguous mappings).
  logbook::TimeIntegrityStats time_integrity;
  /// Record-conservation ledger: born == merged + Σ accounted for any
  /// chaos configuration. Always filled; `audit.enabled` mirrors the
  /// config flag that makes imbalance a hard failure.
  audit::AuditStats audit;

  // --- Memory telemetry ----------------------------------------------------
  /// Peak process RSS at result-fill time (bytes; 0 when the platform can't
  /// tell). Process-wide, so compare runs within one process with care.
  std::uint64_t peak_rss_bytes = 0;
  /// Interested peers that ever arrived / were simultaneously live.
  std::uint64_t population_arrivals = 0;
  std::uint64_t population_peak_active = 0;
  /// Slots the population slab ever allocated (its structural footprint;
  /// 0 under PopulationMode::legacy_eager).
  std::uint64_t population_slab_slots = 0;
  /// Node-table high-water mark and retirements (constant-memory evidence:
  /// peak live nodes stays near peak active peers, not total arrivals).
  std::uint64_t net_peak_live_nodes = 0;
  std::uint64_t net_nodes_retired = 0;
  /// Stream-mode accounting (zero / FNV offset unless stream_records).
  std::uint64_t records_streamed = 0;
  std::uint64_t stream_fingerprint = 0;
};

/// Manager policy used by the chaos variants of the campaigns: the
/// retry/spool knobs copied from the chaos config, the journal and clock
/// tracking, and quarantine scoring under a defended Byzantine model.
/// Returns the plain default ManagerConfig when neither is on. The watchdog
/// (relaunch backoff, escalation, heartbeat) has no knob: it is always on.
[[nodiscard]] honeypot::ManagerConfig chaos_manager_config(
    const fault::ChaosConfig& chaos);

[[nodiscard]] ScenarioResult run_distributed(const DistributedConfig& config,
                                             std::ostream* progress = nullptr);

[[nodiscard]] ScenarioResult run_greedy(const GreedyConfig& config,
                                        std::ostream* progress = nullptr);

/// Honeypot filter selecting one strategy group from a result.
[[nodiscard]] std::function<bool(std::uint16_t)> strategy_filter(
    const ScenarioResult& result, bool random_content);

}  // namespace edhp::scenario
