#pragma once
// The measurement manager (Section III.A of the paper).
//
// The manager launches honeypots, assigns each to a server, tells them which
// files to advertise, periodically checks their status (relaunching dead
// ones), and finally gathers their logs, merges them and runs stage-2
// anonymisation. In the field the control channel is out-of-band (SSH to
// PlanetLab hosts); here it is direct method calls on the honeypot objects,
// which preserves the observable eDonkey-side behaviour exactly.

#include <memory>
#include <string>
#include <vector>

#include "honeypot/honeypot.hpp"
#include "honeypot/journal_entries.hpp"
#include "logbook/journal.hpp"
#include "logbook/merge.hpp"
#include "logbook/spool.hpp"

namespace edhp::honeypot {

struct ManagerConfig {
  /// Measurement-wide stage-1 anonymisation salt pushed to every honeypot.
  std::string salt = "edhp-measurement-salt";

  /// Self-reconnect switch injected into every launched honeypot.
  bool retry = false;
  /// Log-spooling policy injected into every launched honeypot; when
  /// enabled the manager wires itself as the chunk sink and acknowledges
  /// each chunk a fixed transfer round-trip after receiving it.
  logbook::SpoolConfig spool;
  /// Credit window for recovery resends: when re-adopting orphans, at most
  /// this many spooled chunks are in flight per honeypot at once, and each
  /// ack releases one more credit. 0 = unlimited (the legacy burst), which
  /// can re-trigger the very overload that crashed the manager.
  std::uint32_t resend_credit = 0;
  /// Admission-control switch injected into every launched honeypot.
  bool defense = false;

  /// Harvest clock observations from exchanges the manager already has
  /// (heartbeat polls, freshly-cut spool chunks) and run the skew-corrected
  /// merge. Off by default: the historical pipeline trusts timestamps, and
  /// clock-off campaigns append no extra journal entries.
  bool track_clocks = false;

  // --- Server-health scoring (Byzantine defense). Threshold 0 = disabled:
  // --- probe verdicts are still journaled for audit, but never acted on.

  /// A probe miss adds 1.0 to the reporting server's health score, and a
  /// confirmed probe takes a fixed decay off it (manager.cpp); at this
  /// score the server is quarantined — every slot assigned to it moves to a
  /// backup server — until a fixed cooloff expires. High enough by default
  /// that transient outages (which also miss probes) never trip it.
  double quarantine_threshold = 0;

  // --- Control-plane durability. Both null by default: the historical
  // --- purely-in-memory manager, byte-identical behaviour.

  /// Write-ahead journal. When set, every control-plane state transition
  /// (launch, reassign, advertise, backups, watchdog actions, chunk acks)
  /// is appended before it takes effect, and crash()/recover() become
  /// available. Shared between manager incarnations: it models the fsync'd
  /// journal file that outlives the process.
  std::shared_ptr<logbook::Journal> journal;
  /// Durable chunk store shared between incarnations. When null (and
  /// spooling is enabled) the manager creates a private one, which still
  /// survives in-place crash()/recover() but not object destruction.
  std::shared_ptr<logbook::SpoolStore> spool_store;
};

/// Aggregated fault-recovery accounting (see Manager::recovery_stats()).
struct RecoveryStats {
  std::uint64_t relaunches = 0;        ///< relaunch attempts issued
  std::uint64_t deferred = 0;          ///< polls skipped by relaunch backoff
  std::uint64_t escalations = 0;       ///< reassignments to a backup server
  std::uint64_t heartbeat_escalations = 0;  ///< stale-heartbeat escalations
  std::uint64_t re_advertise_repairs = 0;   ///< ordered-list re-offers
  std::uint64_t honeypot_retries = 0;  ///< fleet self-reconnect attempts
  std::uint64_t chunks_accepted = 0;
  std::uint64_t chunks_duplicate = 0;  ///< deduped at-least-once re-sends
  std::uint64_t records_spooled = 0;
  std::uint64_t records_lost_tail = 0; ///< destroyed before spooling
  double total_downtime = 0;           ///< observed dead time, fleet sum (s)
  /// records kept / records generated (1.0 when nothing was ever lost).
  double retained_fraction = 1.0;

  // --- Control-plane durability (all zero without a journal/chaos).
  std::uint64_t chunks_quarantined = 0; ///< checksum-failed chunks set aside
  std::uint64_t manager_crashes = 0;    ///< control-plane crashes injected
  std::uint64_t manager_recoveries = 0; ///< journal replays completed
  double manager_downtime = 0;          ///< control-plane dead time (s)
  std::uint64_t orphans_readopted = 0;  ///< honeypots re-adopted by recovery
  std::uint64_t journal_entries = 0;    ///< entries appended to the WAL
  std::uint64_t journal_bytes = 0;      ///< WAL size
  std::uint64_t journal_replayed = 0;   ///< entries applied by the last replay
  std::uint64_t journal_tail_lost = 0;  ///< torn-tail bytes at the last replay
};

/// Owns and coordinates a fleet of honeypots.
class Manager {
 public:
  Manager(net::Network& network, ManagerConfig config = {});
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Launch a honeypot on `host` and point it at `server`. The manager
  /// injects its measurement salt into the honeypot configuration.
  /// Returns the fleet index.
  std::size_t launch(HoneypotConfig config, net::NodeId host,
                     const ServerRef& server);

  /// One probed candidate server, with its self-reported load.
  struct ServerSurveyEntry {
    ServerRef server;
    std::uint32_t users = 0;
    std::uint32_t files = 0;
  };
  using SurveyCallback = std::function<void(std::vector<ServerSurveyEntry>)>;

  /// Probe candidate servers over UDP from `probe_node` and deliver the
  /// ones that answered within `timeout`, busiest first — the paper's
  /// manager guides server choice "by their resources and number of users".
  void survey_servers(std::vector<ServerRef> candidates, net::NodeId probe_node,
                      Duration timeout, SurveyCallback done);

  /// Redirect honeypot `index` toward another server (the paper's manager
  /// "re-launch[es] dead honeypots or redirect[s] them toward other
  /// servers"). The query log survives; the advertised list is re-offered
  /// to the new server.
  void reassign(std::size_t index, const ServerRef& server);

  /// Standby servers for watchdog escalation, used round-robin when a
  /// honeypot exhausts its consecutive relaunch failures (manager.cpp).
  void set_backup_servers(std::vector<ServerRef> backups);

  /// Order honeypot `index` to advertise `files`.
  void advertise(std::size_t index, std::vector<AdvertisedFile> files);
  /// Order every honeypot to advertise the same list (the paper's
  /// distributed measurement advertised identical files everywhere).
  void advertise_all(std::vector<AdvertisedFile> files);

  /// Begin the status-polling loop.
  void start();
  /// Stop polling and disconnect every honeypot.
  void stop();

  // --- Crash tolerance (requires ManagerConfig::journal) ------------------

  /// Simulate a control-plane crash: the poll loop, fleet table, backup
  /// list, ack frontier and every counter die with process memory. The
  /// honeypot processes are remote and keep running (and spooling locally,
  /// since their sink to the dead manager is severed); they are parked as
  /// orphans until a recover() re-adopts them. The journal and the durable
  /// chunk store survive by construction. Returns the orphan count.
  std::size_t crash();

  /// Restart after crash(): replay the journal (from the last checkpoint)
  /// to rebuild the fleet table, watchdog/escalation counters and spool-ack
  /// frontier, then re-adopt the orphaned honeypots — chunks the journal
  /// proves durable are acknowledged immediately, the rest re-sent and
  /// deduped. Polling resumes if it was running at crash time.
  /// `crashed_at` (simulation time) feeds downtime accounting; pass a
  /// negative value when unknown. Throws std::logic_error without a journal.
  void recover(Time crashed_at = -1.0);

  /// Cold-start recovery: a brand-new manager process, configured with the
  /// dead one's journal + durable store, adopting its orphans.
  [[nodiscard]] static std::unique_ptr<Manager> recover(
      net::Network& network, ManagerConfig config,
      std::vector<std::unique_ptr<Honeypot>> orphans, Time crashed_at = -1.0);

  /// Surrender the orphaned fleet (for cold-start recovery by another
  /// manager object). Only meaningful after crash().
  [[nodiscard]] std::vector<std::unique_ptr<Honeypot>> take_orphans() {
    return std::move(orphans_);
  }

  /// Append a full-state snapshot to the journal so the next replay starts
  /// here instead of at the beginning (recover() checkpoints automatically).
  void checkpoint();

  [[nodiscard]] std::size_t fleet_size() const noexcept { return live_.size(); }
  [[nodiscard]] Honeypot& honeypot(std::size_t index);
  [[nodiscard]] const Honeypot& honeypot(std::size_t index) const;
  /// Current server assignment / ordered file list of a slot (restored by
  /// recovery; exposed for operators and tests).
  [[nodiscard]] const ServerRef& server_of(std::size_t index) const {
    return state_.fleet.at(index).server;
  }
  [[nodiscard]] const std::vector<AdvertisedFile>& ordered_files(
      std::size_t index) const {
    return state_.fleet.at(index).files;
  }
  [[nodiscard]] std::uint64_t relaunches() const noexcept {
    return state_.relaunches;
  }

  /// Snapshot of fault-recovery accounting across the fleet, including
  /// still-open downtime windows at call time.
  [[nodiscard]] RecoveryStats recovery_stats() const;

  /// Fleet-sum of every honeypot's admission-control decision counters.
  [[nodiscard]] net::DefenseStats defense_stats() const;

  /// Fleet-sum of measurement-integrity accounting (probe verdicts,
  /// detections, quarantined records) plus the manager's own verdicts
  /// (servers quarantined/reinstated, records excluded by the last merge).
  [[nodiscard]] IntegrityStats integrity_stats() const;

  /// Ledger of the last skew-corrected merge (zero-initialized until a
  /// track_clocks merge ran).
  [[nodiscard]] const logbook::TimeIntegrityStats& time_integrity()
      const noexcept {
    return time_integrity_;
  }
  /// Clock sightings harvested so far (journaled; survives crash/recover).
  [[nodiscard]] const std::vector<logbook::ClockObservation>&
  clock_observations() const noexcept {
    return state_.clock_obs;
  }

  /// Current health score of a server (by name); 0 when never scored.
  [[nodiscard]] double server_health(const std::string& name) const;
  /// Whether a server is currently benched by a quarantine.
  [[nodiscard]] bool server_quarantined(const std::string& name) const;

  /// The chunk store backing crash-safe spooling (empty unless
  /// ManagerConfig::spool.enabled).
  [[nodiscard]] const logbook::SpoolStore& spool_store() const noexcept {
    return *spool_store_;
  }

  // --- Conservation-ledger inputs (see audit::AuditStats) -----------------

  /// Tainted records dropped by the most recent merged_anonymized[_durable]
  /// call — the ledger's merge-time `excluded` disposition (deliberately
  /// NOT the stamp-time quarantine tally in IntegrityStats, which also
  /// counts tainted records a budget or crash destroyed first).
  [[nodiscard]] std::uint64_t records_excluded_last_merge() const noexcept {
    return records_excluded_;
  }
  /// Records left resident in corrupt (quarantined) chunks by the most
  /// recent merged_anonymized_durable salvage pass; 0 after a live merge.
  [[nodiscard]] std::uint64_t records_quarantined_last_merge() const noexcept {
    return durable_quarantine_records_;
  }

  /// Merge every fleet honeypot's log, read where it lives (no copy), and
  /// apply stage-2 anonymisation: the published dataset. Returns the merged
  /// log; `distinct_peers_out` (optional) receives the number of distinct
  /// peers assigned by renumbering.
  [[nodiscard]] logbook::LogFile merged_anonymized(
      std::uint64_t* distinct_peers_out = nullptr) const;

  /// The dataset recoverable from durable state alone: the chunk store plus
  /// every honeypot's local on-disk spool (fleet and orphans alike), merged
  /// and stage-2 anonymised. This is what an operator publishes after a
  /// control-plane crash — it misses only in-memory tails never cut into a
  /// chunk, so the loss is bounded by the spool period per honeypot.
  [[nodiscard]] logbook::LogFile merged_anonymized_durable(
      std::uint64_t* distinct_peers_out = nullptr) const;

  /// Union of observed (harvested) files across the fleet, orphans
  /// included, with their total size in bytes — Table I's distinct-files
  /// and space-used statistics. A file's first honeypot in fleet order
  /// sets its size.
  [[nodiscard]] ObservedFiles observed_files() const;

 private:
  /// The live-only half of a fleet slot; the journaled half is
  /// state_.fleet at the same index.
  struct LiveSlot {
    std::unique_ptr<Honeypot> honeypot;
    Time next_attempt_at = 0;  ///< relaunch backoff gate
    Time down_since = -1.0;    ///< first poll that saw it dead
  };

  void poll();
  /// Whether the honeypot advertises every ordered file.
  [[nodiscard]] static bool covers(const Honeypot& hp,
                                   const std::vector<AdvertisedFile>& ordered);
  /// Re-offer the ordered list plus any extras the honeypot grew itself.
  void repair_advertised(std::size_t index);
  /// Move the slot to the next backup server (or reconnect in place when
  /// no backups are configured).
  void escalate(std::size_t index, journal::EscalateReason reason);
  /// Install the spool-chunk sink (ingest + journal + delayed ack).
  void wire_spool_sink(Honeypot& hp);
  /// Install the degraded-mode observer (journals every transition).
  void wire_degrade_sink(Honeypot& hp);
  /// Install the self-probe verdict observer (health scoring + journal).
  void wire_probe_sink(Honeypot& hp);
  /// Score one probe verdict; may quarantine the reporting server.
  void on_probe_verdict(std::uint16_t hp_id, bool confirmed);
  /// Bench a server: journal the verdict, move its slots to backups.
  void quarantine_server(const std::string& name);
  /// Expire due quarantines: reassign displaced slots back to the original.
  void service_quarantines(Time now);
  /// Record one (true, local) clock sighting for honeypot `hp_id` at the
  /// current instant: journaled, retained for the skew-corrected merge.
  /// No-op unless config_.track_clocks.
  void record_clock_observation(std::uint16_t hp_id, Time local_time);
  /// Merge the borrowed logs into the published dataset: tainted records
  /// left out (counted in records_excluded_), skew-corrected against the
  /// accumulated clock observations when clock tracking is on (plain
  /// merge_logs otherwise), then stage-2 anonymised.
  [[nodiscard]] logbook::LogFile publish(
      std::span<const logbook::LogFile* const> logs,
      std::uint64_t* distinct_peers_out) const;

  /// Take one journaled transition: append the encoded entry (when there is
  /// a journal), then apply its state change.
  template <typename Entry>
  void commit(const Entry& entry);
  /// Rebuild the journaled state: apply every entry from the last
  /// checkpoint on.
  void replay_journal();
  /// Match orphans to replayed slots by honeypot id, rewire their sinks,
  /// ack journal-proven chunks and re-send the rest. A slot no orphan
  /// answers for keeps a null honeypot until the next checkpoint strikes
  /// it. Returns the adopted count.
  std::size_t adopt_orphans();

  net::Network& net_;
  ManagerConfig config_;
  /// Everything the journal rebuilds (fleet table, backups, watchdog and
  /// recovery counters, ack frontier, health ledger, quarantines, clock
  /// sightings). Changed only by commit() and replay, and wiped by crash(),
  /// with one exception in poll().
  journal::Checkpoint state_;
  std::vector<LiveSlot> live_;  ///< parallel to state_.fleet
  std::unique_ptr<sim::PeriodicTimer> poll_timer_;
  std::shared_ptr<logbook::SpoolStore> spool_store_;  ///< durable chunk store
  /// Honeypots surviving a control-plane crash, awaiting re-adoption.
  std::vector<std::unique_ptr<Honeypot>> orphans_;
  /// Live-only counters (deferrals, observed downtime, replay accounting);
  /// the journaled counters are in state_.
  RecoveryStats recovery_;

  /// Visit every live honeypot: the fleet in order, then the orphans of a
  /// dead control plane (after an unrecovered crash they are the fleet).
  template <typename Visit>
  void for_each_honeypot(Visit&& visit) const {
    for (const auto& slot : live_) visit(*slot.honeypot);
    for (const auto& hp : orphans_) visit(*hp);
  }

  /// Tainted records dropped by the most recent merged_anonymized[_durable]
  /// pass (mutable: merging is logically const, the audit trail is not).
  mutable std::uint64_t records_excluded_ = 0;
  /// Quarantined-resident records observed by the most recent durable
  /// salvage merge (mutable for the same reason).
  mutable std::uint64_t durable_quarantine_records_ = 0;

  /// Ledger of the last skew-corrected merge (mutable for the same reason
  /// as records_excluded_).
  mutable logbook::TimeIntegrityStats time_integrity_;
};

}  // namespace edhp::honeypot
