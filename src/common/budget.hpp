#pragma once
// Resource budgets and graceful-degradation accounting.
//
// The paper's platform runs on shared PlanetLab hosts: disk fills up under
// the spool, memory is rationed, and file descriptors are capped — yet the
// honeypots must keep logging HELLO/START-UPLOAD/REQUEST-PART evidence
// through all of it. This module holds the budget model shared by the data
// plane:
//
//   BudgetConfig  — per-component resource ceilings (byte-accounted spool
//                   quota, bounded unspooled record buffer, fd-style session
//                   ceiling) plus the degradation policy;
//   DegradeStats  — counters of every declared degradation decision (shed,
//                   compaction, backpressure, pacing), summed fleet-wide
//                   into scenario::ScenarioResult.
//
// Degradation contract: when a budget trips, components shed by RECORD
// PRIORITY — evidence records (anything a benign peer produced) are never
// dropped; only low-priority traffic (abuse-marked records, re-offer
// chatter) is shed, and every shed record is counted. Zero silent loss:
// `records_shed` fully accounts the gap between a budget-limited run and
// the uninterrupted one.
//
// This header sits at the bottom of the link graph (edhp_common): it must
// not depend on logbook/net/fault types, so priority is expressed as a
// plain user-hash word (kAbuseUserWord), which the abuse injector stamps on
// every hostile peer (fault::kAbuseUserWord names it).

#include <cstdint>
#include <string_view>

namespace edhp::budget {

/// Low 64-bit word of every hostile peer's user hash. Log records store the
/// low word (see honeypot truncate_user), so attacker-generated records are
/// exactly those with `record.user == kAbuseUserWord`: the low-priority
/// records a budget sheds first.
inline constexpr std::uint64_t kAbuseUserWord = 0x0AB05EBADC0FFEEull;

/// What a component does when a resource budget trips.
enum class DegradePolicy : std::uint8_t {
  off = 0,            ///< budgets are ignored (accounting only)
  priority_shed = 1,  ///< declared degraded mode: shed low-priority records,
                      ///< compact spool chunks, emit backpressure
};

[[nodiscard]] std::string_view to_string(DegradePolicy p);

/// Resource-exhaustion fault classes (subjects are honeypot hosts).
enum class ResourceFault : std::uint8_t {
  disk_full = 0,     ///< spool quota shrinks (or freezes) for an episode
  disk_slow = 1,     ///< spool cuts are throttled for an episode
  mem_pressure = 2,  ///< record buffer shrinks + session ceiling applies
};

[[nodiscard]] std::string_view to_string(ResourceFault f);

/// Why a component declared degraded mode (journaled with the transition).
/// Numeric values are part of the journal payload format: append only.
enum class DegradeReason : std::uint8_t {
  none = 0,
  fault_disk_full = 1,    ///< injected disk_full episode began
  fault_disk_slow = 2,    ///< injected disk_slow episode began
  fault_mem_pressure = 3, ///< injected mem_pressure episode began
  disk_quota = 4,         ///< organic: resident spool bytes over quota
  mem_budget = 5,         ///< organic: unspooled record tail over budget
};

[[nodiscard]] std::string_view to_string(DegradeReason r);

/// Per-component resource ceilings. Every 0 means "unlimited" — the
/// defaults reproduce the pre-budget data plane bit-for-bit.
struct BudgetConfig {
  /// Resident (spooled-but-unacknowledged) chunk bytes a honeypot may hold
  /// before the spool writer degrades into compaction + shedding. Soft for
  /// evidence records: they are kept even over quota (and the overrun is
  /// counted), because losing them silently would defeat the measurement.
  std::uint64_t disk_quota_bytes = 0;
  /// Unspooled log-tail records held in memory before backpressure forces
  /// an early chunk cut (or sheds a low-priority record at the source).
  std::uint64_t mem_budget_records = 0;
  /// Concurrent peer sessions accepted while a mem_pressure episode is
  /// active (the fd-limit analog under overload). 0 freezes the ceiling at
  /// the session count observed when the episode begins.
  std::uint32_t session_ceiling = 0;
  DegradePolicy policy = DegradePolicy::priority_shed;
};

/// Counters of every declared degradation decision. All zero when budgets
/// never trip and no resource fault fires.
struct DegradeStats {
  std::uint64_t degrade_enters = 0;   ///< degraded-mode transitions (in)
  std::uint64_t degrade_exits = 0;    ///< degraded-mode transitions (out)
  std::uint64_t records_shed = 0;     ///< low-priority records dropped, declared
  std::uint64_t compaction_runs = 0;  ///< spool compaction passes
  std::uint64_t chunks_compacted = 0; ///< chunks coalesced by compaction
  std::uint64_t compaction_bytes_reclaimed = 0;
  std::uint64_t backpressure_cuts = 0;   ///< early chunk cuts forced by the
                                         ///< record-buffer budget
  std::uint64_t spool_cuts_deferred = 0; ///< periodic cuts throttled by disk_slow
  std::uint64_t sessions_refused = 0;    ///< accepts refused at the ceiling
  std::uint64_t resends_paced = 0;       ///< chunk resends deferred by the
                                         ///< manager's credit window
  std::uint64_t quota_overruns = 0;      ///< evidence kept over quota (soft)
  std::uint64_t spool_peak_bytes = 0;    ///< max resident spool bytes seen

  DegradeStats& operator+=(const DegradeStats& other) noexcept;
};

}  // namespace edhp::budget
