#pragma once
// Merging and unifying honeypot logs (one of the manager's roles): combine
// per-honeypot log files into a single time-ordered log with a unified
// client-name table.
//
// Two entry points:
//   merge_logs       — trust the timestamps (the pre-clock-fault pipeline);
//   merge_logs_skew  — reconstruct each honeypot's local clock from bounded
//                      -offset observations (heartbeats, spool-chunk acks)
//                      and rewrite every timestamp back onto the manager's
//                      timeline before ordering. Every correction, fallback
//                      and local-monotonicity violation is counted in
//                      TimeIntegrityStats: no silent reordering, ever.
//
// Both borrow their inputs: the logs stay where they live (a honeypot's
// in-memory log, a reassembled spool) and each merged record is written
// once, into an output reserved to its exact size. The order is the one a
// stable sort of the concatenated inputs by (timestamp, honeypot) gives,
// for any input: the merge splits the inputs into natural runs (maximal
// stretches whose key never decreases) and repeatedly takes the smallest
// run head, the earlier run on a tie. A clean campaign has one run per
// honeypot.

#include <cstdint>
#include <span>
#include <vector>

#include "common/clock.hpp"
#include "logbook/record.hpp"

namespace edhp::logbook {

/// One bounded-offset clock sighting: at manager (true) time `true_time`,
/// honeypot `honeypot` reported its local clock reading `local_time`. The
/// manager harvests these from exchanges it already has — heartbeat polls
/// and freshly-cut spool chunks — so no extra protocol traffic exists.
struct ClockObservation {
  std::uint16_t honeypot = 0;
  Time true_time = 0;
  Time local_time = 0;

  bool operator==(const ClockObservation&) const = default;
};

/// Ledger of everything the skew-correction pass did. The integrity
/// contract: output record count equals input record count, same-honeypot
/// relative order is preserved exactly, and every timestamp the pass moved
/// or could not disambiguate is counted here — a deviation between the
/// merged order and true-time order that is NOT accounted for in these
/// counters is a bug, not a measurement artifact.
struct TimeIntegrityStats {
  std::uint64_t observations_used = 0;    ///< clock sightings consumed
  std::uint64_t honeypots_tracked = 0;    ///< honeypots with >= 2 sightings
  std::uint64_t records_corrected = 0;    ///< timestamps actually rewritten
  std::uint64_t records_interpolated = 0; ///< mapped inside an obs segment
  std::uint64_t records_extrapolated = 0; ///< mapped beyond the obs range
  std::uint64_t records_ambiguous = 0;    ///< non-invertible (flat) segment
  std::uint64_t monotonicity_violations = 0;  ///< raw local time ran backwards
  std::uint64_t order_restorations = 0;   ///< records lifted back into order
  std::uint64_t observation_resets = 0;   ///< obs where local time regressed
  double max_abs_correction = 0;          ///< worst |corrected - raw| (s)

  bool operator==(const TimeIntegrityStats&) const = default;
};

/// Borrow every log of a contiguous array, in order, for the merges below.
[[nodiscard]] std::vector<const LogFile*> borrow(std::span<const LogFile> logs);

/// Merge per-honeypot logs into one log ordered by (timestamp, honeypot);
/// records with equal keys keep their input order (the logs in the given
/// order, each log in record order). All inputs must carry the same
/// PeerIdKind (std::invalid_argument otherwise); record honeypot ids are
/// preserved. The merged header keeps the shared server identity when all
/// inputs agree, and marks the honeypot field with 0xFFFF ("merged").
///
/// `excluded`: when non-null, records carrying a provenance taint
/// (LogRecord::tainted) are left out of the merge and their number is
/// stored there — the manager's publish path. When null, every record is
/// merged, as a stored log is merged offline.
[[nodiscard]] LogFile merge_logs(std::span<const LogFile* const> logs,
                                 std::uint64_t* excluded = nullptr);

/// merge_logs with a skew-correction pass. Per honeypot, the observations
/// define a piecewise-linear local→true clock map (anchored on the monotone
/// envelope of the local readings, so a backwards NTP step between two
/// sightings degrades to a flagged flat segment instead of poisoning the
/// fit). Records are rewritten through that map — honeypots with fewer than
/// two sightings fall back to a constant offset (one sighting) or identity
/// (none) — then ordered by (corrected timestamp, honeypot). Within a
/// honeypot, append order (the chunk (epoch, seq) order, continuing from
/// one input log to the next when a honeypot spans several) is
/// authoritative and is preserved no matter what the local clock claimed.
/// The corrected times live in a side array of one Time per input record
/// until the merge writes them into the output. With no observations and
/// monotone inputs the result is bit-identical to merge_logs. `stats`, when
/// non-null, receives the full ledger, which covers only the records the
/// merge keeps; `excluded` is as for merge_logs.
[[nodiscard]] LogFile merge_logs_skew(std::span<const LogFile* const> logs,
                                      std::span<const ClockObservation> observations,
                                      TimeIntegrityStats* stats = nullptr,
                                      std::uint64_t* excluded = nullptr);

}  // namespace edhp::logbook
