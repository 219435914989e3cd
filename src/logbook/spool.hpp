#pragma once
// Crash-safe log spooling.
//
// The paper's manager "gathers the logs" of its honeypots during the
// measurement, not only at the end — a PlanetLab host that dies loses at
// most the records produced since the last gathering. This module models
// that pipeline:
//
//   - a honeypot periodically cuts the records appended since the last cut
//     into a LogChunk, stamped with its relaunch epoch and a monotone
//     sequence number, and hands it to the manager (see
//     Honeypot::set_spool_sink);
//   - the chunk stays in the honeypot's local spool (its on-disk journal)
//     until the manager acknowledges it, so a crash between send and ack
//     re-sends the chunk on relaunch with its ORIGINAL (epoch, seq);
//   - the manager's SpoolStore accepts chunks at-least-once and dedups by
//     sequence number, so the reassembled per-honeypot log equals the
//     honeypot's own log regardless of crashes, minus only the records a
//     crash destroyed before they were ever spooled (the accounted tail).

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "logbook/record.hpp"

namespace edhp::logbook {

/// Spooling knobs, injected into each honeypot by the manager.
struct SpoolConfig {
  bool enabled = false;
  /// Chunk-cutting cadence (the paper's periodic log gathering).
  Duration period = minutes(10);
};

/// One sequence-numbered batch of log records. `names` carries the tail of
/// the honeypot's interned-name table added since the previous chunk, so
/// the store can rebuild the full table; `name_base` is its start index.
struct LogChunk {
  std::uint16_t honeypot = 0;
  std::uint32_t epoch = 0;  ///< process incarnation that FIRST sent it
  std::uint64_t seq = 0;    ///< monotone per honeypot, across epochs
  std::size_t name_base = 0;
  /// The honeypot's LOCAL clock reading at the instant it cut the chunk.
  /// The manager pairs it with its own receive time to observe the
  /// honeypot's clock offset (see logbook::ClockObservation); 0 on chunks
  /// from producers predating virtual clocks. Checksummed, but excluded
  /// from chunk_cost_bytes so quota thresholds are identical across clock
  /// ablations.
  Time cut_at_local = 0;
  std::vector<std::string> names;
  std::vector<LogRecord> records;
  /// FNV-1a over the payload (see chunk_checksum), stamped by the honeypot
  /// when it cuts the chunk; the store verifies every chunk against it.
  std::uint64_t checksum = 0;
};

/// Payload checksum of a chunk: FNV-1a over identity, every record field
/// and the name-table slice. Field-by-field (not struct bytes), so padding
/// never leaks into the value.
[[nodiscard]] std::uint64_t chunk_checksum(const LogChunk& chunk);

/// Byte cost a resident chunk charges against a spool quota: the serialized
/// footprint (frame header + name-table slice + packed records + checksum),
/// deliberately the same arithmetic on every platform so byte-accounted
/// degradation thresholds are deterministic.
[[nodiscard]] std::uint64_t chunk_cost_bytes(const LogChunk& chunk);

/// Quarantined chunks whose (honeypot, seq) refs are retained for triage;
/// beyond this, quarantines are still counted and still rejected, but only
/// the counter grows (a corruptor must not be able to balloon manager
/// memory with distinct bad chunks — see ISSUE 5 satellite 1).
inline constexpr std::size_t kQuarantineRefCap = 64;

/// Manager-side chunk store: accepts chunks at-least-once, dedups by
/// (honeypot, seq), and reassembles per-honeypot logs in sequence order.
class SpoolStore {
 public:
  /// Record the header to attach to reassembled logs (first write wins for
  /// name/strategy; server fields refresh on reassignment).
  void set_header(std::uint16_t honeypot, const LogHeader& header);

  /// Outcome of one chunk ingestion.
  enum class Ingest : std::uint8_t {
    stored,       ///< new sequence number, payload verified, now durable
    duplicate,    ///< already-accepted sequence number (at-least-once)
    quarantined,  ///< checksum mismatch; chunk set aside, NOT merged
  };

  /// Ingest one chunk: verify its checksum (when stamped), dedup by
  /// (honeypot, seq). Quarantined chunks are counted and listed but never
  /// enter a reassembled log — a corrupted transfer must be re-sent, so the
  /// caller should not acknowledge it.
  Ingest ingest(const LogChunk& chunk);

  /// Rebuild one honeypot's log from its accepted chunks, in sequence
  /// order. Unknown honeypots yield an empty log.
  [[nodiscard]] LogFile reassemble(std::uint16_t honeypot) const;
  /// Rebuild every known honeypot's log, ordered by honeypot id.
  [[nodiscard]] std::vector<LogFile> reassemble_all() const;

  [[nodiscard]] std::uint64_t chunks_accepted() const noexcept {
    return chunks_accepted_;
  }
  [[nodiscard]] std::uint64_t chunks_duplicate() const noexcept {
    return chunks_duplicate_;
  }
  [[nodiscard]] std::uint64_t records_stored() const noexcept {
    return records_stored_;
  }
  [[nodiscard]] std::uint64_t chunks_quarantined() const noexcept {
    return chunks_quarantined_;
  }
  /// (honeypot, seq) of quarantined chunks in arrival order — the
  /// operator's triage list, capped at kQuarantineRefCap entries (the
  /// counter above keeps the true total; the overflow is
  /// `quarantine_dropped()`).
  struct QuarantineRef {
    std::uint16_t honeypot = 0;
    std::uint64_t seq = 0;
  };
  [[nodiscard]] const std::vector<QuarantineRef>& quarantine() const noexcept {
    return quarantine_;
  }
  /// Quarantined chunks beyond the ref cap (counted, refs not retained).
  [[nodiscard]] std::uint64_t quarantine_dropped() const noexcept {
    return chunks_quarantined_ > quarantine_.size()
               ? chunks_quarantined_ - quarantine_.size()
               : 0;
  }
  /// Records currently resident in quarantined chunks with no intact copy
  /// stored — the conservation ledger's `quarantined` disposition. The
  /// classification is decided once, at publish time, not at quarantine
  /// time: a later intact re-send of the same (honeypot, seq) moves the
  /// records to `stored` (the pending entry is erased), and a corrupt
  /// re-send of an ALREADY-stored sequence counts a chunk quarantine but
  /// zero resident records (they are durable regardless). Per-sequence
  /// tracking is capped at kQuarantineRefCap distinct sequences, like the
  /// triage refs; beyond it records are still counted but a winning re-send
  /// can no longer reclassify them (documented cap, not silent loss).
  [[nodiscard]] std::uint64_t records_quarantined_resident() const noexcept {
    return quarantine_resident_ + quarantine_resident_untracked_;
  }
  /// Highest stored sequence number + 1 for a honeypot (0 when none): the
  /// ack frontier a recovering manager re-acknowledges from.
  [[nodiscard]] std::uint64_t next_seq(std::uint16_t honeypot) const;

 private:
  struct PerHoneypot {
    LogHeader header;
    bool header_set = false;
    std::vector<std::string> names{""};  ///< rebuilt intern table
    std::map<std::uint64_t, std::vector<LogRecord>> chunks;  ///< by seq
  };

  std::map<std::uint16_t, PerHoneypot> honeypots_;
  std::uint64_t chunks_accepted_ = 0;
  std::uint64_t chunks_duplicate_ = 0;
  std::uint64_t records_stored_ = 0;
  std::uint64_t chunks_quarantined_ = 0;
  std::vector<QuarantineRef> quarantine_;
  /// Record counts of quarantined sequences still awaiting an intact
  /// re-send, keyed (honeypot, seq); erased when the re-send wins. Capped
  /// at kQuarantineRefCap entries (overflow counts into the untracked sum).
  std::map<std::pair<std::uint16_t, std::uint64_t>, std::uint64_t>
      quarantine_pending_;
  std::uint64_t quarantine_resident_ = 0;
  std::uint64_t quarantine_resident_untracked_ = 0;
};

}  // namespace edhp::logbook
