#pragma once
// Write-ahead journal for the manager's control plane.
//
// The manager is the platform's last single point of failure: it launches
// honeypots, assigns servers and merges logs, but (before this module) all
// of that lived in process memory. The journal is the durable side of the
// control plane: an append-only stream of framed, checksummed entries, one
// per state transition, that a restarted manager replays to reconstruct the
// fleet table, watchdog counters and spool-ack frontier before re-adopting
// the honeypots that kept running (and spooling) while it was down.
//
// Frame layout (little-endian):
//
//   [u8 type][u32 payload_len][u64 fnv1a(payload)][payload bytes]
//
// The length prefix + checksum give crash semantics a fsync'd file would:
//   - a frame cut short by a crash mid-append (header or payload missing
//     bytes) is a TORN TAIL: scan() stops cleanly before it and reports the
//     discarded byte count — never an exception, never a garbage entry;
//   - a complete frame whose payload fails its checksum (bit rot, a torn
//     write that happened to keep the length intact) is QUARANTINED: the
//     entry is skipped and reported with its offset, and scanning continues
//     with the next frame.
//
// The journal itself is format-agnostic (type + payload bytes); the typed
// manager entries and their codec live in honeypot/journal_entries.hpp. The
// type registry below exists here so audit tooling (edhp_inspect journal)
// can name entries without linking the control plane.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace edhp::logbook {

/// FNV-1a over a byte span (the checksum used for journal frames and spool
/// chunks).
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

/// Control-plane entry types. The numeric values are part of the on-disk
/// format: append only, never renumber.
enum class JournalEntryType : std::uint8_t {
  checkpoint = 1,     ///< full state snapshot; replay starts at the last one
  launch = 2,         ///< honeypot added to the fleet
  reassign = 3,       ///< slot pointed at another server
  advertise = 4,      ///< file list ordered for a slot
  backups = 5,        ///< backup-server set replaced
  start = 6,          ///< status polling began
  stop = 7,           ///< polling stopped, fleet disconnected
  relaunch = 8,       ///< watchdog relaunch attempt (epoch bump)
  escalate = 9,       ///< watchdog escalation to a backup server
  repair = 10,        ///< ordered-list re-offer (advertise repair)
  chunk_stored = 11,  ///< spool chunk durably ingested (ack frontier)
  recovered = 12,     ///< a recovery completed (downtime accounting)
  degrade_enter = 13, ///< a honeypot declared degraded mode (overload)
  degrade_exit = 14,  ///< degraded mode ended (shed/compaction totals)
  probe_verdict = 15,      ///< a self-probe verdict reached the manager
  server_quarantine = 16,  ///< a lying server quarantined, slots reassigned
  server_reinstate = 17,   ///< quarantine cooloff ended, slots moved back
  clock_observation = 18,  ///< a honeypot's (true, local) clock sighting
};

[[nodiscard]] std::string_view to_string(JournalEntryType t);

/// One decoded frame.
struct JournalEntry {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
  std::size_t offset = 0;  ///< byte offset of the frame start
};

/// Result of scanning a journal byte stream. Never throws: damage is
/// reported, not raised.
struct JournalScan {
  std::vector<JournalEntry> entries;     ///< intact frames, in order
  std::vector<JournalEntry> quarantined; ///< complete frames failing checksum
  bool torn_tail = false;   ///< stream ended inside a frame
  std::size_t torn_bytes = 0;  ///< bytes discarded with the torn tail
};

/// Scan a raw frame stream (no file magic), tolerating a torn tail and
/// quarantining corrupt frames. See the header comment for the policy.
[[nodiscard]] JournalScan scan_journal(std::span<const std::uint8_t> bytes);

/// The append-only journal device. In the field this is an fsync'd file on
/// the manager host; here it is a byte buffer that survives the manager
/// object's crash/recover cycle (it is shared between incarnations via
/// ManagerConfig::journal).
class Journal {
 public:
  /// Append one framed entry.
  void append(std::uint8_t type, std::span<const std::uint8_t> payload);
  void append(JournalEntryType type, std::span<const std::uint8_t> payload) {
    append(static_cast<std::uint8_t>(type), payload);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return bytes_.size(); }
  [[nodiscard]] std::uint64_t entries_appended() const noexcept {
    return entries_appended_;
  }

  /// Scan the current contents (see scan_journal).
  [[nodiscard]] JournalScan scan() const { return scan_journal(bytes_); }

  /// Persist to / restore from a file ("EDHPJRN1" magic + raw frames).
  /// save throws std::runtime_error on I/O failure; load throws on missing
  /// file or bad magic — but never on damaged frames, which scan() reports.
  void save(const std::string& path) const;
  [[nodiscard]] static Journal load(const std::string& path);

  /// Adopt a raw frame stream (tests, tools). Entry count is recomputed
  /// from an initial scan.
  [[nodiscard]] static Journal from_bytes(std::vector<std::uint8_t> bytes);

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t entries_appended_ = 0;
};

}  // namespace edhp::logbook
