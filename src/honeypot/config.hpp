#pragma once
// Configuration types for honeypots and measurements.

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "logbook/spool.hpp"

namespace edhp::honeypot {

/// How a honeypot answers REQUEST-PART queries (Section IV.B of the paper).
enum class ContentStrategy : std::uint8_t {
  no_content,      ///< never answer part requests
  random_content,  ///< answer with random bytes
};

[[nodiscard]] std::string_view to_string(ContentStrategy s);

/// A fake file the manager orders a honeypot to advertise: the manager
/// specifies name, size and fileID (Section III.A).
struct AdvertisedFile {
  FileId id;
  std::string name;
  std::uint32_t size = 0;

  bool operator==(const AdvertisedFile&) const = default;
};

/// A greedy honeypot adopts harvested files into its advertised list only
/// during its first day connected (the greedy measurement's harvest phase).
inline constexpr Duration kGreedyHarvestWindow = days(1);

/// Per-honeypot configuration, assembled by the manager at launch.
struct HoneypotConfig {
  std::uint16_t id = 0;
  std::string name = "edhp";          ///< client name shown in handshakes
  ContentStrategy strategy = ContentStrategy::no_content;

  /// Greedy mode: adopt harvested files into the advertised list during
  /// kGreedyHarvestWindow. Every honeypot asks each contacting peer for its
  /// shared-file list (the distinct-files statistics); greedy ones also
  /// grow their advertised list from it.
  bool greedy = false;
  std::size_t greedy_max_files = 100000;

  /// Stage-1 anonymisation salt, shared measurement-wide by the manager.
  std::string salt = "edhp-measurement";

  /// Reconnect to the server on its own after a connection loss, below the
  /// manager's slower relaunch loop: capped exponential backoff with
  /// deterministic jitter (derived from honeypot id + attempt, never from an
  /// RNG stream, so enabling retries cannot shift unrelated draws). After
  /// the episode's retry budget (honeypot.cpp) the honeypot reports
  /// Status::dead and escalation moves to the manager's watchdog. Off by
  /// default: a connection loss reports Status::dead immediately, the
  /// pre-fault-subsystem behaviour.
  bool retry = false;

  /// Crash-safe log spooling (disabled by default: the whole in-memory log
  /// survives a crash, the pre-fault-subsystem behaviour).
  logbook::SpoolConfig spool;

  /// Admission control against hostile peers (disabled by default; the
  /// manager copies its own switch here at launch, like the salt).
  bool defense = false;

  /// Resource budgets + degradation policy (all ceilings default 0 =
  /// unlimited: the pre-budget data plane, bit-for-bit). The scenario fills
  /// these from ChaosConfig; the manager's launch path leaves them alone.
  budget::BudgetConfig budget;

  /// Audit self-test fault (0 = off, always off outside the conservation
  /// auditor's negative tests): silently destroy every Nth admitted record
  /// AFTER the shed/stream accounting points, a deliberate unaccounted loss
  /// the audit ledger must flag. Copied from ChaosConfig by the scenarios.
  std::uint32_t audit_selftest_drop = 0;

  /// Advertise-and-verify self-probes (off by default). Every probe period
  /// (honeypot.cpp) the honeypot alternates between (a) searching the
  /// server for one of its own advertised files — the reply must contain
  /// that file id — and (b) a canary GET-SOURCES for a hash it never
  /// advertised — any non-empty reply proves the server fabricates sources.
  /// A probe miss triggers an immediate re-advertise (self-heal) and is
  /// reported to the manager through the probe sink for server health
  /// scoring. Probes ride the server session's TCP link, so a probe
  /// unanswered by its timeout scores one miss, and a reply arriving after
  /// that is ignored.
  bool self_probes = false;

  /// Record-level integrity defenses (provenance tainting + forged-list
  /// rejection). Off by default: greedy honeypots adopt harvested catalog
  /// files into their own advertised list, so an honest peer sharing the
  /// same catalog files would trip the forged-list detector. The Byzantine
  /// campaigns enable this on the distributed fleet only.
  bool integrity_defense = false;

  /// Million-peer bench mode: fold every admitted record into a running
  /// count + FNV-1a fingerprint instead of appending it to the in-memory
  /// log, so the footprint stops growing with observed traffic. Intended
  /// for chaos-off campaigns only (an empty log means spooling and
  /// publication have nothing to ship); the dataset campaigns keep it off.
  bool stream_records = false;
};

}  // namespace edhp::honeypot
