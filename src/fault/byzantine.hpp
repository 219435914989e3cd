#pragma once
// Byzantine fault subsystem: infrastructure that *lies*.
//
// The honeypots see the eDonkey network only through directory servers
// (OFFER-FILES in, queries out) and, when harvesting, through shared-file
// lists volunteered by contacting peers. The fault layer (fault.hpp)
// breaks things by *silence* — crashes, outages, partitions; the abuse
// layer (abuse.hpp) breaks the conversation with garbage. This module
// adds *wrongness*: components that keep talking but serve falsehoods,
// the one failure family that biases a measurement without ever raising
// an error.
//
// Server misbehaviors (windowed, per directory server):
//   offer_drop         OFFER-FILES silently ignored — the honeypot thinks
//                      it is indexed and it is not;
//   offer_truncate     only a prefix fraction of each offered list lands;
//   stale_index        offers during the window are indexed only when the
//                      window ends (indexed late), and a keepalive offer
//                      evicts the session's previous entry immediately
//                      (evicted early) — the index serves stale truth;
//   fabricate_sources  GET-SOURCES replies are padded with forged entries:
//                      nonexistent peers, and decoy sources pointing real
//                      clients at files they never advertised;
//   corrupt_search     search replies have their file ids garbled.
//
// Peer misbehaviors (episodic, per honeypot):
//   forge_shared_list  a liar peer HELLOs, then volunteers a shared-file
//                      list claiming the honeypot's own advertised hashes
//                      back at it — poisoning the harvest;
//   replay_hello       one connection re-HELLOs under rotated user hashes,
//                      inflating the distinct-user count.
//
// The plan is an adversary plan (fault/plan.hpp) on fresh split()
// sub-streams of rng.split(splits::kByzantineSeed) — enabling Byzantine
// behaviors never perturbs the fault or abuse schedules — and with
// `enabled == false` no liar node is created and no draw is consumed, so
// campaigns stay bit-identical.
//
// The detection/containment stack lives with the components it defends:
// honeypot self-probes + provenance tagging (honeypot/honeypot.hpp),
// manager health scores + server quarantine (honeypot/manager.hpp), and
// the server index consistency self-check (server/index.hpp).

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "fault/rng_splits.hpp"
#include "net/network.hpp"
#include "proto/messages.hpp"

namespace edhp::fault {

/// Marker in the low 64-bit word of every liar peer's user hash. Log
/// records keep only that low word, so a replayer rotating its hash must
/// rotate *within* it: the marker occupies the low 60 bits and the rotation
/// counter the top 4. The defenses never look at any of this — they must
/// catch liars from behavior alone — but tests use is_byzantine_user() to
/// prove that zero forged records leaked into a published log.
inline constexpr std::uint64_t kByzantineUserWord = 0x0B12A47BADC0FFEull;

/// Whether a log record's (truncated, 64-bit) user hash belongs to a liar
/// peer, regardless of its replay-rotation counter.
[[nodiscard]] inline constexpr bool is_byzantine_user(
    std::uint64_t user_word) noexcept {
  return (user_word & ((1ull << 60) - 1)) == kByzantineUserWord;
}

enum class ByzantineKind : std::uint8_t {
  offer_drop_begin,         ///< server starts dropping OFFER-FILES
  offer_drop_end,
  offer_truncate_begin,     ///< server keeps only a prefix of each list
  offer_truncate_end,
  stale_index_begin,        ///< offers deferred; keepalives evict early
  stale_index_end,          ///< deferred offers land (indexed late)
  fabricate_sources_begin,  ///< GET-SOURCES replies gain forged entries
  fabricate_sources_end,
  corrupt_search_begin,     ///< search replies garbled
  corrupt_search_end,
  forge_shared_list,        ///< one forged-list contact against a honeypot
  replay_hello,             ///< one rotated-hash HELLO burst
};

/// One scheduled Byzantine event. `subject` indexes servers for the
/// windowed server behaviors and honeypots for the peer behaviors;
/// `magnitude` is the keep-fraction of truncate windows (1.0 elsewhere).
using ByzantineEvent = Event<ByzantineKind>;
using ByzantinePlan = Plan<ByzantineKind>;

/// Byzantine knobs, carried inside ChaosConfig. Every *_mtbf / *_mtba of 0
/// disables that behavior. The defense knobs ride along so one struct
/// configures both the attack and its containment.
struct ByzantineConfig {
  bool enabled = false;

  // --- Server misbehaviors (renewal windows per server) ------------------
  Duration offer_drop_mtbf = 0;
  Duration offer_truncate_mtbf = 0;
  Duration stale_index_mtbf = 0;
  Duration fabricate_mtbf = 0;
  std::size_t fabricate_count = 3;      ///< forged entries per reply
  Duration corrupt_search_mtbf = 0;

  // --- Peer misbehaviors (arrival episodes per honeypot) -----------------
  Duration forge_list_mtba = 0;         ///< mean time between forged contacts
  Duration replay_hello_mtba = 0;

  // --- Defense knobs the scenarios propagate -----------------------------
  /// Ablation switch: false runs the campaign undefended — no self-probes,
  /// no provenance tagging, no quarantine — so liar records flow straight
  /// into the published log. The attack side is unaffected (same plan, same
  /// draws), which makes defended/undefended runs directly comparable.
  bool defend = true;
  double quarantine_threshold = 6.0;    ///< health score tripping quarantine
};

/// Counters of Byzantine behavior actually delivered by an injector.
struct ByzantineStats {
  std::uint64_t offer_drop_episodes = 0;
  std::uint64_t offer_truncate_episodes = 0;
  std::uint64_t stale_index_episodes = 0;
  std::uint64_t fabricate_episodes = 0;
  std::uint64_t corrupt_search_episodes = 0;
  std::uint64_t forged_lists_sent = 0;
  std::uint64_t replayed_hellos_sent = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t connects_refused = 0;
  std::uint64_t messages_sent = 0;
};

/// Build the Byzantine plan for `servers` directory servers and
/// `honeypots` honeypot targets over `horizon` seconds. Deterministic in
/// (config, rng state); empty when the Byzantine model is off or `horizon`
/// is not positive and finite (NaN and +inf included).
[[nodiscard]] ByzantinePlan make_plan(const ByzantineConfig& config,
                                      std::size_t honeypots,
                                      std::size_t servers, Duration horizon,
                                      Rng rng);

/// Binds a ByzantinePlan to a live world: flips the server-lie switches
/// through scenario-provided hooks and runs the liar peers.
class ByzantineInjector {
 public:
  /// Translation from plan subjects to the concrete world. An unset
  /// server-lie hook makes its events no-ops.
  struct Bindings {
    std::size_t honeypot_count = 0;
    std::function<net::NodeId(std::size_t)> honeypot_node;
    /// (server, active): silently ignore OFFER-FILES during the window.
    std::function<void(std::size_t, bool)> drop_offers;
    /// (server, active, keep): index only a prefix fraction of each list.
    std::function<void(std::size_t, bool, double)> truncate_offers;
    /// (server, active): defer offers; apply them when deactivated.
    std::function<void(std::size_t, bool)> stale_index;
    /// (server, active, count, seed): pad GET-SOURCES replies with forged
    /// entries; `seed` makes the forged identities deterministic.
    std::function<void(std::size_t, bool, std::size_t, std::uint64_t)>
        fabricate_sources;
    /// (server, active, seed): garble search replies.
    std::function<void(std::size_t, bool, std::uint64_t)> corrupt_search;
    /// The honeypot's currently advertised files — the material a forging
    /// peer claims back at it.
    std::function<std::vector<proto::PublishedFile>(std::size_t)>
        advertised_files;
  };

  /// `rng` seeds liar content (forged identities, per-window lie seeds);
  /// independent of the plan's arrival draws.
  ByzantineInjector(net::Network& network, ByzantinePlan plan,
                    ByzantineConfig config, Bindings bindings, Rng rng);

  /// Create the liar node pools and schedule the whole plan. Call only
  /// when the campaign wants Byzantine behavior: node creation shifts
  /// every later IP assignment (see Network::add_node).
  void arm();

  [[nodiscard]] const ByzantineStats& stats() const noexcept { return stats_; }

 private:
  void apply(std::size_t index);
  void forge_episode(std::size_t index, std::uint32_t subject);
  void replay_episode(std::size_t index, std::uint32_t subject);
  void replay_step(net::EndpointPtr ep, std::uint64_t episode,
                   std::size_t sent);

  net::Network& net_;
  ByzantinePlan plan_;
  ByzantineConfig config_;
  Bindings bind_;
  Rng rng_;
  ByzantineStats stats_;
  /// Liar pools: class 0 = forgers, class 1 = replayers; built at arm().
  HostilePool liars_;
};

}  // namespace edhp::fault
