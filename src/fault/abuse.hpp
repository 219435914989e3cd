#pragma once
// Adversarial-traffic subsystem.
//
// The paper's honeypots sat on the open 2008 eDonkey network, where any
// peer could send garbage bytes, flood connections, or hold sessions open
// — and the platform had to keep logging through it. This module is the
// traffic-level sibling of the fault subsystem (fault.hpp): where faults
// break the *infrastructure*, abuse breaks the *protocol conversation*,
// spawning hostile peers against the honeypots and the directory servers:
//
//   byte corruptor      opens a connection and speaks valid eDonkey whose
//                       wire bytes are flipped/truncated/extended in flight
//                       (net::Network corruption hook) — exercises every
//                       DecodeError path under fire;
//   connection flooder  bursts many connections from one node and holds
//                       them open doing nothing — exhausts session slots;
//   slowloris           completes the HELLO (or LOGIN) handshake, then goes
//                       silent holding the session for hours;
//   oversize abuser     sends protocol-valid but maximal messages: huge tag
//                       lists, 255-entry offer/shared-list floods, long
//                       search queries — burns parse and index work.
//
// The plan is an adversary plan (fault/plan.hpp): one arrival process per
// (class, target) pair on its own split stream. With `enabled == false` no
// attacker node is ever created and no RNG draw is consumed, so the
// campaigns stay bit-identical to an abuse-free build.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/budget.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "fault/rng_splits.hpp"
#include "net/network.hpp"
#include "proto/messages.hpp"

namespace edhp::fault {

/// Low 64-bit word of every hostile peer's user hash (common/budget.hpp):
/// the retention tests and the ablation bench filter on it.
using budget::kAbuseUserWord;

enum class AbuseKind : std::uint8_t {
  corrupt_episode,    ///< garbled-wire burst against one target
  connection_flood,   ///< connect burst held open from one node
  slowloris,          ///< handshake then silence
  oversize_messages,  ///< protocol-valid maximal messages
};

/// One scheduled attack episode. `subject` indexes honeypots first, then
/// servers: subject < honeypot_count is honeypot `subject`, otherwise server
/// `subject - honeypot_count`. `magnitude` is unused (1.0).
using AbuseEvent = Event<AbuseKind>;
using AbusePlan = Plan<AbuseKind>;

/// Attack-mix knobs. Every *_mtba of 0 disables that class; `intensity`
/// divides every mean inter-arrival time, so one knob scales the whole mix.
struct AbuseConfig {
  bool enabled = false;
  double intensity = 1.0;

  /// Per-target mean time between episodes, per class.
  Duration corrupt_mtba = hours(6);
  Duration flood_mtba = hours(8);
  Duration slowloris_mtba = hours(4);
  Duration oversize_mtba = hours(6);

  /// Hostile node pool per class (episodes round-robin over it).
  std::size_t attackers_per_class = 4;
};

/// Counters of attack work actually performed by an AbuseInjector.
struct AbuseStats {
  std::uint64_t corrupt_episodes = 0;
  std::uint64_t flood_episodes = 0;
  std::uint64_t slowloris_episodes = 0;
  std::uint64_t oversize_episodes = 0;
  std::uint64_t connections_opened = 0;  ///< attacker connects that completed
  std::uint64_t connects_refused = 0;    ///< refused at transport level
  std::uint64_t messages_sent = 0;       ///< hostile packets put on the wire
};

/// Build the abuse plan against `honeypots` honeypots and `servers` servers
/// over `horizon` seconds. Deterministic in (config, rng state); empty when
/// abuse is off, `horizon` is not positive and finite (NaN and +inf
/// included) or `intensity` is not positive (NaN included).
[[nodiscard]] AbusePlan make_plan(const AbuseConfig& config,
                                  std::size_t honeypots, std::size_t servers,
                                  Duration horizon, Rng rng);

/// Binds an AbusePlan to a live world: creates the hostile node pools and
/// runs every episode on the simulation engine.
class AbuseInjector {
 public:
  /// Translation from plan targets to the concrete world.
  struct Bindings {
    std::size_t honeypot_count = 0;
    std::function<net::NodeId(std::size_t)> honeypot_node;
    std::size_t server_count = 0;
    std::function<net::NodeId(std::size_t)> server_node;
  };

  /// `rng` seeds per-episode content draws (message payloads, corruption
  /// streams); it is independent of the plan's arrival draws.
  AbuseInjector(net::Network& network, AbusePlan plan, AbuseConfig config,
                Bindings bindings, Rng rng);

  /// Create the attacker node pools and schedule the whole plan. Must be
  /// called only when the campaign actually wants abuse: node creation
  /// shifts every later IP assignment (see Network::add_node).
  void arm();

  [[nodiscard]] const AbuseStats& stats() const noexcept { return stats_; }

 private:
  void apply(std::size_t index);
  [[nodiscard]] net::NodeId target_node(std::uint32_t target) const;
  [[nodiscard]] bool target_is_server(std::uint32_t target) const noexcept {
    return target >= bind_.honeypot_count;
  }
  /// The hostile identity used for a (kind, target) pair; its low word is
  /// kAbuseUserWord so attacker log records are filterable.
  [[nodiscard]] static UserId abuse_user(AbuseKind kind, std::uint32_t target);

  void corrupt_burst(net::EndpointPtr ep, net::NodeId attacker,
                     std::uint32_t target, std::size_t remaining);
  void flood_step(net::NodeId attacker, net::NodeId victim,
                  std::size_t remaining);
  /// A valid handshake packet for the target's channel.
  [[nodiscard]] net::Bytes handshake_packet(AbuseKind kind,
                                            std::uint32_t target) const;
  void oversize_burst(net::EndpointPtr ep, std::uint32_t target,
                      std::size_t remaining, Rng rng);

  net::Network& net_;
  AbusePlan plan_;
  AbuseConfig config_;
  Bindings bind_;
  Rng rng_;
  AbuseStats stats_;
  /// One hostile pool per AbuseKind, built at arm().
  HostilePool attackers_;
  /// The oversize episodes' file list, refilled in place for each message.
  std::vector<proto::PublishedFile> oversize_files_;
};

}  // namespace edhp::fault
