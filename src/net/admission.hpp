#pragma once
// Admission control against adversarial traffic, shared by the server and
// the honeypots.
//
// The 2008 open eDonkey network delivered not only benign queries but also
// floods, half-open sessions and garbage bytes; a measurement platform has
// to keep logging through all of it. Both listeners facing that traffic —
// the directory server and the honeypot — put the same gate in front of
// their decoders: this header holds it (AdmissionGate), its lazily-refilled
// token bucket and the decision counters (DefenseStats). A listener only
// switches the gate on or off; its thresholds are fixed (kMaxSessions …
// kQueueService in admission.cpp), tuned so that benign campaign traffic
// never trips them while every abuse class in fault::AbuseConfig does.
//
// Determinism contract: none of these defenses consume an RNG stream, and
// with the gate off the owning node schedules no extra events and takes no
// extra branches that alter traffic — a defense-off run stays bit-identical
// to a build without this layer.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>

#include "common/clock.hpp"
#include "net/network.hpp"

namespace edhp::net {

/// One counter per defense decision, aggregated per defender and summed
/// fleet-wide into scenario::ScenarioResult.
struct DefenseStats {
  std::uint64_t accepted = 0;      ///< connections admitted past all gates
  std::uint64_t shed = 0;          ///< LIFO-shed at the session cap
  std::uint64_t rate_limited = 0;  ///< bucket rejections (connects + messages)
  std::uint64_t reaped = 0;        ///< handshake / idle timeouts fired
  std::uint64_t malformed = 0;     ///< packets the decoder rejected
  std::uint64_t queue_dropped = 0; ///< inbound packets shed oldest-first

  DefenseStats& operator+=(const DefenseStats& other) noexcept;
};

/// Classic token bucket with lazy refill: no timer, no RNG; refilled from
/// the elapsed simulation time on each take attempt. The rate must be
/// positive; a default-constructed bucket is a placeholder that must be
/// replaced before its first try_take (AdmissionGate::open does).
///
/// Internally the bucket runs on u64 fixed point — time in integer
/// microseconds, tokens in micro-tokens (1 token = 1'000'000 µtok) — with a
/// remainder accumulator so sub-µtoken-per-µs rates refill exactly. The
/// refill SATURATES: when `elapsed_µs × rate` would exceed u64 range (a
/// session idle for weeks at campaign scale), the bucket simply fills to
/// burst instead of wrapping and starving a well-behaved peer.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst, Time now);

  /// Take `cost` tokens if available at time `now`.
  [[nodiscard]] bool try_take(Time now, double cost = 1.0);

  /// Whole tokens currently available (diagnostics/tests).
  [[nodiscard]] double tokens() const noexcept {
    return static_cast<double>(tokens_utok_) / 1e6;
  }

 private:
  std::uint64_t rate_utok_ = 0;    ///< µtokens refilled per second
  std::uint64_t burst_utok_ = 0;   ///< bucket capacity in µtokens
  std::uint64_t tokens_utok_ = 0;  ///< current fill in µtokens
  std::uint64_t rem_utok_us_ = 0;  ///< refill remainder (µtok·µs carry)
  std::uint64_t last_us_ = 0;      ///< last refill instant in µs
};

/// What the gate keeps per session, inside the listener's session record.
struct GateSession {
  TokenBucket bucket;     ///< per-session message budget
  sim::EventHandle reap;  ///< pending handshake/idle timeout
};

/// One listener's admission gate: LIFO shedding at the session cap, the
/// per-remote connect bucket, each session's message bucket and reap timer,
/// and the bounded oldest-first inbox served in batches. The listener keeps
/// its own hard caps (checked before admit()), its decoder (`process`) and
/// its drop (`reap`); the gate calls both back by session key.
///
/// With the gate off, admit() admits, open()/touch() do nothing and the
/// listener hands packets straight to its decoder instead of to receive().
class AdmissionGate {
 public:
  using Key = std::uint64_t;
  /// Decode and dispatch one admitted packet of session `key`.
  using Process = std::function<void(Key, Bytes)>;
  /// Close and forget session `key`, whose reap timer fired; false when
  /// the listener no longer holds it.
  using Reap = std::function<bool(Key)>;

  AdmissionGate(Network& network, NodeId self, bool enabled, Process process,
                Reap reap);

  // Scheduled reaps and inbox service capture `this`.
  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const DefenseStats& stats() const noexcept { return stats_; }

  /// Decide one arrival from `remote` while `live` sessions are open: shed
  /// at the session cap (the NEWEST arrival goes — established sessions
  /// carry the measurement), then take from the remote's connect bucket.
  /// False: the listener closes the connection.
  [[nodiscard]] bool admit(std::size_t live, NodeId remote);
  /// Start an admitted session's message bucket and handshake timer.
  void open(Key key, GateSession& session);
  /// One inbound packet of a live session (gate on): past the session's
  /// message bucket into the inbox, whose service is armed if idle.
  void receive(Key key, GateSession& session, Bytes packet);
  /// The session's packet decoded as valid: its deadline moves out to the
  /// idle timeout.
  void touch(Key key, GateSession& session);
  /// The listener forgets the session: cancel its reap timer.
  void forget(GateSession& session);
  /// Count a packet the listener's decoder rejected (also per node).
  void malformed();
  /// Drop the inbox, its pending service slice and the connect buckets
  /// (listener stop, crash or disconnect).
  void reset();

 private:
  /// (Re)schedule the session's reap timer; O(1) cancel of the old one.
  void arm_reap(Key key, GateSession& session, Duration timeout);
  /// Decode up to kQueueBatch packets from the inbox, re-arming if more
  /// remain.
  void service();

  Network& net_;
  NodeId self_;
  bool enabled_;
  Process process_;
  Reap reap_;
  DefenseStats stats_;
  /// Per-remote-node connect buckets, created lazily.
  std::unordered_map<NodeId, TokenBucket> connect_buckets_;
  std::deque<std::pair<Key, Bytes>> inbox_;
  /// The inbox's next service slice, while inbox_armed_.
  sim::EventHandle service_;
  bool inbox_armed_ = false;
};

}  // namespace edhp::net
