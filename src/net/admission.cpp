#include "net/admission.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace edhp::net {

DefenseStats& DefenseStats::operator+=(const DefenseStats& other) noexcept {
  accepted += other.accepted;
  shed += other.shed;
  rate_limited += other.rate_limited;
  reaped += other.reaped;
  malformed += other.malformed;
  queue_dropped += other.queue_dropped;
  return *this;
}

namespace {

/// Session cap with LIFO shedding: once this many sessions are live, the
/// newest arrival is shed — established (older) sessions, which carry the
/// measurement, are never sacrificed to a flood.
constexpr std::size_t kMaxSessions = 256;

/// Per-remote-node connect token bucket (refill per second / burst).
constexpr double kConnectRate = 0.5;
constexpr double kConnectBurst = 12.0;

/// A session that has not produced one valid message within this window
/// is reaped (kills flood holds and pre-HELLO slowloris).
constexpr Duration kHandshakeTimeout = 30.0;
/// A session idle this long after its last valid message is reaped. Must
/// exceed every benign quiet period (the honeypot's 30-minute OFFER
/// keep-alive on its server link being the longest).
constexpr Duration kIdleTimeout = hours(2);

/// Per-session message token bucket (refill per second / burst); messages
/// beyond it are dropped (counted, not fatal — a later in-budget message
/// still works).
constexpr double kMessageRate = 8.0;
constexpr double kMessageBurst = 80.0;

/// Bounded inbound work queue: packets beyond kMaxQueue are shed
/// oldest-first, and at most kQueueBatch packets are decoded per service
/// slice, one slice every kQueueService seconds.
constexpr std::size_t kMaxQueue = 512;
constexpr std::size_t kQueueBatch = 64;
constexpr Duration kQueueService = 0.05;

constexpr std::uint64_t kMicro = 1'000'000;

std::uint64_t to_micro(double v) {
  return static_cast<std::uint64_t>(std::llround(v * 1e6));
}

}  // namespace

TokenBucket::TokenBucket(double rate_per_sec, double burst, Time now)
    : rate_utok_(to_micro(rate_per_sec)),
      burst_utok_(to_micro(std::max(burst, 1.0))),
      tokens_utok_(burst_utok_),
      last_us_(to_micro(std::max(now, 0.0))) {}

bool TokenBucket::try_take(Time now, double cost) {
  assert(rate_utok_ > 0);  // a placeholder bucket was never replaced
  const std::uint64_t now_us = to_micro(std::max(now, 0.0));
  if (now_us > last_us_) {
    const std::uint64_t elapsed = now_us - last_us_;
    // µs × µtok/s overflows u64 after ~weeks of idle at typical rates;
    // saturate to a full bucket instead of wrapping (the idle session has
    // earned at least a burst by then, by any arithmetic).
    if (elapsed > (~0ull - rem_utok_us_) / rate_utok_) {
      tokens_utok_ = burst_utok_;
      rem_utok_us_ = 0;
    } else {
      const std::uint64_t total = elapsed * rate_utok_ + rem_utok_us_;
      tokens_utok_ = std::min(burst_utok_, tokens_utok_ + total / kMicro);
      rem_utok_us_ = tokens_utok_ == burst_utok_ ? 0 : total % kMicro;
    }
    last_us_ = now_us;
  }
  const std::uint64_t cost_utok = to_micro(cost);
  if (tokens_utok_ < cost_utok) return false;
  tokens_utok_ -= cost_utok;
  return true;
}

AdmissionGate::AdmissionGate(Network& network, NodeId self, bool enabled,
                             Process process, Reap reap)
    : net_(network),
      self_(self),
      enabled_(enabled),
      process_(std::move(process)),
      reap_(std::move(reap)) {}

bool AdmissionGate::admit(std::size_t live, NodeId remote) {
  if (!enabled_) return true;
  if (live >= kMaxSessions) {
    stats_.shed += 1;
    return false;
  }
  const Time now = net_.simulation().now();
  auto bucket = connect_buckets_
                    .try_emplace(remote, kConnectRate, kConnectBurst, now)
                    .first;
  if (!bucket->second.try_take(now)) {
    stats_.rate_limited += 1;
    return false;
  }
  return true;
}

void AdmissionGate::open(Key key, GateSession& session) {
  if (!enabled_) return;
  stats_.accepted += 1;
  session.bucket =
      TokenBucket(kMessageRate, kMessageBurst, net_.simulation().now());
  arm_reap(key, session, kHandshakeTimeout);
}

void AdmissionGate::receive(Key key, GateSession& session, Bytes packet) {
  if (!session.bucket.try_take(net_.simulation().now())) {
    stats_.rate_limited += 1;
    return;  // dropped, not fatal: a later in-budget message still works
  }
  inbox_.emplace_back(key, std::move(packet));
  if (inbox_.size() > kMaxQueue) {
    // Overload: shed oldest-first so the queue stays bounded and fresh
    // traffic (which the sender will retry least) survives.
    inbox_.pop_front();
    stats_.queue_dropped += 1;
  }
  if (!inbox_armed_) {
    inbox_armed_ = true;
    service_ =
        net_.simulation().schedule_in(kQueueService, [this] { service(); });
  }
}

void AdmissionGate::touch(Key key, GateSession& session) {
  if (!enabled_) return;
  arm_reap(key, session, kIdleTimeout);
}

void AdmissionGate::forget(GateSession& session) {
  net_.simulation().cancel(session.reap);
}

void AdmissionGate::malformed() {
  stats_.malformed += 1;
  net_.note_malformed(self_);
}

void AdmissionGate::reset() {
  // A slice left scheduled would start a second service chain beside the
  // one the next packet arms.
  if (inbox_armed_) net_.simulation().cancel(service_);
  inbox_.clear();
  inbox_armed_ = false;
  connect_buckets_.clear();
}

void AdmissionGate::arm_reap(Key key, GateSession& session, Duration timeout) {
  auto& sim = net_.simulation();
  sim.cancel(session.reap);  // O(1); harmless on an invalid/spent handle
  session.reap = sim.schedule_in(timeout, [this, key] {
    if (reap_(key)) stats_.reaped += 1;
  });
}

void AdmissionGate::service() {
  inbox_armed_ = false;
  for (std::size_t n = 0; n < kQueueBatch && !inbox_.empty(); ++n) {
    auto [key, packet] = std::move(inbox_.front());
    inbox_.pop_front();
    process_(key, std::move(packet));
  }
  if (!inbox_.empty()) {
    inbox_armed_ = true;
    service_ =
        net_.simulation().schedule_in(kQueueService, [this] { service(); });
  }
}

}  // namespace edhp::net
