#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/rng_splits.hpp"

namespace edhp::net {
namespace {

constexpr double kLatencyMu = -3.0;     ///< lognormal mu of one-way latency (s)
constexpr double kLatencySigma = 0.45;  ///< lognormal sigma
constexpr double kMinLatency = 0.005;   ///< floor (s)
constexpr double kDefaultUploadBps = 80.0 * 1024;  ///< 2008 ADSL uplink, bytes/s

}  // namespace

struct Endpoint::Shared {
  /// One queued in-flight message.
  struct Delivery {
    double arrival = 0.0;       // absolute arrival time
    std::size_t wire = 0;       // accounted wire footprint
    Bytes payload;
  };
  /// FIFO of in-flight messages on a ring that doubles when full. Nothing
  /// is allocated before the first send, and a queue that drains keeps its
  /// ring for the next burst.
  class Queue {
   public:
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] const Delivery& front() const { return ring_[head_]; }
    void push(Delivery d) {
      if (count_ == ring_.size()) grow();
      ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(d);
      ++count_;
    }
    Delivery pop() {
      Delivery d = std::move(ring_[head_]);
      head_ = (head_ + 1) & (ring_.size() - 1);
      --count_;
      return d;
    }
    /// Drop everything queued and release the ring.
    void clear() noexcept {
      ring_ = {};
      head_ = count_ = 0;
    }

   private:
    void grow() {
      std::vector<Delivery> ring(ring_.empty() ? 4 : 2 * ring_.size());
      for (std::size_t i = 0; i < count_; ++i) {
        ring[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
      }
      ring_ = std::move(ring);
      head_ = 0;
    }

    std::vector<Delivery> ring_;  ///< size is zero or a power of two
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };
  /// One direction of the connection: a FIFO of in-flight messages drained
  /// by at most one scheduled simulation event (the head-of-line arrival).
  struct Direction {
    Queue queue;
    bool armed = false;         // head-of-line event scheduled
  };

  Network* net = nullptr;
  double latency = 0.0;  // one-way propagation delay, seconds
  bool open = true;
  NodeId node_a = 0;     // initiator (for fault-layer RST matching)
  NodeId node_b = 0;     // acceptor
  std::weak_ptr<Endpoint> a;
  std::weak_ptr<Endpoint> b;
  Direction to_a;
  Direction to_b;
};

bool Endpoint::open() const noexcept { return shared_ && shared_->open; }

void Endpoint::send_sized(Bytes payload, std::size_t wire_size) {
  if (!open()) return;
  Network& net = *shared_->net;
  if (!net.corruptors_.empty()) {
    net.maybe_corrupt(local_, payload);
  }
  const std::size_t bytes_on_wire = std::max(wire_size, payload.size());
  const double now = net.sim_.now();
  const double serialization =
      upload_bps_ > 0 ? static_cast<double>(bytes_on_wire) / upload_bps_ : 0.0;
  const double start = std::max(now, next_free_tx_);
  next_free_tx_ = start + serialization;
  const double arrival = next_free_tx_ + shared_->latency;

  if (Network::NodeSlot* tx = net.slot_of(local_)) {
    tx->counters.messages_sent += 1;
    tx->counters.bytes_serialized += bytes_on_wire;
  }
  net.totals_.messages_sent += 1;
  net.totals_.bytes_serialized += bytes_on_wire;

  auto& direction = is_a_ ? shared_->to_b : shared_->to_a;
  direction.queue.push(
      Shared::Delivery{arrival, bytes_on_wire, std::move(payload)});
  if (!direction.armed) {
    net.arm_delivery(shared_, /*to_a=*/!is_a_);
  }
}

void Endpoint::close() {
  if (!open()) return;
  auto shared = shared_;
  shared->open = false;
  // In-flight data is dropped, like a RST; release payload memory now. Any
  // armed head-of-line event sees open == false and does nothing.
  shared->to_a.queue.clear();
  shared->to_b.queue.clear();
  std::weak_ptr<Endpoint> target = is_a_ ? shared->b : shared->a;
  shared->net->sim_.schedule_in(shared->latency,
                                [target = std::move(target)] {
                                  auto ep = target.lock();
                                  if (ep && ep->on_close_) ep->on_close_();
                                });
}

Network::Network(sim::Simulation& simulation, LinkModel model)
    : sim_(simulation),
      model_(model),
      rng_(simulation.rng().split(fault::splits::kNetwork)) {}

Network::NodeSlot* Network::slot_of(NodeId id) noexcept {
  if (id >= node_slot_.size()) return nullptr;
  const std::uint32_t s = node_slot_[id];
  return s == kRetiredSlot ? nullptr : &node_slots_[s];
}

const Network::NodeSlot* Network::slot_of(NodeId id) const noexcept {
  if (id >= node_slot_.size()) return nullptr;
  const std::uint32_t s = node_slot_[id];
  return s == kRetiredSlot ? nullptr : &node_slots_[s];
}

Network::NodeSlot* Network::known_slot(NodeId id, const char* what) {
  if (id >= node_slot_.size()) {
    throw std::out_of_range(what);
  }
  return slot_of(id);
}

const Network::NodeSlot* Network::known_slot(NodeId id,
                                             const char* what) const {
  if (id >= node_slot_.size()) {
    throw std::out_of_range(what);
  }
  return slot_of(id);
}

void Network::arm_delivery(const std::shared_ptr<Endpoint::Shared>& shared,
                           bool to_a) {
  auto& direction = to_a ? shared->to_a : shared->to_b;
  direction.armed = true;
  sim_.schedule_at(direction.queue.front().arrival,
                   [this, shared, to_a] { deliver_head(shared, to_a); });
}

void Network::deliver_head(const std::shared_ptr<Endpoint::Shared>& shared,
                           bool to_a) {
  auto& direction = to_a ? shared->to_a : shared->to_b;
  direction.armed = false;
  if (!shared->open) {
    direction.queue.clear();
    return;
  }
  Endpoint::Shared::Delivery delivery = direction.queue.pop();
  // Chain the next arrival before invoking the handler, so handler-side
  // sends on the same connection append behind an already-armed head.
  if (!direction.queue.empty()) {
    arm_delivery(shared, to_a);
  }
  auto ep = (to_a ? shared->a : shared->b).lock();
  if (!ep || !ep->on_message_) return;
  if (NodeSlot* rx = slot_of(ep->local_)) {
    rx->counters.messages_delivered += 1;
    rx->counters.bytes_delivered += delivery.wire;
  }
  totals_.messages_delivered += 1;
  totals_.bytes_delivered += delivery.wire;
  ep->on_message_(std::move(delivery.payload));
}

NodeId Network::add_node(bool reachable, double tz_offset_hours,
                         std::optional<double> upload_bps) {
  const auto id = static_cast<NodeId>(node_slot_.size());
  // Knuth multiplicative hash is a bijection on 32-bit ints, so every node
  // gets a distinct synthetic IP; add 1 so node 0 does not map to 0.0.0.0.
  // Ids are never reused, so the id -> IP mapping is stable regardless of
  // how many earlier nodes were retired.
  std::uint32_t ip = (id + 1u) * 2654435761u;
  if (ip == 0) ip = 1;

  std::uint32_t s;
  if (free_node_head_ != kRetiredSlot) {
    s = free_node_head_;
    free_node_head_ = node_slots_[s].next_free;
    node_slots_[s] = NodeSlot{};
  } else {
    s = static_cast<std::uint32_t>(node_slots_.size());
    node_slots_.emplace_back();
  }
  NodeSlot& slot = node_slots_[s];
  slot.info = NodeInfo{IpAddr(ip), 4662, reachable, tz_offset_hours};
  slot.upload_bps = upload_bps.value_or(kDefaultUploadBps);
  node_slot_.push_back(s);
  by_ip_.emplace(ip, id);
  ++live_nodes_;
  peak_live_nodes_ = std::max(peak_live_nodes_, live_nodes_);
  return id;
}

void Network::retire_node(NodeId id) {
  if (id >= node_slot_.size()) {
    throw std::out_of_range("Network::retire_node: unknown node");
  }
  const std::uint32_t s = node_slot_[id];
  if (s == kRetiredSlot) return;  // idempotent
  NodeSlot& slot = node_slots_[s];
  by_ip_.erase(slot.info.ip.value());
  listeners_.erase(id);
  datagram_listeners_.erase(id);
  corruptors_.erase(id);
  node_slot_[id] = kRetiredSlot;
  slot = NodeSlot{};
  slot.next_free = free_node_head_;
  free_node_head_ = s;
  --live_nodes_;
  ++nodes_retired_;
}

void Network::set_node_up(NodeId id, bool up) {
  if (NodeSlot* slot = known_slot(id, "Network::set_node_up: unknown node")) {
    slot->up = up ? 1 : 0;
  }
}

bool Network::node_up(NodeId id) const {
  const NodeSlot* slot = known_slot(id, "Network::node_up: unknown node");
  return slot != nullptr && slot->up != 0;
}

void Network::set_partition(NodeId id, std::uint32_t group) {
  if (NodeSlot* slot = known_slot(id, "Network::set_partition: unknown node")) {
    slot->partition = group;
  }
}

std::uint32_t Network::partition_of(NodeId id) const {
  const NodeSlot* slot = known_slot(id, "Network::partition_of: unknown node");
  return slot == nullptr ? 0 : slot->partition;
}

void Network::set_latency_factor(NodeId id, double factor) {
  if (NodeSlot* slot =
          known_slot(id, "Network::set_latency_factor: unknown node")) {
    slot->latency_factor = factor > 0 ? factor : 1.0;
  }
}

bool Network::link_usable(NodeId from, NodeId to) const {
  const NodeSlot* f = slot_of(from);
  const NodeSlot* t = slot_of(to);
  if (f == nullptr || t == nullptr || f->up == 0 || t->up == 0) return false;
  return f->partition == t->partition;
}

double Network::latency_factor(NodeId from, NodeId to) const {
  const NodeSlot* f = slot_of(from);
  const NodeSlot* t = slot_of(to);
  return std::max(f == nullptr ? 1.0 : f->latency_factor,
                  t == nullptr ? 1.0 : t->latency_factor);
}

std::size_t Network::abort_matching(
    const std::function<bool(NodeId, NodeId)>& pred) {
  std::size_t aborted = 0;
  for (auto& weak : live_conns_) {
    auto shared = weak.lock();
    if (!shared || !shared->open) continue;
    if (!pred(shared->node_a, shared->node_b)) continue;
    shared->open = false;
    shared->to_a.queue.clear();
    shared->to_b.queue.clear();
    // Both sides observe the RST after one propagation delay.
    for (auto target : {shared->a, shared->b}) {
      sim_.schedule_in(shared->latency, [target = std::move(target)] {
        auto ep = target.lock();
        if (ep && ep->on_close_) ep->on_close_();
      });
    }
    if (NodeSlot* sa = slot_of(shared->node_a)) {
      sa->counters.connections_aborted += 1;
    }
    if (NodeSlot* sb = slot_of(shared->node_b)) {
      sb->counters.connections_aborted += 1;
    }
    totals_.connections_aborted += 1;
    ++aborted;
  }
  // Compact once most entries are dead so long campaigns stay O(live).
  if (live_conns_.size() > 64) {
    std::size_t alive = 0;
    for (const auto& weak : live_conns_) {
      if (!weak.expired()) ++alive;
    }
    if (alive < live_conns_.size() / 2) {
      std::erase_if(live_conns_, [](const auto& w) { return w.expired(); });
    }
  }
  return aborted;
}

std::size_t Network::abort_connections(NodeId id) {
  return abort_matching(
      [id](NodeId a, NodeId b) { return a == id || b == id; });
}

std::size_t Network::abort_cross_partition() {
  return abort_matching([this](NodeId a, NodeId b) {
    const NodeSlot* sa = slot_of(a);
    const NodeSlot* sb = slot_of(b);
    return (sa == nullptr ? 0 : sa->partition) !=
           (sb == nullptr ? 0 : sb->partition);
  });
}

void Network::set_corruption(NodeId id, const CorruptionSpec& spec) {
  if (known_slot(id, "Network::set_corruption: unknown node") == nullptr) {
    return;  // retired senders cannot transmit, let alone corrupt
  }
  corruptors_[id] = CorruptionState{spec, Rng(spec.seed)};
}

void Network::clear_corruption(NodeId id) { corruptors_.erase(id); }

void Network::maybe_corrupt(NodeId sender, Bytes& payload) {
  auto it = corruptors_.find(sender);
  if (it == corruptors_.end()) return;
  auto& state = it->second;
  bool touched = false;
  if (!payload.empty() && state.rng.chance(state.spec.flip)) {
    const std::size_t at = state.rng.below(payload.size());
    payload[at] ^= static_cast<std::uint8_t>(1u << state.rng.below(8));
    touched = true;
  }
  if (!payload.empty() && state.rng.chance(state.spec.truncate)) {
    payload.resize(state.rng.below(payload.size()));  // keep a random prefix
    touched = true;
  }
  if (state.rng.chance(state.spec.extend)) {
    const std::size_t extra = 1 + state.rng.below(16);
    for (std::size_t i = 0; i < extra; ++i) {
      payload.push_back(static_cast<std::uint8_t>(state.rng.below(256)));
    }
    touched = true;
  }
  if (touched) {
    if (NodeSlot* slot = slot_of(sender)) {
      slot->counters.messages_corrupted += 1;
    }
    totals_.messages_corrupted += 1;
  }
}

void Network::note_malformed(NodeId id) {
  if (NodeSlot* slot = known_slot(id, "Network::note_malformed: unknown node")) {
    slot->counters.malformed_packets += 1;
    totals_.malformed_packets += 1;
  }
}

std::optional<NodeId> Network::find_by_ip(std::uint32_t ip) const {
  auto it = by_ip_.find(ip);
  if (it == by_ip_.end()) return std::nullopt;
  return it->second;
}

const NodeInfo& Network::info(NodeId id) const {
  const NodeSlot* slot = known_slot(id, "Network::info: unknown node");
  if (slot == nullptr) {
    throw std::out_of_range("Network::info: retired node");
  }
  return slot->info;
}

const LinkCounters& Network::counters(NodeId id) const {
  const NodeSlot* slot = known_slot(id, "Network::counters: unknown node");
  if (slot == nullptr) {
    static const LinkCounters kRetired{};  // counters died with the node
    return kRetired;
  }
  return slot->counters;
}

void Network::listen(NodeId id, AcceptHandler handler) {
  if (known_slot(id, "Network::listen: unknown node") == nullptr) return;
  listeners_[id] = std::move(handler);
}

void Network::stop_listening(NodeId id) { listeners_.erase(id); }

void Network::listen_datagram(NodeId id, DatagramHandler handler) {
  if (known_slot(id, "Network::listen_datagram: unknown node") == nullptr) {
    return;
  }
  datagram_listeners_[id] = std::move(handler);
}

void Network::stop_listening_datagram(NodeId id) {
  datagram_listeners_.erase(id);
}

void Network::send_datagram(NodeId from, NodeId to, Bytes payload) {
  if (from >= node_slot_.size() || to >= node_slot_.size()) {
    throw std::out_of_range("Network::send_datagram: unknown node");
  }
  if (NodeSlot* tx = slot_of(from)) {
    tx->counters.datagrams_sent += 1;
  }
  totals_.datagrams_sent += 1;
  const NodeSlot* target = slot_of(to);
  // Short-circuit order matters for determinism: the loss draw only happens
  // when the link is usable, exactly as before node retirement existed, and
  // every burst/dup/reorder draw is gated behind its (default-zero) knob so
  // the i.i.d. model consumes the identical RNG sequence it always did.
  bool drop =
      !link_usable(from, to) || target == nullptr || !target->info.reachable;
  bool burst = false;
  if (!drop) {
    double loss = model_.datagram_loss;
    if (model_.ge_p_enter_bad > 0) {
      // Advance the sender's Gilbert–Elliott channel state one transition
      // per datagram; while bad, the burst loss probability applies.
      if (NodeSlot* tx = slot_of(from)) {
        if (tx->ge_bad != 0) {
          if (rng_.chance(model_.ge_p_exit_bad)) tx->ge_bad = 0;
        } else if (rng_.chance(model_.ge_p_enter_bad)) {
          tx->ge_bad = 1;
        }
        if (tx->ge_bad != 0) {
          loss = model_.ge_loss_bad;
          burst = true;
        }
      }
    }
    drop = rng_.chance(loss);
  }
  if (drop) {
    if (NodeSlot* tx = slot_of(from)) {
      tx->counters.datagrams_dropped += 1;
      if (burst) tx->counters.datagrams_dropped_burst += 1;
    }
    totals_.datagrams_dropped += 1;
    if (burst) totals_.datagrams_dropped_burst += 1;
    return;  // silently lost, as UDP does
  }
  double latency = std::max(
      kMinLatency, rng_.lognormal(kLatencyMu, kLatencySigma) *
                              latency_factor(from, to));
  if (model_.datagram_reorder > 0 && rng_.chance(model_.datagram_reorder)) {
    // Delayed past its natural slot: anything sent within reorder_delay
    // overtakes this copy.
    latency += model_.reorder_delay;
    if (NodeSlot* tx = slot_of(from)) tx->counters.datagrams_reordered += 1;
    totals_.datagrams_reordered += 1;
  }
  if (model_.datagram_dup > 0 && rng_.chance(model_.datagram_dup)) {
    const double dup_latency = std::max(
        kMinLatency,
        rng_.lognormal(kLatencyMu, kLatencySigma) *
            latency_factor(from, to));
    if (NodeSlot* tx = slot_of(from)) tx->counters.datagrams_duplicated += 1;
    totals_.datagrams_duplicated += 1;
    schedule_datagram_delivery(from, to, payload, dup_latency);
  }
  schedule_datagram_delivery(from, to, std::move(payload), latency);
}

void Network::schedule_datagram_delivery(NodeId from, NodeId to, Bytes payload,
                                         double latency) {
  sim_.schedule_in(latency, [this, from, to, payload = std::move(payload)]() mutable {
    auto it = datagram_listeners_.find(to);
    if (it == datagram_listeners_.end() || !it->second) {
      if (NodeSlot* tx = slot_of(from)) {
        tx->counters.datagrams_dropped += 1;
      }
      totals_.datagrams_dropped += 1;
      return;
    }
    if (NodeSlot* rx = slot_of(to)) {
      rx->counters.messages_delivered += 1;
      rx->counters.bytes_delivered += payload.size();
    }
    totals_.messages_delivered += 1;
    totals_.bytes_delivered += payload.size();
    it->second(from, std::move(payload));
  });
}

sim::ClockModel& Network::clock(NodeId id) {
  if (id >= node_slot_.size()) {
    throw std::out_of_range("Network::clock: unknown node");
  }
  return clocks_[id];
}

Time Network::local_time(NodeId id) const {
  if (clocks_.empty()) return sim_.now();
  const auto it = clocks_.find(id);
  return it == clocks_.end() ? sim_.now() : it->second.local(sim_.now());
}

void Network::connect(NodeId from, NodeId to, ConnectHandler done) {
  if (from >= node_slot_.size() || to >= node_slot_.size()) {
    throw std::out_of_range("Network::connect: unknown node");
  }
  if (NodeSlot* initiator = slot_of(from)) {
    initiator->counters.connects_initiated += 1;
  }
  totals_.connects_initiated += 1;
  const double latency = std::max(
      kMinLatency, rng_.lognormal(kLatencyMu, kLatencySigma) *
                              latency_factor(from, to));

  auto listener = listeners_.find(to);
  const NodeSlot* target = slot_of(to);
  const bool ok = link_usable(from, to) && target != nullptr &&
                  target->info.reachable && listener != listeners_.end();
  if (!ok) {
    if (NodeSlot* t = slot_of(to)) {
      t->counters.refusals += 1;
    }
    totals_.refusals += 1;
    // Failure is learned after a round trip (SYN, then RST / timeout).
    sim_.schedule_in(2 * latency, [done = std::move(done)] { done(nullptr); });
    return;
  }

  auto shared = std::make_shared<Endpoint::Shared>();
  shared->net = this;
  shared->latency = latency;
  shared->node_a = from;
  shared->node_b = to;
  if (live_conns_.size() >= conns_purge_at_) {
    std::erase_if(live_conns_, [](const auto& w) { return w.expired(); });
    conns_purge_at_ = std::max<std::size_t>(128, 2 * live_conns_.size());
  }
  live_conns_.push_back(shared);

  auto side_a = std::make_shared<Endpoint>();
  side_a->local_ = from;
  side_a->remote_ = to;
  side_a->is_a_ = true;
  side_a->upload_bps_ = slot_of(from)->upload_bps;
  side_a->shared_ = shared;

  auto side_b = std::make_shared<Endpoint>();
  side_b->local_ = to;
  side_b->remote_ = from;
  side_b->is_a_ = false;
  side_b->upload_bps_ = target->upload_bps;
  side_b->shared_ = shared;

  shared->a = side_a;
  shared->b = side_b;

  // The acceptor sees the connection after one latency, the initiator's
  // completion fires after the full round trip.
  sim_.schedule_in(latency, [this, to, side_b] {
    auto it = listeners_.find(to);
    if (it != listeners_.end() && it->second) {
      if (NodeSlot* t = slot_of(to)) {
        t->counters.connects_accepted += 1;
      }
      totals_.connects_accepted += 1;
      it->second(side_b);
    }
  });
  sim_.schedule_in(2 * latency,
                   [done = std::move(done), side_a] { done(side_a); });
}

}  // namespace edhp::net
