#pragma once
// Simulated network substrate.
//
// Nodes are registered with the Network and may listen for incoming
// connections. A connection is a reliable, ordered, bidirectional message
// channel between two nodes; each side holds an Endpoint. Delivery delay is
// a per-connection latency (sampled once at establishment) plus a
// serialization delay proportional to payload size and the sender's upload
// bandwidth, so large transfers (random-content part uploads) take realistic
// time while handshakes are fast.
//
// Delivery uses per-connection queues: each direction of a connection keeps
// a FIFO of in-flight messages and at most ONE scheduled simulation event
// (the head-of-line arrival). Sending N messages therefore costs one heap
// entry, not N, and no per-message shared_ptr-capturing closure is
// allocated — the hot path of every campaign.
//
// Reachability models eDonkey's HighID/LowID distinction: a non-reachable
// (firewalled) node can open outgoing connections but cannot accept incoming
// ones.
//
// Fault injection (driven by fault::Injector) is layered on top without
// perturbing the fault-free path: a node can be marked down (connect refusal
// in both directions, datagram blackhole), nodes can be split into
// partition groups, per-node latency factors model
// congestion episodes, and established connections can be severed with RST
// semantics. None of these knobs consume the network's RNG stream unless a
// fault is actually active, so a run with no faults is bit-identical to one
// on a build without the fault layer.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "sim/clock_model.hpp"
#include "sim/simulation.hpp"

namespace edhp::net {

using NodeId = std::uint32_t;
using Bytes = std::vector<std::uint8_t>;

class Endpoint;
using EndpointPtr = std::shared_ptr<Endpoint>;

/// Static properties of a registered node.
struct NodeInfo {
  IpAddr ip;
  std::uint16_t port = 4662;
  bool reachable = true;      ///< can accept incoming connections (HighID)
  double tz_offset_hours = 0; ///< region, used by behaviour models
};

/// Configuration of the datagram loss, duplication and reordering model.
/// The latency model and the default uplink are fixed (network.cpp).
struct LinkModel {
  /// UDP drop probability (good state). Kept: the UDP, survey and recovery
  /// tests set 0 (no random loss) or 1 (every datagram lost).
  double datagram_loss = 0.02;

  // --- Bursty loss: 2-state Gilbert–Elliott per *sender*. With
  // ge_p_enter_bad == 0 (the default) the chain never engages, no extra
  // RNG is drawn, and the i.i.d. model above applies unchanged — runs are
  // bit-identical to a build without the chain.
  double ge_p_enter_bad = 0.0;   ///< per-datagram good→bad transition prob
  /// Per-datagram bad→good transition prob. Kept: the burst tests set 0 (a
  /// sender that never leaves the bad state) and 0.5.
  double ge_p_exit_bad = 0.3;
  double ge_loss_bad = 0.5;      ///< drop probability while in the bad state

  // --- Duplication and reordering (default-off ⇒ zero extra draws).
  double datagram_dup = 0.0;     ///< probability a datagram arrives twice
  double datagram_reorder = 0.0; ///< probability of a late (reordered) copy
  /// Extra latency for reordered datagrams (s). Kept: the reorder test
  /// sets 2 s, beyond any latency sample, so every late copy is overtaken.
  double reorder_delay = 0.25;
};

/// Traffic counters, kept per node and aggregated network-wide.
struct LinkCounters {
  std::uint64_t connects_initiated = 0;  ///< connect() attempts from here
  std::uint64_t connects_accepted = 0;   ///< connections accepted here
  std::uint64_t refusals = 0;            ///< incoming attempts refused here
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_dropped = 0;   ///< lost, unreachable, or unheard
  std::uint64_t messages_sent = 0;       ///< stream messages queued here
  std::uint64_t messages_delivered = 0;  ///< stream messages received here
  std::uint64_t bytes_serialized = 0;    ///< wire bytes pushed by this node
  std::uint64_t bytes_delivered = 0;     ///< wire bytes received here
  std::uint64_t connections_aborted = 0; ///< established conns RST by faults
  std::uint64_t messages_corrupted = 0;  ///< payloads mangled on send here
  std::uint64_t malformed_packets = 0;   ///< received packets the decoder rejected
  std::uint64_t datagrams_dropped_burst = 0;  ///< dropped in the GE bad state
  std::uint64_t datagrams_duplicated = 0;     ///< extra copies delivered
  std::uint64_t datagrams_reordered = 0;      ///< copies delayed out of order
};

/// One side of an established connection. Handlers are invoked from the
/// simulation loop; an Endpoint stays valid as long as someone holds the
/// shared_ptr, but sends on a closed connection are silently dropped (as
/// with a real socket race).
class Endpoint {
 public:
  using MessageHandler = std::function<void(Bytes)>;
  using CloseHandler = std::function<void()>;

  /// Queue a message to the remote side.
  void send(Bytes payload) { send_sized(std::move(payload), 0); }

  /// Queue a message whose wire footprint is `wire_size` bytes even though
  /// only `payload` is materialized (used for bulk content blocks: a
  /// random-content honeypot "uploads" terabytes over a full measurement,
  /// which would be pointless to allocate). `wire_size` is clamped up to at
  /// least the payload size; timing and byte statistics use it.
  void send_sized(Bytes payload, std::size_t wire_size);

  /// Close both directions; the remote side learns after one latency.
  /// Messages still in flight are dropped, like a RST.
  void close();

  void on_message(MessageHandler h) { on_message_ = std::move(h); }
  void on_close(CloseHandler h) { on_close_ = std::move(h); }

  [[nodiscard]] bool open() const noexcept;
  [[nodiscard]] NodeId local_node() const noexcept { return local_; }
  [[nodiscard]] NodeId remote_node() const noexcept { return remote_; }

 private:
  friend class Network;
  struct Shared;  // state common to both endpoints

  NodeId local_ = 0;
  NodeId remote_ = 0;
  bool is_a_ = false;          ///< which side of the shared state we are
  double upload_bps_ = 0.0;    ///< sender bandwidth, cached at establishment
  std::shared_ptr<Shared> shared_;
  MessageHandler on_message_;
  CloseHandler on_close_;
  double next_free_tx_ = 0.0;  ///< sender-side serialization horizon
};

/// The registry of nodes plus connection establishment and statistics.
class Network {
 public:
  using AcceptHandler = std::function<void(EndpointPtr)>;
  using ConnectHandler = std::function<void(EndpointPtr)>;  ///< nullptr on failure

  Network(sim::Simulation& simulation, LinkModel model = {});

  /// Register a node; its IP is derived deterministically from the id.
  NodeId add_node(bool reachable, double tz_offset_hours = 0.0,
                  std::optional<double> upload_bps = std::nullopt);

  /// Forget a node that will never communicate again: its per-node state
  /// (info, counters, fault knobs, IP mapping, handlers) is released and the
  /// storage slot is recycled by the next add_node(). NodeIds are never
  /// reused, so later nodes keep the same deterministic IPs whether or not
  /// earlier ones were retired. Million-peer campaigns retire each peer node
  /// on reclaim, keeping network state proportional to the LIVE population.
  /// Retiring an already-retired id is a no-op; the id must be known.
  void retire_node(NodeId id);

  [[nodiscard]] const NodeInfo& info(NodeId id) const;
  /// Total ids ever registered (monotonic; includes retired nodes).
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_slot_.size();
  }
  /// Currently live (registered, not retired) nodes.
  [[nodiscard]] std::size_t live_node_count() const noexcept {
    return live_nodes_;
  }
  /// High-water mark of simultaneously live nodes — the structural memory
  /// bound of a campaign, independent of how many peers EVER existed.
  [[nodiscard]] std::size_t peak_live_node_count() const noexcept {
    return peak_live_nodes_;
  }
  [[nodiscard]] std::uint64_t nodes_retired() const noexcept {
    return nodes_retired_;
  }

  /// Node owning a given IP (peers resolve FOUND-SOURCES entries, whose
  /// HighID *is* the provider's address, to a connection target).
  [[nodiscard]] std::optional<NodeId> find_by_ip(std::uint32_t ip) const;

  /// Start (or replace) accepting connections on `id`.
  void listen(NodeId id, AcceptHandler handler);
  void stop_listening(NodeId id);

  /// Attempt to connect; `done` fires after the connection round-trip with
  /// the local endpoint, or with nullptr if the target is unreachable or not
  /// listening. A target that stops listening between the SYN and the
  /// accept never sees the connection, but the initiator still receives an
  /// endpoint (the handshake completed at transport level); its messages go
  /// unanswered, as against a crashed acceptor.
  void connect(NodeId from, NodeId to, ConnectHandler done);

  // --- Datagrams (UDP): unreliable, connectionless -------------------------

  using DatagramHandler = std::function<void(NodeId from, Bytes)>;

  /// Receive datagrams on `id` (replaces any previous handler).
  void listen_datagram(NodeId id, DatagramHandler handler);
  void stop_listening_datagram(NodeId id);

  /// Fire-and-forget datagram: delivered after one latency unless dropped
  /// (LinkModel::datagram_loss) or the target has no datagram handler or is
  /// unreachable. The sender learns nothing either way.
  void send_datagram(NodeId from, NodeId to, Bytes payload);

  // --- Fault-injection primitives (see fault::Injector) --------------------

  /// Mark a node down or up. A down node refuses incoming connection
  /// attempts, cannot initiate new ones, and neither sends nor receives
  /// datagrams. Established connections are untouched; pair with
  /// abort_connections() for crash semantics.
  void set_node_up(NodeId id, bool up);
  [[nodiscard]] bool node_up(NodeId id) const;

  /// Assign a node to a partition group (default 0). Nodes in different
  /// groups cannot connect or exchange datagrams; existing cross-group
  /// connections survive until aborted (see abort_cross_partition()).
  void set_partition(NodeId id, std::uint32_t group);
  [[nodiscard]] std::uint32_t partition_of(NodeId id) const;

  /// Multiplier applied to latency samples of new connections and datagrams
  /// involving this node (the larger factor of the two ends wins). 1.0
  /// restores the base model; factors never consume extra RNG draws.
  void set_latency_factor(NodeId id, double factor);

  // --- Virtual clocks (see fault clock_drift/clock_step/clock_freeze) ------

  /// Mutable per-node clock, created on demand. Driving it is the fault
  /// injector's job; mutators consume no RNG and schedule no events.
  [[nodiscard]] sim::ClockModel& clock(NodeId id);

  /// The node's local wall-clock reading of the current instant. Identity
  /// (bit-exactly simulation().now()) for every node no clock fault ever
  /// touched — the common case costs one empty-map check.
  [[nodiscard]] Time local_time(NodeId id) const;

  /// Sever every established connection touching `id`: both sides observe a
  /// RST (on_close) after one propagation latency, in-flight data is lost.
  /// Returns the number of connections aborted.
  std::size_t abort_connections(NodeId id);
  /// Sever every established connection whose ends sit in different
  /// partition groups.
  std::size_t abort_cross_partition();

  // --- Adversarial-traffic primitives (see fault::AbuseInjector) -----------

  /// Wire-corruption profile for a hostile sender. Each probability is
  /// evaluated independently per stream message, drawing from a per-node RNG
  /// seeded at set_corruption() time — never from the network's own stream,
  /// so registering and clearing corruptors cannot shift benign traffic.
  struct CorruptionSpec {
    double flip = 0.0;      ///< flip one random bit of the payload
    double truncate = 0.0;  ///< drop a random-length tail
    double extend = 0.0;    ///< append 1..16 random bytes
    std::uint64_t seed = 1; ///< seeds the per-node mutation stream
  };

  /// While active on `id`, every stream payload it sends may be mutated in
  /// flight (counted in LinkCounters::messages_corrupted on the sender).
  void set_corruption(NodeId id, const CorruptionSpec& spec);
  void clear_corruption(NodeId id);

  /// Record that `id` received a packet its decoder rejected. Pure counter:
  /// every DecodeError catch site reports here so malformed traffic is
  /// visible per node instead of being swallowed silently.
  void note_malformed(NodeId id);

  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }

  /// Aggregate counters over all nodes.
  [[nodiscard]] const LinkCounters& totals() const noexcept { return totals_; }
  /// Per-node counters.
  [[nodiscard]] const LinkCounters& counters(NodeId id) const;

  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return totals_.messages_delivered;
  }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept {
    return totals_.bytes_delivered;
  }

 private:
  friend class Endpoint;

  /// Schedule (or chain) the head-of-line delivery event for one direction
  /// of a connection.
  void arm_delivery(const std::shared_ptr<Endpoint::Shared>& shared, bool to_a);
  void deliver_head(const std::shared_ptr<Endpoint::Shared>& shared, bool to_a);

  /// Whether traffic may flow between two nodes (both up, same partition
  /// group). Never consumes RNG.
  [[nodiscard]] bool link_usable(NodeId from, NodeId to) const;
  /// Schedule one datagram copy for delivery after `latency` seconds.
  void schedule_datagram_delivery(NodeId from, NodeId to, Bytes payload,
                                  double latency);
  /// Apply a registered corruption profile to an outgoing payload. No-op
  /// (and no RNG draw) unless `sender` has an active CorruptionSpec.
  void maybe_corrupt(NodeId sender, Bytes& payload);
  /// Effective latency factor of a path (max of the two ends).
  [[nodiscard]] double latency_factor(NodeId from, NodeId to) const;
  /// RST every live registered connection matching `pred`; returns count.
  std::size_t abort_matching(
      const std::function<bool(NodeId, NodeId)>& pred);

  static constexpr std::uint32_t kRetiredSlot = 0xFFFFFFFFu;

  /// Per-node state lives in a recycling slab; `node_slot_` maps the
  /// monotonically growing NodeId space onto slab slots so retired nodes
  /// cost 4 bytes instead of a full record. Slots are reused through an
  /// intrusive free list.
  struct NodeSlot {
    NodeInfo info;
    double upload_bps = 0.0;
    double latency_factor = 1.0;
    std::uint32_t partition = 0;
    std::uint8_t up = 1;
    std::uint8_t ge_bad = 0;  ///< sender-side Gilbert–Elliott channel state
    std::uint32_t next_free = kRetiredSlot;
    LinkCounters counters;
  };

  /// Slot of a live node, nullptr for retired or unknown ids.
  [[nodiscard]] NodeSlot* slot_of(NodeId id) noexcept;
  [[nodiscard]] const NodeSlot* slot_of(NodeId id) const noexcept;
  /// Slot of a known id (throws out_of_range with `what` for unknown ids),
  /// nullptr when the node is retired.
  NodeSlot* known_slot(NodeId id, const char* what);
  [[nodiscard]] const NodeSlot* known_slot(NodeId id, const char* what) const;

  sim::Simulation& sim_;
  LinkModel model_;
  Rng rng_;
  std::vector<std::uint32_t> node_slot_;  ///< NodeId -> slab slot / kRetiredSlot
  std::vector<NodeSlot> node_slots_;
  std::uint32_t free_node_head_ = kRetiredSlot;
  std::size_t live_nodes_ = 0;
  std::size_t peak_live_nodes_ = 0;
  std::uint64_t nodes_retired_ = 0;
  /// Active wire-corruptors, keyed by sender; each carries its own RNG so
  /// mutation draws never touch rng_ (see maybe_corrupt()).
  struct CorruptionState {
    CorruptionSpec spec;
    Rng rng;
  };
  std::unordered_map<NodeId, CorruptionState> corruptors_;
  /// Weak registry of established connections for fault RSTs; compacted
  /// opportunistically when mostly expired.
  std::vector<std::weak_ptr<Endpoint::Shared>> live_conns_;
  std::size_t conns_purge_at_ = 128;
  std::unordered_map<std::uint32_t, NodeId> by_ip_;
  std::unordered_map<NodeId, AcceptHandler> listeners_;
  std::unordered_map<NodeId, DatagramHandler> datagram_listeners_;
  /// Sparse: only nodes a clock fault actually touched carry a model, so
  /// chaos-off campaigns never pay a lookup beyond one empty() check.
  std::unordered_map<NodeId, sim::ClockModel> clocks_;
  LinkCounters totals_;
};

}  // namespace edhp::net
