#pragma once
// The simulated downloading peer: an eMule-like client state machine that
// wants one file and interacts with the providers the server returns —
// which, for the advertised fake files, are honeypots.
//
// Lifecycle (all over real wire messages):
//   1. First session: connect + log in to the server, GET-SOURCES for the
//      target file, select a weighted random subset of the returned
//      providers (filtered by the shared blacklist).
//   2. Per session, for every selected source not yet locally detected:
//      HELLO -> (HELLO-ANSWER) -> maybe START-UPLOAD -> (ACCEPT-UPLOAD) ->
//      REQUEST-PART rounds. A no-content honeypot lets requests time out; a
//      random-content honeypot streams blocks until the client completes a
//      part whose hash check fails.
//   3. Detection: enough timed-out sessions (fast — silence is cheap to
//      recognise) or enough corrupt parts (slow — a full 9.28 MB part must
//      be downloaded each time) make the client stop using that provider,
//      and with some probability publish the detection (SharedBlacklist).
//   4. Sessions repeat with diurnal-gated gaps until the peer's patience
//      runs out or every source is detected; then the peer finishes and is
//      reclaimed.
//
// The peer also answers the honeypot's ASK-SHARED-FILES with a sample of
// the catalog (its "cache") unless the feature is disabled for this peer.

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>

#include "net/network.hpp"
#include "peer/behavior.hpp"
#include "peer/blacklist.hpp"
#include "peer/catalog.hpp"
#include "peer/profile.hpp"
#include "peer/source_cache.hpp"
#include "proto/messages.hpp"
#include "sim/diurnal.hpp"

namespace edhp::peer {

/// Shared wiring every peer receives (owned by the Population).
struct PeerContext {
  net::Network* net = nullptr;
  net::NodeId server_node = 0;
  std::uint16_t server_port = 4661;
  /// Multi-server networks: when non-empty, each peer picks its home server
  /// from this list (weighted), overriding server_node. A peer only sees
  /// providers indexed at its home server — honeypots spread over servers
  /// therefore observe different subpopulations ("a more global view").
  std::vector<net::NodeId> home_servers;
  std::vector<double> home_server_weights;
  SharedBlacklist* blacklist = nullptr;
  const FileCatalog* catalog = nullptr;
  const BehaviorParams* params = nullptr;
  const sim::DiurnalProfile* diurnal = nullptr;
  /// Optional per-provider attractiveness weights (keyed by clientID);
  /// missing entries default to 1.0.
  const std::unordered_map<std::uint32_t, double>* source_weights = nullptr;
  /// Optional community source cache enabling peer exchange (see
  /// source_cache.hpp); null disables PEX.
  SourceCache* source_cache = nullptr;
};

/// Counters exposed for tests and analysis of the model itself.
struct PeerStats {
  std::uint32_t sessions = 0;
  std::uint32_t hellos_sent = 0;
  std::uint32_t start_uploads_sent = 0;
  std::uint32_t request_parts_sent = 0;
  std::uint32_t parts_completed = 0;
  std::uint32_t detections = 0;
  std::uint32_t connect_failures = 0;
};

class Peer {
 public:
  using DoneCallback = std::function<void()>;

  /// `node` must already be registered with the context's network.
  /// `secondary_targets` are other files this client also wants; it asks
  /// every provider about them (one START-UPLOAD each) but only transfers
  /// the primary target.
  Peer(const PeerContext& ctx, net::NodeId node, PeerProfile profile,
       FileId target, Rng rng, DoneCallback on_done,
       std::vector<FileId> secondary_targets = {});
  ~Peer();

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// Begin the first session (immediately).
  void start();

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const PeerProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] const PeerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] std::uint32_t client_id() const noexcept { return client_id_; }

 private:
  struct Source {
    std::uint32_t client_id = 0;
    std::uint16_t port = 0;
    net::EndpointPtr endpoint;
    bool engaged = false;     ///< has an in-flight exchange this session
    bool uploading = false;   ///< passed START-UPLOAD/ACCEPT this session
    bool detected = false;    ///< locally blacklisted, never contacted again
    bool abandoned = false;   ///< silently dropped (no gossip)
    bool asked_secondary = false;  ///< secondary targets announced once
    std::uint32_t timeout_sessions = 0;
    std::uint32_t timeouts_this_session = 0;
    std::uint32_t rounds_this_session = 0;
    std::uint32_t bad_parts = 0;
    std::uint64_t part_bytes = 0;      ///< progress within the current part
    std::uint64_t round_expected = 0;  ///< bytes requested by the open round
    std::uint64_t round_received = 0;
    sim::EventHandle timeout{};
  };

  void begin_session();
  void on_server_connected(net::EndpointPtr ep);
  void on_server_message(net::Bytes packet);
  void select_sources(std::span<const proto::SourceEntry> found);
  void contact_sources();
  void contact(std::size_t index);
  void on_source_message(std::size_t index, net::Bytes packet);
  void send_request_round(std::size_t index);
  void on_request_timeout(std::size_t index);
  void on_part_complete(std::size_t index);
  void detect(std::size_t index, double gossip_prob);
  void conclude(std::size_t index);
  void session_done();
  void schedule_next_session();
  void finish();

  [[nodiscard]] sim::Simulation& simulation();
  [[nodiscard]] double source_weight(std::uint32_t client_id) const;
  void send_shared_list(Source& source);

  PeerContext ctx_;
  net::NodeId node_;
  PeerProfile profile_;
  FileId target_;
  std::vector<FileId> secondary_targets_;
  Rng rng_;
  DoneCallback on_done_;
  /// Scratch for zero-copy decode of the packet currently being handled.
  proto::MessageArena arena_;

  std::uint32_t client_id_ = 0;
  std::uint32_t sessions_left_ = 0;
  bool uploader_ = true;  ///< false: handshake-only peer (never START-UPLOAD)
  bool shares_list_ = false;
  /// Files shared on request, kept as the wire-ready list: sampled once,
  /// then sent to every asker with the clientID and port written per send.
  proto::AskSharedFilesAnswer shared_;

  net::EndpointPtr server_ep_;
  std::vector<Source> sources_;
  bool sources_selected_ = false;
  std::size_t engaged_ = 0;
  bool finished_ = false;
  bool session_open_ = false;

  PeerStats stats_;
};

}  // namespace edhp::peer
