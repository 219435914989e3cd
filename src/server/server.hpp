#pragma once
// eDonkey directory server.
//
// Implements the server half of the client-server protocol the honeypots
// and simulated peers speak: login with HighID/LowID assignment, shared-file
// indexing via OFFER-FILES, source lookup via GET-SOURCES and keyword
// search. All traffic is real eDonkey wire bytes over the simulated
// transport.

#include <memory>
#include <string>
#include <unordered_map>

#include "net/admission.hpp"
#include "net/network.hpp"
#include "proto/messages.hpp"
#include "server/index.hpp"

namespace edhp::server {

struct ServerConfig {
  std::string name = "edhp directory server";
  /// Admission control (off by default; see net/admission.hpp).
  bool defense = false;
};

/// Injected Byzantine misbehavior switches — modeled faults, not bugs. The
/// fault layer flips these through scenario bindings (fault/byzantine.hpp);
/// all default off, and the handlers consult them before the index so the
/// index itself stays consistent (FileIndex::audit) through every lie.
struct ServerLies {
  bool drop_offers = false;       ///< silently ignore OFFER-FILES
  bool truncate_offers = false;   ///< index only a prefix of each list
  double truncate_keep = 1.0;     ///< fraction kept while truncating
  bool stale_index = false;       ///< defer offers; evict on keepalive
  std::size_t fabricate_count = 0;///< forged entries per GET-SOURCES reply
  std::uint64_t fabricate_seed = 0;
  bool corrupt_search = false;    ///< garble search-reply file ids
  std::uint64_t corrupt_seed = 0;
};

/// A directory server attached to one network node.
class Server {
 public:
  Server(net::Network& network, net::NodeId self, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Begin accepting client connections.
  void start();
  /// Stop accepting and drop all sessions (simulates a server restart).
  void stop();

  [[nodiscard]] net::NodeId node() const noexcept { return self_; }
  [[nodiscard]] IpAddr ip() const;
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

  [[nodiscard]] const FileIndex& index() const noexcept { return index_; }
  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size();
  }
  /// Events with no home in the defense stats (each counted once).
  struct Counters {
    std::uint64_t logins = 0;
    std::uint64_t offers = 0;
    std::uint64_t offer_before_login = 0;
    std::uint64_t udp_status_requests = 0;
    // Injected lies actually told (see ServerLies).
    std::uint64_t byz_offers_dropped = 0;
    std::uint64_t byz_offers_truncated = 0;
    std::uint64_t byz_offers_deferred = 0;
    std::uint64_t byz_offers_late_indexed = 0;
    std::uint64_t byz_sources_fabricated = 0;  ///< forged source entries
    std::uint64_t byz_searches_corrupted = 0;
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] const net::DefenseStats& defense_stats() const noexcept {
    return gate_.stats();
  }

  // --- Byzantine lie switches (see ServerLies) ---------------------------
  void set_drop_offers(bool active);
  void set_truncate_offers(bool active, double keep);
  /// Deactivating applies the deferred offers (indexed late).
  void set_stale_index(bool active);
  void set_fabricate_sources(bool active, std::size_t count,
                             std::uint64_t seed);
  void set_corrupt_search(bool active, std::uint64_t seed);
  [[nodiscard]] const ServerLies& lies() const noexcept { return lies_; }
  /// Index consistency self-check (0 = consistent). Lie windows defer and
  /// drop *outside* the index, so this must hold even mid-window.
  [[nodiscard]] std::size_t index_audit() const { return index_.audit(); }

 private:
  struct Session {
    net::EndpointPtr endpoint;
    SessionKey key = 0;
    ClientId client_id{};
    UserId user{};
    std::uint16_t port = 0;
    bool logged_in = false;
    net::GateSession gate;     ///< message budget + reap timer (defense)
  };

  void on_accept(net::EndpointPtr endpoint);
  void on_message(SessionKey key, net::Bytes packet);
  void on_datagram(net::NodeId from, net::Bytes datagram);
  void drop(SessionKey key);
  /// Decode and dispatch one inbound packet (post-admission).
  void process(SessionKey key, net::Bytes packet);
  /// Close and drop a session the gate's reap timer expired.
  bool reap(SessionKey key);

  void handle(Session& session, const proto::LoginRequestView& msg);
  void handle(Session& session, const proto::OfferFilesView& msg);
  void handle(Session& session, const proto::GetSources& msg);
  void handle(Session& session, const proto::SearchRequestView& msg);

  /// One offer deferred by a stale-index window (owned copy; applied when
  /// the window ends, if the session still exists).
  struct PendingOffer {
    SessionKey key = 0;
    std::uint32_t client_id = 0;
    std::uint16_t port = 0;
    std::vector<proto::PublishedFile> files;
  };

  void apply_stale_pending();

  net::Network& net_;
  net::NodeId self_;
  ServerConfig config_;
  ServerLies lies_;
  std::vector<PendingOffer> stale_pending_;  ///< last offer per session wins
  std::uint64_t fabricate_counter_ = 0;      ///< forged-identity sequence
  std::uint64_t corrupt_counter_ = 0;        ///< garbled-id sequence
  /// Scratch backing the zero-copy decode of the packet currently being
  /// handled; reused across deliveries (steady state: no allocation).
  proto::MessageArena arena_;
  FileIndex index_;
  std::unordered_map<SessionKey, Session> sessions_;
  SessionKey next_key_ = 1;
  std::uint32_t next_low_id_ = 1;
  Counters counters_;
  net::AdmissionGate gate_;
  bool running_ = false;
};

}  // namespace edhp::server
