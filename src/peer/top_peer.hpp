#pragma once
// The "single most active peer" of Figures 8 and 9: a crawler-like client
// that queries honeypots continuously for the whole measurement.
//
// Observed behaviour in the paper: it sends queries back-to-back, gated
// only by the completion of the previous query (a timeout against
// no-content honeypots, a variable transfer time against random-content
// ones), de-prioritises sources that never deliver, and shows long idle
// plateaus. Each encounter is a fresh connection: HELLO, START-UPLOAD, then
// a fixed number of REQUEST-PART rounds.

#include <vector>

#include "net/network.hpp"
#include "peer/behavior.hpp"
#include "peer/profile.hpp"
#include "proto/messages.hpp"

namespace edhp::peer {

/// Per-source counters, exported for the Fig 8/9 series.
struct TopPeerSourceStats {
  std::uint32_t client_id = 0;
  std::uint64_t hellos = 0;
  std::uint64_t start_uploads = 0;
  std::uint64_t request_parts = 0;
};

class TopPeer {
 public:
  TopPeer(net::Network& network, net::NodeId server_node, PeerProfile profile,
          FileId target, Rng rng);
  ~TopPeer();

  TopPeer(const TopPeer&) = delete;
  TopPeer& operator=(const TopPeer&) = delete;

  /// Discover providers through the server and start hammering them.
  void start();
  /// Stop after in-flight encounters settle.
  void stop();

  [[nodiscard]] const std::vector<TopPeerSourceStats>& per_source() const noexcept {
    return sources_stats_;
  }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }

 private:
  struct Encounter {
    std::size_t index = 0;
    net::EndpointPtr endpoint;
    std::uint32_t rounds = 0;
    std::uint64_t expected = 0;
    std::uint64_t received = 0;
    std::uint64_t offset = 0;
    bool timed_out = false;
    sim::EventHandle timeout{};
  };

  void on_server_message(net::Bytes packet);
  void schedule_encounter(std::size_t index, Duration gap);
  void run_encounter(std::size_t index);
  void on_message(std::size_t index, net::Bytes packet);
  void send_round(std::size_t index);
  void finish_encounter(std::size_t index);
  void toggle_activity();

  net::Network& net_;
  net::NodeId node_;
  net::NodeId server_node_;
  PeerProfile profile_;
  FileId target_;
  Rng rng_;
  /// Scratch for zero-copy decode of the packet currently being handled.
  proto::MessageArena arena_;

  std::uint32_t client_id_ = 0;
  net::EndpointPtr server_ep_;
  std::vector<proto::SourceEntry> sources_;
  std::vector<TopPeerSourceStats> sources_stats_;
  std::vector<Encounter> encounters_;
  bool running_ = false;
  bool paused_ = false;
};

}  // namespace edhp::peer
