#pragma once
// The honeypot: a fake eDonkey peer that advertises files it does not have
// and logs every query it receives for them.
//
// Built as a modified client (the paper modifies aMule): it keeps the
// normal protocol behaviour — server login, OFFER-FILES advertisement and
// keep-alive, HELLO/HELLO-ANSWER, START-UPLOAD/ACCEPT-UPLOAD — and diverges
// only at the final step: it never delivers real content. Depending on its
// strategy it either ignores REQUEST-PART queries (no-content) or answers
// them with random bytes (random-content).
//
// Every HELLO, START-UPLOAD and REQUEST-PART received is appended to the
// query log together with the peer metadata the paper lists. IP addresses
// pass through stage-1 anonymisation before entering the log.
//
// Failure handling (all off by default, enabled by the chaos campaigns):
// with `retry` on the honeypot reconnects to its server on its own with
// capped exponential backoff before reporting Status::dead to the manager;
// with a SpoolConfig it periodically cuts its log tail into sequence-
// numbered chunks handed to the manager, so a crash destroys at most the
// unspooled tail (accounted in records_lost_tail()). Each (re)launch
// increments an epoch; chunks spooled but unacknowledged at crash time are
// re-sent on relaunch with their original sequence numbers and
// deduplicated manager-side.

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "anonymize/ip_anonymizer.hpp"
#include "honeypot/config.hpp"
#include "honeypot/integrity.hpp"
#include "honeypot/observed.hpp"
#include "logbook/record.hpp"
#include "net/admission.hpp"
#include "net/network.hpp"
#include "proto/messages.hpp"

namespace edhp::honeypot {

/// Lifecycle state reported to the manager.
enum class Status : std::uint8_t {
  idle,        ///< launched, not yet told to connect
  connecting,  ///< server connection / login in progress
  connected,   ///< logged in, advertising
  dead,        ///< lost the server connection (or crashed)
};

[[nodiscard]] std::string_view to_string(Status s);

/// Where a honeypot should connect (resolved by the manager).
struct ServerRef {
  net::NodeId node = 0;
  std::string name;
  std::uint16_t port = 4661;

  bool operator==(const ServerRef&) const = default;
};

class Honeypot {
 public:
  Honeypot(net::Network& network, net::NodeId self, HoneypotConfig config);
  ~Honeypot();

  Honeypot(const Honeypot&) = delete;
  Honeypot& operator=(const Honeypot&) = delete;

  // --- Manager orders -----------------------------------------------------

  /// Connect to a server and log in; safe to call again after death
  /// (relaunch), preserving the query log.
  void connect_to_server(const ServerRef& server);

  /// Replace the advertised file list and push it to the server.
  void advertise(std::vector<AdvertisedFile> files);

  /// Drop the server connection and stop accepting peers.
  void disconnect();

  /// Simulate a host crash: connection lost without cleanup. The log
  /// survives (it is streamed/stored out-of-band), status becomes dead.
  void crash();

  // --- Status for the manager's polling loop ------------------------------

  [[nodiscard]] Status status() const noexcept { return status_; }
  [[nodiscard]] ClientId client_id() const noexcept { return client_id_; }
  [[nodiscard]] const HoneypotConfig& config() const noexcept { return config_; }
  [[nodiscard]] net::NodeId node() const noexcept { return self_; }
  [[nodiscard]] const std::vector<AdvertisedFile>& advertised() const noexcept {
    return advertised_;
  }
  /// Whether `file` is in the advertised list.
  [[nodiscard]] bool advertises(const FileId& file) const {
    return advertised_ids_.contains(file);
  }
  /// The advertised list as shared-file entries under this honeypot's
  /// clientID and port: the body of its OFFER-FILES and of its answer to a
  /// peer that browses it.
  [[nodiscard]] std::vector<proto::PublishedFile> published_files() const;

  // --- Recovery & durability ----------------------------------------------

  /// Process incarnation: incremented by every connect_to_server (launch or
  /// relaunch). Spool chunks are stamped with the epoch that first cut them.
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  /// Last instant this honeypot demonstrably made progress (connect
  /// attempt, login, OFFER keep-alive, or logged query). The manager's
  /// watchdog escalates on heartbeat age, which also catches a honeypot
  /// wedged in `connecting` (its SYN raced a server restart). Measured on
  /// TRUE time: the watchdog must not be fooled by a frozen local clock.
  [[nodiscard]] Time last_heartbeat() const noexcept { return heartbeat_; }

  /// This honeypot's LOCAL wall-clock reading of the current instant —
  /// what it stamps on records and spool cuts. Identity with true sim time
  /// until a clock fault touches the host.
  [[nodiscard]] Time local_now() const { return net_.local_time(self_); }

  /// Total self-reconnect attempts across all outage episodes.
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_total_; }

  /// Receives every spooled chunk (the manager's gathering channel); the
  /// bool is true for a fresh cut, false for a (possibly stale) re-send —
  /// only fresh cuts are trustworthy clock observations. A new sink is a
  /// new manager incarnation: chunks marked in-flight toward the old one
  /// become eligible for (credit-paced) resending again.
  void set_spool_sink(std::function<void(const logbook::LogChunk&, bool)> sink) {
    spool_sink_ = std::move(sink);
    for (auto& meta : pending_meta_) {
      meta.in_flight = false;
    }
  }
  /// Cut the unspooled log tail into a chunk now (also runs periodically
  /// while spooling is enabled). No-op when the tail is empty.
  void spool_now();
  /// The manager confirmed durable receipt of chunk `seq`; it leaves the
  /// local spool and will not be re-sent on relaunch.
  void ack_spooled(std::uint64_t seq);
  /// Records destroyed by crashes before they were spooled.
  [[nodiscard]] std::uint64_t records_lost_tail() const noexcept {
    return lost_tail_;
  }
  /// Chunks spooled locally but not yet acknowledged.
  [[nodiscard]] std::size_t pending_spool() const noexcept {
    return pending_chunks_.size();
  }
  /// The local on-disk spool itself (unacknowledged chunks, oldest first) —
  /// what an operator salvages from a host when the manager never returns.
  [[nodiscard]] const std::vector<logbook::LogChunk>& pending_chunks()
      const noexcept {
    return pending_chunks_;
  }
  /// Re-send every spooled-but-unacked chunk through the current sink (the
  /// manager calls this when it re-adopts an orphan after recovery; also
  /// runs on every relaunch). The store dedups by (honeypot, seq).
  void resend_spool();
  /// Credit-paced variant: re-send at most `limit` chunks not already in
  /// flight toward the current sink; the rest stay spooled and are counted
  /// as paced. The manager tops the window up one chunk per ack, so a
  /// recovery cannot re-trigger the overload that caused the crash.
  /// Returns the number of chunks deferred.
  std::size_t resend_spool(std::size_t limit);

  // --- Measurement integrity ----------------------------------------------

  /// Observes every self-probe verdict (true = confirmed, false = missed or
  /// canary tripped). The manager scores server health from these; severed
  /// on crash() like the degrade sink, so a probe resolving after a host
  /// crash cannot call into stale manager wiring.
  void set_probe_sink(std::function<void(bool)> sink) {
    probe_sink_ = std::move(sink);
  }
  [[nodiscard]] const IntegrityStats& integrity_stats() const noexcept {
    return integrity_;
  }
  /// The canary hash this honeypot GET-SOURCES-probes (never advertised; a
  /// server returning sources for it is fabricating). Exposed for tests.
  [[nodiscard]] FileId canary_file() const;

  // --- Overload & degradation ---------------------------------------------

  /// Apply (or lift) a resource-exhaustion fault episode. `magnitude` is
  /// the quota/budget multiplier (disk_full, mem_pressure) or the cut-period
  /// factor (disk_slow). No-op when the degrade policy is `off`.
  void set_resource_fault(budget::ResourceFault which, bool active,
                          double magnitude);
  /// Observes every degraded-mode transition: (entered, reason). The
  /// manager journals these; cleared when the manager crashes.
  void set_degrade_sink(std::function<void(bool, budget::DegradeReason)> sink) {
    degrade_sink_ = std::move(sink);
  }
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] const budget::DegradeStats& degrade_stats() const noexcept {
    return degrade_;
  }
  /// Resident (spooled-but-unacked) chunk bytes held locally.
  [[nodiscard]] std::uint64_t spool_resident_bytes() const noexcept {
    return spool_resident_bytes_;
  }
  /// Records appended since the last spool cut (the in-memory tail).
  [[nodiscard]] std::uint64_t unspooled_tail() const noexcept {
    return log_.records.size() - spooled_mark_;
  }

  // --- Collected data ------------------------------------------------------

  [[nodiscard]] const logbook::LogFile& log() const noexcept { return log_; }

  /// Distinct files seen in harvested shared-file lists, with their sizes:
  /// Table I's "distinct files" / "space used".
  [[nodiscard]] const ObservedCatalogue& observed() const noexcept {
    return observed_;
  }

  /// Events with no home in the typed stats above (each counted once).
  struct Counters {
    std::uint64_t offers_sent = 0;
    std::uint64_t advertise_orders_lost = 0;  ///< advertise() while dead
    std::uint64_t retry_budget_exhausted = 0;
    std::uint64_t chunks_resent = 0;
    std::uint64_t shared_lists_received = 0;
    std::uint64_t blocks_sent = 0;            ///< random-content blocks
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] const net::DefenseStats& defense_stats() const noexcept {
    return gate_.stats();
  }

  /// Records ever stamped by this honeypot (the conservation ledger's
  /// birth count): every append_record call, before the budget gate, the
  /// stream fold or any later destruction. Survives crash/relaunch with
  /// the object, like the disposition counters it balances against.
  [[nodiscard]] std::uint64_t records_born() const noexcept {
    return records_born_;
  }

  /// Records folded away by stream mode (0 unless config.stream_records).
  [[nodiscard]] std::uint64_t records_streamed() const noexcept {
    return records_streamed_;
  }
  /// FNV-1a over the streamed records' bit-identity fields (same mix as the
  /// golden-fingerprint checks); the FNV offset basis when none streamed.
  [[nodiscard]] std::uint64_t stream_fingerprint() const noexcept {
    return stream_fingerprint_;
  }

 private:
  struct PeerConn {
    net::EndpointPtr endpoint;
    std::uint64_t peer_hash = 0;      // stage-1 anonymised identity
    std::uint64_t user = 0;
    std::uint32_t client_id = 0;
    std::uint16_t port = 0;
    std::uint16_t name_ref = 0;
    std::uint32_t version = 0;
    bool hello_seen = false;
    bool uploading = false;  ///< ACCEPT-UPLOAD sent
    std::uint8_t taint = 0;  ///< provenance flags applied to new records
    Time connected_at = 0;   ///< accept time (bounds retroactive tainting)
    net::GateSession gate;   ///< message budget + reap timer (defense)
  };
  using ConnKey = std::uint64_t;

  void on_server_message(net::Bytes packet);
  void on_server_closed();
  /// The listen + connect + login attempt (no episode/epoch bookkeeping).
  void attempt_connect();
  /// Schedule the next backoff-ed reconnect, or go dead when the episode's
  /// retry budget is spent.
  void schedule_retry();
  /// Backoff delay for the given 0-based attempt, with deterministic jitter
  /// derived from (honeypot id, attempt) — no RNG stream involved.
  [[nodiscard]] Duration retry_delay(std::size_t attempt) const;
  void send_offer();
  /// Append one file (greedy growth); the OFFER keep-alive pushes it.
  void add_advertised(AdvertisedFile file);
  void on_peer_accept(net::EndpointPtr ep);
  void on_peer_message(ConnKey key, net::Bytes packet);
  /// Decode and dispatch one peer packet (post-admission).
  void process_peer(ConnKey key, net::Bytes packet);
  /// Close + forget one peer connection, cancelling its reap timer; false
  /// when it is already gone.
  bool drop_peer(ConnKey key);
  /// What disconnect() and crash() share: stop the timers, close the
  /// server link and every peer, reset the gate, and move to `next`.
  void teardown(Status next);

  void handle_hello(PeerConn& conn, const proto::HelloView& msg);
  void handle_start_upload(PeerConn& conn, const proto::StartUpload& msg);
  void handle_request_parts(PeerConn& conn, const proto::RequestParts& msg);
  void handle_shared_list(PeerConn& conn,
                          const proto::AskSharedFilesAnswerView& msg);

  void append_record(const PeerConn& conn, logbook::QueryType type,
                     const FileId* file, std::uint8_t taint = 0);
  /// One advertise-and-verify self-probe tick: alternates a keyword search
  /// for an own advertised file with a canary GET-SOURCES.
  void run_self_probe();
  /// Resolve the in-flight probe; a miss re-advertises (self-heal) and both
  /// outcomes reach the manager through the probe sink.
  void probe_result(bool confirmed);
  /// Retroactively taint this connection's records since accept time (a
  /// forged list proves everything the peer sent was adversarial).
  void taint_tail(const PeerConn& conn, std::uint8_t taint);
  /// Budget gate for one record-to-be (identified by its user word): false
  /// = shed (declared). May force an early backpressure cut first.
  [[nodiscard]] bool admit_record(std::uint64_t user);
  /// Periodic cut wrapper honoring disk_slow throttling.
  void periodic_spool();
  /// Coalesce the undelivered pending-chunk suffix (and shed low-priority
  /// records from it) when resident bytes exceed the effective quota.
  void maybe_compact();
  void enter_degraded(budget::DegradeReason reason);
  /// Leave degraded mode once no episode is active and budgets are met.
  void update_degrade_state();
  [[nodiscard]] std::uint64_t effective_disk_quota() const;
  [[nodiscard]] std::uint64_t effective_mem_budget() const;
  std::uint16_t intern_name(const std::string& name);
  [[nodiscard]] bool in_harvest_window() const;

  net::Network& net_;
  net::NodeId self_;
  HoneypotConfig config_;
  /// Scratch backing the zero-copy decode of the packet currently being
  /// handled; reused across deliveries (steady state: no allocation).
  proto::MessageArena arena_;
  anonymize::IpAnonymizer ip_anon_;
  UserId user_hash_;
  /// Built once: every HELLO-ANSWER carries the same identity and tags.
  proto::HelloAnswer hello_answer_;
  /// Reused for every SENDING-PART block; its sample keeps its capacity.
  proto::SendingPart part_;

  Status status_ = Status::idle;
  std::optional<ServerRef> server_;
  net::EndpointPtr server_ep_;
  ClientId client_id_{};
  std::unique_ptr<sim::PeriodicTimer> offer_timer_;
  bool offer_dirty_ = false;  ///< advertised list changed since last OFFER

  std::vector<AdvertisedFile> advertised_;
  std::unordered_set<FileId> advertised_ids_;

  std::unordered_map<ConnKey, PeerConn> peers_;
  ConnKey next_conn_ = 1;

  /// Admission control (dormant unless config_.defense).
  net::AdmissionGate gate_;

  logbook::LogFile log_;
  std::uint64_t records_streamed_ = 0;
  std::uint64_t stream_fingerprint_ = 1469598103934665603ull;  // FNV offset
  std::uint64_t records_born_ = 0;         ///< conservation-ledger births
  std::uint64_t audit_selftest_tick_ = 0;  ///< Nth-record drop cadence
  std::unordered_map<std::string, std::uint16_t> name_cache_;
  ObservedCatalogue observed_;
  Time started_at_ = 0;

  // Recovery state.
  std::uint32_t epoch_ = 0;
  Time heartbeat_ = 0;
  sim::EventHandle retry_event_{};
  std::size_t retries_episode_ = 0;
  std::uint64_t retries_total_ = 0;

  // Spool state. Marks index into log_: records/names below the mark are
  // already cut into chunks; `pending_chunks_` is the local on-disk spool
  // (survives crash(); re-sent on relaunch until acked).
  std::unique_ptr<sim::PeriodicTimer> spool_timer_;
  std::function<void(const logbook::LogChunk&, bool)> spool_sink_;
  std::vector<logbook::LogChunk> pending_chunks_;
  std::size_t spooled_mark_ = 0;
  std::size_t names_spooled_mark_ = 1;  ///< log_.names[0] is always ""
  std::uint64_t next_chunk_seq_ = 0;
  std::uint64_t lost_tail_ = 0;

  // Overload & degradation state. `pending_meta_` is index-aligned with
  // `pending_chunks_`: which log range a chunk covers (compaction erases
  // shed records from log and chunk together, so the local log and the
  // spool never diverge), whether any sink ever received it (delivered
  // chunks are never compacted: the store may already hold their seq), and
  // whether it is in flight toward the current sink (credit pacing).
  struct SpoolMeta {
    bool delivered = false;
    bool in_flight = false;
    std::size_t rec_begin = 0;
    std::size_t rec_end = 0;
  };
  std::vector<SpoolMeta> pending_meta_;
  std::uint64_t spool_resident_bytes_ = 0;
  Time last_spool_cut_ = 0;
  budget::DegradeStats degrade_;
  std::function<void(bool, budget::DegradeReason)> degrade_sink_;
  bool degraded_ = false;
  bool disk_full_active_ = false;
  double disk_full_magnitude_ = 1.0;
  std::uint64_t disk_full_frozen_quota_ = 0;
  bool disk_slow_active_ = false;
  double disk_slow_factor_ = 1.0;
  bool mem_pressure_active_ = false;
  double mem_pressure_magnitude_ = 1.0;
  std::uint64_t mem_frozen_budget_ = 0;
  std::size_t session_ceiling_active_ = 0;

  // Measurement-integrity state (dormant unless config_.self_probes or
  // config_.integrity_defense is set).
  IntegrityStats integrity_;
  std::function<void(bool)> probe_sink_;
  std::unique_ptr<sim::PeriodicTimer> probe_timer_;
  sim::EventHandle probe_timeout_event_{};
  bool probe_pending_ = false;
  bool probe_await_search_ = false;
  bool probe_await_canary_ = false;
  std::uint64_t probe_seq_ = 0;     ///< alternates search / canary probes
  std::size_t probe_cursor_ = 0;    ///< round-robin over advertised files
  FileId probe_file_{};             ///< file the pending search probe expects

  Counters counters_;
};

}  // namespace edhp::honeypot
