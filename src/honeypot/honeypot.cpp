#include "honeypot/honeypot.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/md4.hpp"

namespace edhp::honeypot {
namespace {

/// Truncate a 128-bit user hash to the 64-bit form stored in log records.
std::uint64_t truncate_user(const UserId& user) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | user.bytes()[static_cast<std::size_t>(i)];
  }
  return v;
}

/// Approximate wire overhead of a SENDING-PART packet (header + hash +
/// offsets), used when accounting the un-materialized block body.
constexpr std::size_t kSendingPartOverhead = 5 + 1 + 16 + 8;

/// Protocol version presented in the server login and HELLO-ANSWER.
constexpr std::uint32_t kClientVersion = 0x3C;
/// Bytes of random content materialized per SENDING-PART block; the rest of
/// the block is accounted on the wire only (send_sized).
constexpr std::size_t kSendingPartSample = 32;

/// Period of the OFFER-FILES keep-alive to the server.
constexpr Duration kOfferKeepalive = minutes(30);

/// Advertise-and-verify cadence of a honeypot with self_probes on.
constexpr Duration kProbePeriod = minutes(10);
/// An unanswered probe is a miss.
constexpr Duration kProbeTimeout = minutes(2);

/// Self-reconnect backoff: the first retry waits kRetryBase, each later
/// one twice the last up to kRetryCap, and after kMaxRetries failed
/// attempts in one outage episode the honeypot reports Status::dead.
constexpr Duration kRetryBase = 30.0;
constexpr Duration kRetryCap = minutes(30);
constexpr std::size_t kMaxRetries = 6;
/// +/- fraction of jitter applied deterministically to a retry delay.
constexpr double kRetryJitter = 0.1;

/// Hard fd-limit analog on concurrent peer connections, enforced even with
/// the defense layer off; far above benign concurrency.
constexpr std::size_t kHardPeerCap = 2048;

/// A shared-file list claiming at least this many of the honeypot's own
/// advertised hashes is treated as forged (honeypot files are fakes nobody
/// else can legitimately have).
constexpr std::size_t kForgedListMinMatches = 2;

}  // namespace

std::string_view to_string(ContentStrategy s) {
  return s == ContentStrategy::no_content ? "no-content" : "random-content";
}

std::string_view to_string(Status s) {
  switch (s) {
    case Status::idle:
      return "idle";
    case Status::connecting:
      return "connecting";
    case Status::connected:
      return "connected";
    case Status::dead:
      return "dead";
  }
  return "?";
}

Honeypot::Honeypot(net::Network& network, net::NodeId self, HoneypotConfig config)
    : net_(network),
      self_(self),
      config_(std::move(config)),
      ip_anon_(config_.salt),
      gate_(network, self, config_.defense,
            [this](ConnKey key, net::Bytes packet) {
              process_peer(key, std::move(packet));
            },
            [this](ConnKey key) { return drop_peer(key); }) {
  // Persistent user hash, derived deterministically from the honeypot
  // identity (a real client stores one in its config file).
  Md4 h;
  h.update(config_.name);
  const std::uint32_t ip = net_.info(self_).ip.value();
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(&ip), sizeof(ip)));
  user_hash_ = UserId(h.finish());

  // The HELLO-ANSWER's identity and tags never change; handle_hello fills
  // in the clientID and server address per send.
  hello_answer_.user = user_hash_;
  hello_answer_.port = net_.info(self_).port;
  hello_answer_.tags = {proto::Tag::string_tag(proto::kTagName, config_.name),
                        proto::Tag::u32_tag(proto::kTagVersion, kClientVersion)};
  part_.data.reserve(kSendingPartSample);

  log_.header.honeypot = config_.id;
  log_.header.honeypot_name = config_.name;
  log_.header.strategy = std::string(to_string(config_.strategy));
}

Honeypot::~Honeypot() {
  disconnect();
  net_.stop_listening(self_);
}

void Honeypot::connect_to_server(const ServerRef& server) {
  server_ = server;
  ++epoch_;
  retries_episode_ = 0;
  net_.simulation().cancel(retry_event_);
  log_.header.server_name = server.name;
  log_.header.server_ip = net_.info(server.node).ip.value();
  log_.header.server_port = server.port;

  if (config_.spool.enabled) {
    // Relaunch of the spooling pipeline: chunks in the local spool that were
    // never acknowledged go out again with their original sequence numbers
    // (the manager dedups), then the periodic cutter resumes.
    resend_spool();
    spool_timer_ = std::make_unique<sim::PeriodicTimer>(
        net_.simulation(), config_.spool.period, [this] { periodic_spool(); });
    spool_timer_->start();
  }

  attempt_connect();
}

void Honeypot::attempt_connect() {
  if (!server_) return;
  status_ = Status::connecting;
  heartbeat_ = net_.simulation().now();

  net_.listen(self_, [this](net::EndpointPtr ep) { on_peer_accept(std::move(ep)); });

  net_.connect(self_, server_->node, [this](net::EndpointPtr ep) {
    if (!ep) {
      if (config_.retry) {
        schedule_retry();
      } else {
        status_ = Status::dead;
      }
      return;
    }
    server_ep_ = std::move(ep);
    server_ep_->on_message([this](net::Bytes p) { on_server_message(std::move(p)); });
    server_ep_->on_close([this] { on_server_closed(); });

    proto::LoginRequest login;
    login.user = user_hash_;
    login.client_id = 0;
    login.port = net_.info(self_).port;
    login.tags = {proto::Tag::string_tag(proto::kTagName, config_.name),
                  proto::Tag::u32_tag(proto::kTagVersion, kClientVersion),
                  proto::Tag::u32_tag(proto::kTagPort, login.port)};
    server_ep_->send(proto::encode(login));
  });
}

void Honeypot::on_server_message(net::Bytes packet) {
  proto::AnyMessageView msg;
  try {
    msg = proto::decode_view(proto::Channel::client_server, packet, arena_);
  } catch (const DecodeError&) {
    gate_.malformed();
    return;
  }
  if (const auto* results = std::get_if<proto::SearchResultView>(&msg)) {
    if (probe_await_search_) {
      // Probe reply: confirmed iff the reply still lists the advertised
      // file we asked about. A corrupted reply (garbled ids) or an emptied
      // index both read as a miss.
      bool confirmed = false;
      for (const auto& f : arena_.of(results->files)) {
        if (f.file == probe_file_) {
          confirmed = true;
          break;
        }
      }
      probe_result(confirmed);
    }
    return;
  }
  if (const auto* found = std::get_if<proto::FoundSourcesView>(&msg)) {
    if (probe_await_canary_ && found->file == canary_file()) {
      // The canary hash was never advertised by anyone: any source the
      // server returns for it is fabricated.
      if (found->sources.count > 0) {
        ++integrity_.fabricated_sources_detected;
        probe_result(false);
      } else {
        probe_result(true);
      }
    }
    return;
  }
  if (const auto* id = std::get_if<proto::IdChange>(&msg)) {
    client_id_ = ClientId(id->client_id);
    const bool first_login = status_ != Status::connected;
    status_ = Status::connected;
    if (first_login && started_at_ == 0) {
      started_at_ = net_.simulation().now();
    }
    retries_episode_ = 0;
    heartbeat_ = net_.simulation().now();
    send_offer();
    offer_timer_ = std::make_unique<sim::PeriodicTimer>(
        net_.simulation(), kOfferKeepalive, [this] { send_offer(); });
    offer_timer_->start();
    if (config_.self_probes) {
      probe_timer_ = std::make_unique<sim::PeriodicTimer>(
          net_.simulation(), kProbePeriod, [this] { run_self_probe(); });
      probe_timer_->start();
    }
  }
  // FOUND-SOURCES / SERVER-MESSAGE are accepted silently.
}

void Honeypot::on_server_closed() {
  offer_timer_.reset();
  probe_timer_.reset();
  net_.simulation().cancel(probe_timeout_event_);
  probe_pending_ = probe_await_search_ = probe_await_canary_ = false;
  server_ep_.reset();
  if (config_.retry) {
    // New outage episode: reconnect on our own before involving the
    // manager, like a real client riding out a server restart.
    retries_episode_ = 0;
    schedule_retry();
  } else {
    status_ = Status::dead;
  }
}

void Honeypot::schedule_retry() {
  if (retries_episode_ >= kMaxRetries) {
    ++counters_.retry_budget_exhausted;
    status_ = Status::dead;
    return;
  }
  const Duration delay = retry_delay(retries_episode_);
  ++retries_episode_;
  ++retries_total_;
  status_ = Status::connecting;
  retry_event_ =
      net_.simulation().schedule_in(delay, [this] { attempt_connect(); });
}

Duration Honeypot::retry_delay(std::size_t attempt) const {
  const double raw = kRetryBase * std::pow(2.0, static_cast<double>(attempt));
  const double capped = std::min(raw, kRetryCap);
  // SplitMix64 of (id, attempt): stable jitter without touching any RNG
  // stream, so retry timing is a pure function of identity and history.
  std::uint64_t x = (static_cast<std::uint64_t>(config_.id) << 32) ^
                    ((attempt + 1) * 0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  const double unit = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0, 1)
  return capped * (1.0 + kRetryJitter * (2.0 * unit - 1.0));
}

void Honeypot::periodic_spool() {
  if (!config_.spool.enabled) return;
  if (log_.records.size() == spooled_mark_) return;
  if (disk_slow_active_) {
    // The episode throttles the cut cadence; forced cuts (backpressure,
    // final flush on stop) go through spool_now directly and are unaffected.
    const Duration min_gap = config_.spool.period * disk_slow_factor_;
    if (net_.simulation().now() - last_spool_cut_ < min_gap) {
      ++degrade_.spool_cuts_deferred;
      return;
    }
  }
  spool_now();
}

void Honeypot::spool_now() {
  if (!config_.spool.enabled) return;
  if (log_.records.size() == spooled_mark_) return;
  logbook::LogChunk chunk;
  chunk.honeypot = config_.id;
  chunk.epoch = epoch_;
  chunk.seq = next_chunk_seq_++;
  chunk.name_base = names_spooled_mark_;
  chunk.names.assign(log_.names.begin() +
                         static_cast<std::ptrdiff_t>(names_spooled_mark_),
                     log_.names.end());
  const std::size_t rec_begin = spooled_mark_;
  chunk.records.assign(
      log_.records.begin() + static_cast<std::ptrdiff_t>(spooled_mark_),
      log_.records.end());
  spooled_mark_ = log_.records.size();
  names_spooled_mark_ = log_.names.size();
  // Stamped with the LOCAL clock: the manager pairs this with its own
  // receive time to observe this host's clock offset.
  chunk.cut_at_local = local_now();
  chunk.checksum = logbook::chunk_checksum(chunk);
  last_spool_cut_ = net_.simulation().now();
  spool_resident_bytes_ += logbook::chunk_cost_bytes(chunk);
  degrade_.spool_peak_bytes =
      std::max(degrade_.spool_peak_bytes, spool_resident_bytes_);
  pending_chunks_.push_back(std::move(chunk));
  pending_meta_.push_back(
      {spool_sink_ != nullptr, spool_sink_ != nullptr, rec_begin, spooled_mark_});
  if (spool_sink_) spool_sink_(pending_chunks_.back(), /*fresh=*/true);
  maybe_compact();
  update_degrade_state();
}

void Honeypot::resend_spool() {
  // Legacy unlimited path (honeypot relaunch): everything goes out again,
  // including chunks already in flight — the previous send may have died
  // with the crashed process.
  for (std::size_t i = 0; i < pending_chunks_.size(); ++i) {
    ++counters_.chunks_resent;
    if (spool_sink_) {
      pending_meta_[i].delivered = true;
      pending_meta_[i].in_flight = true;
      spool_sink_(pending_chunks_[i], /*fresh=*/false);
    }
  }
}

std::size_t Honeypot::resend_spool(std::size_t limit) {
  std::size_t sent = 0;
  std::size_t deferred = 0;
  for (std::size_t i = 0; i < pending_chunks_.size(); ++i) {
    if (pending_meta_[i].in_flight) continue;
    if (sent >= limit) {
      ++deferred;
      continue;
    }
    ++counters_.chunks_resent;
    if (spool_sink_) {
      pending_meta_[i].delivered = true;
      pending_meta_[i].in_flight = true;
      spool_sink_(pending_chunks_[i], /*fresh=*/false);
    }
    ++sent;
  }
  degrade_.resends_paced += deferred;
  return deferred;
}

void Honeypot::ack_spooled(std::uint64_t seq) {
  for (std::size_t i = 0; i < pending_chunks_.size(); ++i) {
    if (pending_chunks_[i].seq != seq) continue;
    const std::uint64_t cost = logbook::chunk_cost_bytes(pending_chunks_[i]);
    spool_resident_bytes_ =
        cost >= spool_resident_bytes_ ? 0 : spool_resident_bytes_ - cost;
    pending_chunks_.erase(pending_chunks_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    pending_meta_.erase(pending_meta_.begin() + static_cast<std::ptrdiff_t>(i));
    update_degrade_state();
    return;
  }
}

std::vector<proto::PublishedFile> Honeypot::published_files() const {
  std::vector<proto::PublishedFile> files;
  files.reserve(advertised_.size());
  const std::uint16_t port = net_.info(self_).port;
  for (const auto& f : advertised_) {
    files.push_back(
        proto::PublishedFile{f.id, client_id_.value(), port, f.name, f.size});
  }
  return files;
}

void Honeypot::send_offer() {
  if (!server_ep_ || !server_ep_->open()) return;
  server_ep_->send(proto::encode(proto::OfferFiles{published_files()}));
  offer_dirty_ = false;
  heartbeat_ = net_.simulation().now();
  ++counters_.offers_sent;
}

void Honeypot::advertise(std::vector<AdvertisedFile> files) {
  if (status_ == Status::dead) {
    // The out-of-band order never reaches a dead host; the manager must
    // re-issue it after relaunch (it checks ordered-vs-advertised in poll).
    ++counters_.advertise_orders_lost;
    return;
  }
  advertised_ = std::move(files);
  advertised_ids_.clear();
  for (const auto& f : advertised_) {
    advertised_ids_.insert(f.id);
  }
  if (status_ == Status::connected) {
    send_offer();
  }
}

void Honeypot::add_advertised(AdvertisedFile file) {
  if (!advertised_ids_.insert(file.id).second) return;
  advertised_.push_back(std::move(file));
  // Batch growth into the keep-alive OFFER instead of spamming the server
  // on every harvested file; push promptly at small sizes so the first
  // advertisements go out quickly.
  offer_dirty_ = true;
  if (status_ == Status::connected &&
      (advertised_.size() < 8 || advertised_.size() % 64 == 0)) {
    send_offer();
  }
}

void Honeypot::disconnect() { teardown(Status::idle); }

void Honeypot::crash() {
  // Severed like the degrade sink: the sink captures manager wiring, and a
  // probe verdict racing a relaunch must not reach a stale incarnation.
  probe_sink_ = nullptr;
  retries_episode_ = 0;
  if (config_.spool.enabled) {
    // Records appended since the last spool cut lived only in process
    // memory: they die with the process. Everything below the mark is in
    // the local spool (pending_chunks_) or already with the manager.
    const auto lost = log_.records.size() - spooled_mark_;
    if (lost > 0) {
      lost_tail_ += lost;
      log_.records.resize(spooled_mark_);
    }
  }
  teardown(Status::dead);
  net_.stop_listening(self_);
}

void Honeypot::teardown(Status next) {
  offer_timer_.reset();
  probe_timer_.reset();
  spool_timer_.reset();
  net_.simulation().cancel(retry_event_);
  net_.simulation().cancel(probe_timeout_event_);
  probe_pending_ = probe_await_search_ = probe_await_canary_ = false;
  if (server_ep_) {
    server_ep_->close();
    server_ep_.reset();
  }
  for (auto& [key, conn] : peers_) {
    gate_.forget(conn.gate);
    if (conn.endpoint) conn.endpoint->close();
  }
  peers_.clear();
  gate_.reset();
  status_ = next;
}

void Honeypot::on_peer_accept(net::EndpointPtr ep) {
  if (peers_.size() >= kHardPeerCap) {
    // The fd-limit analog: even an undefended honeypot cannot hold
    // unbounded peer connections.
    ep->close();
    return;
  }
  if (mem_pressure_active_ && session_ceiling_active_ != 0 &&
      peers_.size() >= session_ceiling_active_) {
    // Declared degradation: under memory pressure the episode's session
    // ceiling refuses new peers before they can cost a buffer.
    ++degrade_.sessions_refused;
    ep->close();
    return;
  }
  if (!gate_.admit(peers_.size(), ep->remote_node())) {
    ep->close();
    return;
  }
  const ConnKey key = next_conn_++;
  PeerConn conn;
  conn.endpoint = std::move(ep);
  // Local clock: taint_tail compares this against record timestamps, which
  // are local-stamped too — mixing timebases would unbound the scan.
  conn.connected_at = local_now();
  auto [it, inserted] = peers_.emplace(key, std::move(conn));
  net::Endpoint& endpoint = *it->second.endpoint;
  endpoint.on_message([this, key](net::Bytes p) { on_peer_message(key, std::move(p)); });
  // The remote already closed: drop_peer's close() is a no-op.
  endpoint.on_close([this, key] { drop_peer(key); });
  gate_.open(key, it->second.gate);
}

bool Honeypot::drop_peer(ConnKey key) {
  auto it = peers_.find(key);
  if (it == peers_.end()) return false;
  gate_.forget(it->second.gate);
  if (it->second.endpoint) it->second.endpoint->close();
  peers_.erase(it);
  return true;
}

void Honeypot::on_peer_message(ConnKey key, net::Bytes packet) {
  if (!gate_.enabled()) {
    process_peer(key, std::move(packet));
    return;
  }
  auto it = peers_.find(key);
  if (it == peers_.end()) return;
  gate_.receive(key, it->second.gate, std::move(packet));
}

void Honeypot::process_peer(ConnKey key, net::Bytes packet) {
  auto it = peers_.find(key);
  if (it == peers_.end()) return;
  PeerConn& conn = it->second;

  proto::AnyMessageView msg;
  try {
    msg = proto::decode_view(proto::Channel::client_client, packet, arena_);
  } catch (const DecodeError&) {
    gate_.malformed();
    drop_peer(key);
    return;
  }

  // A valid message is the peer's handshake/keep-alive: push the reap
  // horizon out to the idle timeout.
  gate_.touch(key, conn.gate);

  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::HelloView>) {
          handle_hello(conn, m);
        } else if constexpr (std::is_same_v<T, proto::StartUpload>) {
          handle_start_upload(conn, m);
        } else if constexpr (std::is_same_v<T, proto::RequestParts>) {
          handle_request_parts(conn, m);
        } else if constexpr (std::is_same_v<T, proto::AskSharedFilesAnswerView>) {
          handle_shared_list(conn, m);
        } else if constexpr (std::is_same_v<T, proto::AskSharedFiles>) {
          // A peer may browse us; answer with the advertised list to look
          // like a normal sharer.
          conn.endpoint->send(
              proto::encode(proto::AskSharedFilesAnswer{published_files()}));
        }
      },
      msg);
}

void Honeypot::handle_hello(PeerConn& conn, const proto::HelloView& msg) {
  if (config_.integrity_defense && conn.hello_seen &&
      truncate_user(msg.user) != conn.user) {
    // A second HELLO on the same connection under a different user hash is
    // a replay: one client process has exactly one persistent user hash, so
    // rotating it mid-connection cannot be benign (and node recycling makes
    // any cross-connection IP heuristic unsafe — this rule has zero false
    // positives). Record the attempt tainted and answer nothing.
    ++integrity_.replayed_hellos_rejected;
    conn.taint |= logbook::kFlagProvReplayed;
    // The first HELLO of the episode looked benign when it arrived; now
    // that the rotation proves a replayer, taint everything this
    // connection already logged.
    taint_tail(conn, logbook::kFlagProvReplayed);
    conn.user = truncate_user(msg.user);
    append_record(conn, logbook::QueryType::hello, nullptr);
    return;
  }
  // Stage-1 anonymisation happens here, before the record exists.
  conn.peer_hash = ip_anon_.anonymize(net_.info(conn.endpoint->remote_node()).ip);
  conn.user = truncate_user(msg.user);
  conn.client_id = msg.client_id;
  conn.port = msg.port;
  const auto tags = arena_.of(msg.tags);
  if (const auto* name = proto::find_string_tag(tags, proto::kTagName)) {
    conn.name_ref = intern_name(std::string(*name));
  }
  if (const auto* version = proto::find_u32_tag(tags, proto::kTagVersion)) {
    conn.version = *version;
  }
  conn.hello_seen = true;

  append_record(conn, logbook::QueryType::hello, nullptr);

  hello_answer_.client_id = client_id_.value();
  hello_answer_.server_ip = server_ ? net_.info(server_->node).ip.value() : 0;
  hello_answer_.server_port = server_ ? server_->port : 0;
  conn.endpoint->send(proto::encode(hello_answer_));
  conn.endpoint->send(proto::encode(proto::AskSharedFiles{}));
}

void Honeypot::handle_start_upload(PeerConn& conn,
                                   const proto::StartUpload& msg) {
  std::uint8_t taint = 0;
  if (config_.integrity_defense && !advertised_ids_.contains(msg.file)) {
    // We never advertised this hash, so no honest index can have steered
    // the peer here for it: the query exists because a server invented a
    // source record. Log it (the operator audits quarantined evidence) but
    // taint it out of the published dataset.
    ++integrity_.fabricated_sources_detected;
    taint = logbook::kFlagProvFabricated;
  }
  append_record(conn, logbook::QueryType::start_upload, &msg.file, taint);
  // Additional wanted files on an already-granted connection are only
  // logged (above). Everyone else is granted at once: keeping peers out of
  // a queue maximises the queries we observe.
  if (conn.uploading) return;
  conn.uploading = true;
  conn.endpoint->send(proto::encode(proto::AcceptUpload{}));
}

void Honeypot::handle_request_parts(PeerConn& conn, const proto::RequestParts& msg) {
  append_record(conn, logbook::QueryType::request_part, &msg.file);
  if (config_.strategy == ContentStrategy::no_content) {
    return;  // silence: the downloader will time out
  }
  // random-content: answer every non-empty range with random bytes. Only a
  // small sample of the block is materialized; the transport accounts for
  // the full wire size (send_sized), so timing matches a real upload.
  auto& rng = net_.simulation().rng();
  for (std::size_t i = 0; i < proto::kRequestPartRanges; ++i) {
    if (msg.end[i] <= msg.begin[i]) continue;
    const std::uint32_t block = msg.end[i] - msg.begin[i];
    part_.file = msg.file;
    part_.begin = msg.begin[i];
    part_.end = msg.end[i];
    part_.data.resize(std::min<std::size_t>(block, kSendingPartSample));
    for (auto& b : part_.data) {
      b = static_cast<std::uint8_t>(rng());
    }
    conn.endpoint->send_sized(proto::encode(part_), block + kSendingPartOverhead);
    ++counters_.blocks_sent;
  }
}

void Honeypot::handle_shared_list(PeerConn& conn,
                                  const proto::AskSharedFilesAnswerView& msg) {
  ++counters_.shared_lists_received;
  if (config_.integrity_defense) {
    // Our advertised files are fakes the manager invented: no honest peer
    // can really hold them, so a shared list claiming several of them is
    // forged flattery designed to pollute the observed-files statistics.
    std::size_t matches = 0;
    for (const auto& f : arena_.of(msg.files)) {
      if (advertised_ids_.contains(f.file)) ++matches;
    }
    if (matches >= kForgedListMinMatches) {
      ++integrity_.forged_lists_rejected;
      conn.taint |= logbook::kFlagProvForged;
      // The HELLO that opened this exchange looked benign; the forged list
      // proves the whole connection adversarial.
      taint_tail(conn, logbook::kFlagProvForged);
      return;  // reject: no observed-files/greedy adoption from a forger
    }
  }
  for (const auto& f : arena_.of(msg.files)) {
    observed_.insert(f.file, f.size);
    if (config_.greedy && in_harvest_window() &&
        advertised_.size() < config_.greedy_max_files &&
        !advertised_ids_.contains(f.file)) {
      add_advertised(AdvertisedFile{f.file, std::string(f.name), f.size});
    }
  }
  (void)conn;
}

void Honeypot::append_record(const PeerConn& conn, logbook::QueryType type,
                             const FileId* file, std::uint8_t taint) {
  logbook::LogRecord r;
  // The honeypot stamps what its own wall clock claims — identical to true
  // sim time until a clock fault touches this host. The merge layer earns
  // back the true ordering from clock observations.
  r.timestamp = local_now();
  r.peer = conn.peer_hash;
  r.user = conn.user;
  r.client_version = conn.version;
  r.honeypot = config_.id;
  r.peer_port = conn.port;
  r.name_ref = conn.name_ref;
  r.type = type;
  r.flags = static_cast<std::uint8_t>(taint | conn.taint);
  if (ClientId(conn.client_id).is_high()) {
    r.flags |= logbook::kFlagHighId;
  }
  if (file != nullptr) {
    r.file = *file;
    r.flags |= logbook::kFlagHasFile;
  }
  if (r.tainted()) ++integrity_.records_quarantined;
  // The query happened either way: the heartbeat reflects observed
  // traffic; only the LOG is subject to the budget gate.
  heartbeat_ = net_.simulation().now();
  // Birth certificate for the conservation ledger: every stamped record
  // counts, whatever disposition it meets below. Unconditional (one add,
  // no RNG, no events), so audited and unaudited runs are bit-identical.
  ++records_born_;
  if (!admit_record(r.user)) return;
  if (config_.audit_selftest_drop != 0 &&
      ++audit_selftest_tick_ % config_.audit_selftest_drop == 0) {
    // Deliberate silent loss (see HoneypotConfig::audit_selftest_drop):
    // born above, no disposition — an audited run must now fail.
    return;
  }
  if (config_.stream_records) {
    // Fold instead of retain: the running count + fingerprint are the
    // evidence a bench campaign keeps of its dataset.
    ++records_streamed_;
    auto mix = [this](std::uint64_t v) {
      stream_fingerprint_ ^= v;
      stream_fingerprint_ *= 1099511628211ull;
    };
    std::uint64_t t_bits = 0;
    static_assert(sizeof(r.timestamp) == 8);
    std::memcpy(&t_bits, &r.timestamp, 8);
    mix(t_bits);
    mix(r.peer);
    mix(r.user);
    mix(static_cast<std::uint64_t>(r.honeypot));
    mix(static_cast<std::uint64_t>(r.type));
    return;
  }
  log_.records.push_back(r);
}

FileId Honeypot::canary_file() const {
  // Deterministic per-honeypot hash nobody ever advertises (the scenario's
  // catalog ids come from dedicated RNG splits with different high words).
  return FileId::from_words(0xEDC0FFEE00000000ull | config_.id,
                            0x0000000CA7A12E5ull);
}

void Honeypot::run_self_probe() {
  if (status_ != Status::connected || !server_ep_ || !server_ep_->open()) return;
  if (probe_pending_) return;  // previous probe still awaiting its timeout
  const bool canary = (probe_seq_++ % 2) == 1;
  if (canary) {
    probe_await_canary_ = true;
    server_ep_->send(
        proto::encode(proto::GetSources{canary_file()}));
  } else {
    if (advertised_.empty()) {
      --probe_seq_;  // nothing to verify yet; keep the alternation phase
      return;
    }
    const auto& f = advertised_[probe_cursor_++ % advertised_.size()];
    probe_file_ = f.id;
    probe_await_search_ = true;
    server_ep_->send(
        proto::encode(proto::SearchRequest{f.name}));
  }
  probe_pending_ = true;
  ++integrity_.probes_sent;
  // The server session is a reliable link, so an unanswered probe is a
  // miss; a reply that arrives after it is no longer awaited and ignored.
  probe_timeout_event_ = net_.simulation().schedule_in(
      kProbeTimeout, [this] { probe_result(false); });
}

void Honeypot::probe_result(bool confirmed) {
  if (!probe_pending_) return;
  probe_pending_ = probe_await_search_ = probe_await_canary_ = false;
  net_.simulation().cancel(probe_timeout_event_);
  if (confirmed) {
    ++integrity_.probes_confirmed;
  } else {
    ++integrity_.probes_missed;
    // Self-heal: the server lost (or lied away) our advertisement; push the
    // full list again immediately instead of waiting for the keep-alive.
    if (status_ == Status::connected) send_offer();
  }
  if (probe_sink_) probe_sink_(confirmed);
}

void Honeypot::taint_tail(const PeerConn& conn, std::uint8_t taint) {
  // Bounded backwards scan: a connection's records are a suffix slice no
  // older than its accept time (records append in time order).
  for (auto it = log_.records.rbegin(); it != log_.records.rend(); ++it) {
    if (it->timestamp < conn.connected_at) break;
    if (it->peer != conn.peer_hash) continue;
    if ((it->flags & taint) != 0) continue;
    const bool fresh = !it->tainted();
    it->flags |= taint;
    if (fresh) ++integrity_.records_quarantined;
  }
}

std::uint16_t Honeypot::intern_name(const std::string& name) {
  auto it = name_cache_.find(name);
  if (it != name_cache_.end()) return it->second;
  const auto ref = log_.intern(name);
  name_cache_.emplace(name, ref);
  return ref;
}

bool Honeypot::in_harvest_window() const {
  if (status_ != Status::connected) return false;
  return net_.simulation().now() - started_at_ <= kGreedyHarvestWindow;
}

std::uint64_t Honeypot::effective_disk_quota() const {
  const std::uint64_t base = config_.budget.disk_quota_bytes;
  if (!disk_full_active_) return base;
  if (base == 0) {
    // No configured quota to shrink: the episode freezes the disk at the
    // fill level observed when it began.
    return std::max<std::uint64_t>(1, disk_full_frozen_quota_);
  }
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(base) *
                                    disk_full_magnitude_));
}

std::uint64_t Honeypot::effective_mem_budget() const {
  const std::uint64_t base = config_.budget.mem_budget_records;
  if (!mem_pressure_active_) return base;
  if (base == 0) {
    return std::max<std::uint64_t>(1, mem_frozen_budget_);
  }
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(base) *
                                    mem_pressure_magnitude_));
}

bool Honeypot::admit_record(std::uint64_t user) {
  const auto& b = config_.budget;
  if (b.policy == budget::DegradePolicy::off) return true;
  const std::uint64_t quota = effective_disk_quota();
  const std::uint64_t mem = effective_mem_budget();
  const bool disk_over = quota != 0 && spool_resident_bytes_ > quota;
  const bool mem_over = mem != 0 && unspooled_tail() >= mem;
  if (!disk_over && !mem_over) return true;
  if (user == budget::kAbuseUserWord) {
    // Low-priority record while over budget: shed at the source, declared.
    enter_degraded(disk_over ? budget::DegradeReason::disk_quota
                             : budget::DegradeReason::mem_budget);
    ++degrade_.records_shed;
    return false;
  }
  // Evidence record: always kept. A full record buffer emits backpressure —
  // an early cut pushes the tail downstream (and may compact) before this
  // record lands; a full disk is soft for evidence (overrun counted).
  if (mem_over) {
    enter_degraded(budget::DegradeReason::mem_budget);
    ++degrade_.backpressure_cuts;
    spool_now();
  }
  if (disk_over) {
    enter_degraded(budget::DegradeReason::disk_quota);
    ++degrade_.quota_overruns;
  }
  return true;
}

void Honeypot::maybe_compact() {
  const auto& b = config_.budget;
  if (b.policy == budget::DegradePolicy::off) return;
  const std::uint64_t quota = effective_disk_quota();
  if (quota == 0 || spool_resident_bytes_ <= quota) return;
  enter_degraded(disk_full_active_ ? budget::DegradeReason::fault_disk_full
                                   : budget::DegradeReason::disk_quota);
  if (pending_chunks_.empty()) return;
  // Coalesce the maximal suffix of chunks no sink has ever received (the
  // store cannot hold their seqs, so rebuilding them is safe) from the
  // current epoch. Their log ranges are contiguous and end exactly at the
  // spooled mark, so shedding from chunk and log together keeps the local
  // log and the spool byte-for-byte consistent.
  std::size_t first = pending_chunks_.size();
  const std::uint32_t epoch = pending_chunks_.back().epoch;
  while (first > 0 && !pending_meta_[first - 1].delivered &&
         pending_chunks_[first - 1].epoch == epoch) {
    --first;
  }
  const std::size_t n = pending_chunks_.size() - first;
  if (n == 0) return;
  const std::size_t lo = pending_meta_[first].rec_begin;
  const std::size_t hi = spooled_mark_;
  std::size_t removed = 0;
  if (hi > lo) {
    const auto begin = log_.records.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto end = log_.records.begin() + static_cast<std::ptrdiff_t>(hi);
    const auto keep_end =
        std::remove_if(begin, end, [](const logbook::LogRecord& r) {
          return r.user == budget::kAbuseUserWord;
        });
    removed = static_cast<std::size_t>(end - keep_end);
    if (removed > 0) {
      log_.records.erase(keep_end, end);
    }
  }
  if (n < 2 && removed == 0) return;  // nothing to coalesce, nothing shed
  spooled_mark_ -= removed;
  degrade_.records_shed += removed;
  logbook::LogChunk merged;
  merged.honeypot = config_.id;
  merged.epoch = epoch;
  // Reuse the suffix's smallest seq: never delivered, so no dedup hazard;
  // the seqs above it simply become gaps (dedup is exact-match).
  merged.seq = pending_chunks_[first].seq;
  merged.name_base = pending_chunks_[first].name_base;
  for (std::size_t i = first; i < pending_chunks_.size(); ++i) {
    merged.names.insert(merged.names.end(), pending_chunks_[i].names.begin(),
                        pending_chunks_[i].names.end());
  }
  merged.records.assign(
      log_.records.begin() + static_cast<std::ptrdiff_t>(lo),
      log_.records.begin() + static_cast<std::ptrdiff_t>(spooled_mark_));
  merged.checksum = logbook::chunk_checksum(merged);
  std::uint64_t old_cost = 0;
  for (std::size_t i = first; i < pending_chunks_.size(); ++i) {
    old_cost += logbook::chunk_cost_bytes(pending_chunks_[i]);
  }
  const std::uint64_t new_cost = logbook::chunk_cost_bytes(merged);
  pending_chunks_.resize(first);
  pending_meta_.resize(first);
  pending_chunks_.push_back(std::move(merged));
  pending_meta_.push_back({false, false, lo, spooled_mark_});
  spool_resident_bytes_ =
      old_cost >= spool_resident_bytes_ + new_cost
          ? new_cost
          : spool_resident_bytes_ - old_cost + new_cost;
  ++degrade_.compaction_runs;
  degrade_.chunks_compacted += n;
  if (old_cost > new_cost) {
    degrade_.compaction_bytes_reclaimed += old_cost - new_cost;
  }
}

void Honeypot::set_resource_fault(budget::ResourceFault which, bool active,
                                  double magnitude) {
  if (config_.budget.policy == budget::DegradePolicy::off) return;
  switch (which) {
    case budget::ResourceFault::disk_full: {
      disk_full_active_ = active;
      disk_full_magnitude_ = magnitude;
      if (active) {
        if (config_.budget.disk_quota_bytes == 0) {
          disk_full_frozen_quota_ =
              std::max<std::uint64_t>(1, spool_resident_bytes_);
        }
        enter_degraded(budget::DegradeReason::fault_disk_full);
        maybe_compact();  // the quota just dropped: react immediately
      }
      break;
    }
    case budget::ResourceFault::disk_slow: {
      disk_slow_active_ = active;
      disk_slow_factor_ = active ? std::max(1.0, magnitude) : 1.0;
      if (active) enter_degraded(budget::DegradeReason::fault_disk_slow);
      break;
    }
    case budget::ResourceFault::mem_pressure: {
      mem_pressure_active_ = active;
      mem_pressure_magnitude_ = magnitude;
      if (active) {
        if (config_.budget.mem_budget_records == 0) {
          mem_frozen_budget_ = std::max<std::uint64_t>(1, unspooled_tail());
        }
        session_ceiling_active_ =
            config_.budget.session_ceiling != 0
                ? config_.budget.session_ceiling
                : std::max<std::size_t>(1, peers_.size());
        enter_degraded(budget::DegradeReason::fault_mem_pressure);
      } else {
        session_ceiling_active_ = 0;
      }
      break;
    }
  }
  if (!active) update_degrade_state();
}

void Honeypot::enter_degraded(budget::DegradeReason reason) {
  if (degraded_) return;
  degraded_ = true;
  ++degrade_.degrade_enters;
  if (degrade_sink_) degrade_sink_(true, reason);
}

void Honeypot::update_degrade_state() {
  if (!degraded_) return;
  if (disk_full_active_ || disk_slow_active_ || mem_pressure_active_) return;
  const std::uint64_t quota = effective_disk_quota();
  if (quota != 0 && spool_resident_bytes_ > quota) return;
  const std::uint64_t mem = effective_mem_budget();
  if (mem != 0 && unspooled_tail() >= mem) return;
  degraded_ = false;
  ++degrade_.degrade_exits;
  if (degrade_sink_) degrade_sink_(false, budget::DegradeReason::none);
}

}  // namespace edhp::honeypot
