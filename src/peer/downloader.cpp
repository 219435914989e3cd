#include "peer/downloader.hpp"

#include <algorithm>

#include "proto/filehash.hpp"

namespace edhp::peer {
namespace {

/// Probability of silently dropping a source after a fruitless session
/// (no verified data): the user re-prioritises downloads, the client
/// rotates sources. Unlike detection this publishes nothing.
constexpr double kAbandonPerSession = 0.25;

/// Block ranges of one REQUEST-PART round starting at `offset` within the
/// current part.
proto::RequestParts make_round(const FileId& file, std::uint64_t offset) {
  proto::RequestParts rp;
  rp.file = file;
  const std::uint64_t in_part = offset % proto::kPartSize;
  std::uint64_t begin = in_part;
  for (std::size_t i = 0; i < proto::kRequestPartRanges; ++i) {
    const std::uint64_t end = std::min<std::uint64_t>(
        begin + proto::kBlockSize, proto::kPartSize);
    rp.begin[i] = static_cast<std::uint32_t>(begin);
    rp.end[i] = static_cast<std::uint32_t>(end);
    begin = end;
  }
  return rp;
}

}  // namespace

Peer::Peer(const PeerContext& ctx, net::NodeId node, PeerProfile profile,
           FileId target, Rng rng, DoneCallback on_done,
           std::vector<FileId> secondary_targets)
    : ctx_(ctx),
      node_(node),
      profile_(std::move(profile)),
      target_(target),
      secondary_targets_(std::move(secondary_targets)),
      rng_(rng),
      on_done_(std::move(on_done)) {
  const auto& params = *ctx_.params;
  if (!ctx_.home_servers.empty()) {
    const auto pick = ctx_.home_server_weights.size() == ctx_.home_servers.size()
                          ? rng_.weighted(ctx_.home_server_weights)
                          : static_cast<std::size_t>(
                                rng_.below(ctx_.home_servers.size()));
    ctx_.server_node = ctx_.home_servers[pick];
  }
  sessions_left_ = 1 + static_cast<std::uint32_t>(
                           rng_.poisson(std::max(0.0, params.sessions_mean - 1)));
  // Whether this client ever requests upload slots is a per-peer trait:
  // some clients only handshake (source exchange, browsing), which is why
  // the paper sees fewer START-UPLOAD peers than HELLO peers (Figs 5/6).
  uploader_ = rng_.chance(params.start_upload_prob);
  shares_list_ = rng_.chance(params.share_list_prob);
}

Peer::~Peer() {
  if (server_ep_) server_ep_->close();
  for (auto& s : sources_) {
    if (s.endpoint) s.endpoint->close();
    simulation().cancel(s.timeout);
  }
}

sim::Simulation& Peer::simulation() { return ctx_.net->simulation(); }

void Peer::start() { begin_session(); }

void Peer::begin_session() {
  if (finished_) return;
  session_open_ = true;
  ++stats_.sessions;
  if (!sources_selected_) {
    // Some peers learned the sources through peer exchange and never touch
    // the server at all (they are connected elsewhere); they still carry a
    // plausible clientID in their HELLO.
    if (ctx_.source_cache != nullptr && rng_.chance(ctx_.params->pex_prob)) {
      const auto& known = ctx_.source_cache->lookup(target_);
      if (!known.empty()) {
        client_id_ = profile_.reachable
                         ? ctx_.net->info(node_).ip.value()
                         : static_cast<std::uint32_t>(
                               1 + rng_.below(ClientId::kLowIdThreshold - 1));
        select_sources(known);
        contact_sources();
        return;
      }
    }
    // First session: resolve providers through the server.
    ctx_.net->connect(node_, ctx_.server_node, [this](net::EndpointPtr ep) {
      if (!ep) {
        ++stats_.connect_failures;
        finish();
        return;
      }
      on_server_connected(std::move(ep));
    });
    return;
  }
  contact_sources();
}

void Peer::on_server_connected(net::EndpointPtr ep) {
  server_ep_ = std::move(ep);
  server_ep_->on_message([this](net::Bytes p) { on_server_message(std::move(p)); });
  server_ep_->on_close([this] { server_ep_.reset(); });

  proto::LoginRequest login;
  login.user = profile_.user;
  login.client_id = 0;
  login.port = ctx_.net->info(node_).port;
  login.tags = {proto::Tag::string_tag(proto::kTagName, profile_.client_name),
                proto::Tag::u32_tag(proto::kTagVersion, profile_.client_version),
                proto::Tag::u32_tag(proto::kTagPort, login.port)};
  server_ep_->send(proto::encode(login));
}

void Peer::on_server_message(net::Bytes packet) {
  proto::AnyMessageView msg;
  try {
    msg = proto::decode_view(proto::Channel::client_server, packet, arena_);
  } catch (const DecodeError&) {
    ctx_.net->note_malformed(node_);
    return;
  }
  if (const auto* id = std::get_if<proto::IdChange>(&msg)) {
    client_id_ = id->client_id;
    server_ep_->send(proto::encode(proto::GetSources{target_}));
    return;
  }
  if (const auto* found = std::get_if<proto::FoundSourcesView>(&msg)) {
    if (found->file == target_) {
      const auto sources = arena_.of(found->sources);
      if (ctx_.source_cache != nullptr) {
        // Feed the community cache: this is what later PEX peers consult.
        ctx_.source_cache->offer(target_, sources);
      }
      select_sources(sources);
      // The short-lived server session served its purpose. (Real clients
      // stay connected; only the source query matters to the honeypots.)
      server_ep_->close();
      server_ep_.reset();
      contact_sources();
    }
    return;
  }
}

double Peer::source_weight(std::uint32_t client_id) const {
  if (ctx_.source_weights == nullptr) return 1.0;
  auto it = ctx_.source_weights->find(client_id);
  return it == ctx_.source_weights->end() ? 1.0 : it->second;
}

void Peer::select_sources(std::span<const proto::SourceEntry> found) {
  sources_selected_ = true;
  // Candidates: reachable (HighID) providers.
  std::vector<proto::SourceEntry> candidates;
  candidates.reserve(found.size());
  for (const auto& s : found) {
    if (ClientId(s.client_id).is_low()) continue;
    candidates.push_back(s);
  }
  if (candidates.empty()) return;

  const double extra_mean = rng_.chance(ctx_.params->aggressive_prob)
                                ? ctx_.params->aggressive_extra_mean
                                : ctx_.params->extra_sources_mean;
  const std::size_t k = std::min<std::size_t>(
      candidates.size(), 1 + static_cast<std::size_t>(rng_.poisson(extra_mean)));

  // Weighted sampling without replacement. A provider's effective weight is
  // its visibility times its community reputation: blacklisted providers
  // lose picks to better-reputed ones, which is how the no-content group
  // ends up observing fewer *distinct* peers (Figs 5/6).
  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (const auto& s : candidates) {
    weights.push_back(source_weight(s.client_id) *
                      ctx_.blacklist->reputation(s.client_id));
  }
  for (std::size_t pick = 0; pick < k; ++pick) {
    const std::size_t i = rng_.weighted(weights);
    Source src;
    src.client_id = candidates[i].client_id;
    src.port = candidates[i].port;
    sources_.push_back(std::move(src));
    weights[i] = 0.0;
    if (std::all_of(weights.begin(), weights.end(),
                    [](double w) { return w <= 0.0; })) {
      break;
    }
  }
}

void Peer::contact_sources() {
  engaged_ = 0;
  for (auto& s : sources_) {
    if (!s.detected && !s.abandoned) {
      s.engaged = true;
      s.uploading = false;
      s.timeouts_this_session = 0;
      s.rounds_this_session = 0;
      ++engaged_;
    }
  }
  if (engaged_ == 0) {
    // Nothing left to try: every source detected (or none selected).
    finish();
    return;
  }
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].engaged) contact(i);
  }
}

void Peer::contact(std::size_t index) {
  Source& src = sources_[index];
  const auto target_node = ctx_.net->find_by_ip(src.client_id);
  if (!target_node) {
    ++stats_.connect_failures;
    conclude(index);
    return;
  }
  ctx_.net->connect(node_, *target_node, [this, index](net::EndpointPtr ep) {
    if (finished_) return;
    Source& s = sources_[index];
    if (!ep) {
      // Provider offline (e.g. crashed honeypot host).
      ++stats_.connect_failures;
      conclude(index);
      return;
    }
    s.endpoint = std::move(ep);
    s.endpoint->on_message(
        [this, index](net::Bytes p) { on_source_message(index, std::move(p)); });
    s.endpoint->on_close([this, index] {
      if (finished_) return;
      Source& closed = sources_[index];
      closed.endpoint.reset();
      if (closed.engaged) conclude(index);
    });

    // Built per send: keeping it would add a HELLO to every live peer.
    proto::Hello hello;
    hello.user = profile_.user;
    hello.client_id = client_id_;
    hello.port = ctx_.net->info(node_).port;
    hello.tags = {proto::Tag::string_tag(proto::kTagName, profile_.client_name),
                  proto::Tag::u32_tag(proto::kTagVersion, profile_.client_version)};
    hello.server_ip = ctx_.net->info(ctx_.server_node).ip.value();
    hello.server_port = ctx_.server_port;
    s.endpoint->send(proto::encode(hello));
    ++stats_.hellos_sent;
  });
}

void Peer::send_shared_list(Source& source) {
  if (shared_.files.empty()) {
    // Sampled on the first request (at least one entry), then kept as the
    // wire-ready list.
    const std::size_t n =
        1 + static_cast<std::size_t>(rng_.poisson(ctx_.params->cache_size_mean));
    auto cache = ctx_.catalog->sample_cache(rng_, n);
    shared_.files.reserve(cache.size());
    for (auto& f : cache) {
      shared_.files.push_back({f.id, 0, 0, std::move(f.name), f.size});
    }
  }
  const std::uint16_t port = ctx_.net->info(node_).port;
  for (auto& f : shared_.files) {
    f.client_id = client_id_;
    f.port = port;
  }
  source.endpoint->send(proto::encode(shared_));
}

void Peer::on_source_message(std::size_t index, net::Bytes packet) {
  Source& src = sources_[index];
  if (!src.endpoint || !src.engaged) return;

  proto::AnyMessageView msg;
  try {
    msg = proto::decode_view(proto::Channel::client_client, packet, arena_);
  } catch (const DecodeError&) {
    ctx_.net->note_malformed(node_);
    conclude(index);
    return;
  }

  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::HelloAnswerView>) {
          if (uploader_) {
            src.endpoint->send(proto::encode(proto::StartUpload{target_}));
            ++stats_.start_uploads_sent;
            if (!src.asked_secondary) {
              // Ask this provider about every other file we want (the
              // client checks the source against its full download list);
              // only the primary target is actually transferred.
              src.asked_secondary = true;
              for (const auto& extra : secondary_targets_) {
                src.endpoint->send(proto::encode(proto::StartUpload{extra}));
                ++stats_.start_uploads_sent;
              }
            }
            // Safety timeout in case the provider never answers the slot
            // request.
            src.timeout = simulation().schedule_in(
                ctx_.params->request_timeout, [this, index] {
                  if (!finished_ && sources_[index].engaged &&
                      !sources_[index].uploading) {
                    conclude(index);
                  }
                });
          } else {
            // Handshake-only session; linger briefly so the provider's
            // follow-up (e.g. ASK-SHARED-FILES) can still be served.
            src.timeout = simulation().schedule_in(
                10.0, [this, index] {
                  if (!finished_ && sources_[index].engaged &&
                      !sources_[index].uploading) {
                    conclude(index);
                  }
                });
          }
        } else if constexpr (std::is_same_v<T, proto::AskSharedFiles>) {
          if (shares_list_) {
            send_shared_list(src);
          }
        } else if constexpr (std::is_same_v<T, proto::AcceptUpload>) {
          simulation().cancel(src.timeout);
          src.uploading = true;
          src.round_expected = 0;
          send_request_round(index);
        } else if constexpr (std::is_same_v<T, proto::QueueRank>) {
          // Queued: give up this session, retry next time.
          simulation().cancel(src.timeout);
          conclude(index);
        } else if constexpr (std::is_same_v<T, proto::SendingPartView>) {
          if (!src.uploading) return;
          const std::uint64_t got = m.end - m.begin;
          src.round_received += got;
          src.part_bytes += got;
          if (src.part_bytes >= proto::kPartSize) {
            on_part_complete(index);
          } else if (src.round_received >= src.round_expected) {
            simulation().cancel(src.timeout);
            send_request_round(index);
          }
        }
        // HELLO from the provider side or anything else: ignore.
      },
      msg);
}

void Peer::send_request_round(std::size_t index) {
  Source& src = sources_[index];
  if (src.rounds_this_session >= ctx_.params->max_rounds_per_session) {
    conclude(index);
    return;
  }
  ++src.rounds_this_session;
  auto rp = make_round(target_, src.part_bytes);
  src.round_expected = 0;
  for (std::size_t i = 0; i < proto::kRequestPartRanges; ++i) {
    src.round_expected += rp.end[i] - rp.begin[i];
  }
  src.round_received = 0;
  src.endpoint->send(proto::encode(rp));
  ++stats_.request_parts_sent;
  src.timeout = simulation().schedule_in(ctx_.params->request_timeout,
                                         [this, index] { on_request_timeout(index); });
}

void Peer::on_request_timeout(std::size_t index) {
  if (finished_) return;
  Source& src = sources_[index];
  if (!src.engaged || !src.uploading) return;
  ++src.timeouts_this_session;
  if (src.timeouts_this_session >= ctx_.params->timeouts_per_session) {
    ++src.timeout_sessions;
    if (src.timeout_sessions >= ctx_.params->detect_after_timeouts) {
      detect(index, ctx_.params->gossip_prob_timeout);
    }
    conclude(index);
    return;
  }
  // Retry the same round.
  if (src.endpoint) {
    auto rp = make_round(target_, src.part_bytes);
    src.round_received = 0;
    src.endpoint->send(proto::encode(rp));
    ++stats_.request_parts_sent;
    src.timeout = simulation().schedule_in(
        ctx_.params->request_timeout, [this, index] { on_request_timeout(index); });
  } else {
    conclude(index);
  }
}

void Peer::on_part_complete(std::size_t index) {
  Source& src = sources_[index];
  simulation().cancel(src.timeout);
  ++stats_.parts_completed;
  // Verification: the advertised part hash can never match content invented
  // by a honeypot (random bytes collide with the real MD4 digest with
  // probability 2^-128), so the check fails.
  src.part_bytes = 0;
  ++src.bad_parts;
  if (src.bad_parts >= ctx_.params->detect_after_bad_parts) {
    detect(index, ctx_.params->gossip_prob_bad_part);
    conclude(index);
    return;
  }
  // The client re-queues the part and keeps trying this session.
  send_request_round(index);
}

void Peer::detect(std::size_t index, double gossip_prob) {
  Source& src = sources_[index];
  if (src.detected) return;
  src.detected = true;
  ++stats_.detections;
  if (rng_.chance(gossip_prob)) {
    ctx_.blacklist->report(src.client_id);
  }
}

void Peer::conclude(std::size_t index) {
  Source& src = sources_[index];
  if (!src.engaged) return;
  src.engaged = false;
  src.uploading = false;
  simulation().cancel(src.timeout);
  if (src.endpoint) {
    src.endpoint->close();
    src.endpoint.reset();
  }
  if (engaged_ > 0) {
    --engaged_;
  }
  if (engaged_ == 0 && session_open_) {
    session_done();
  }
}

void Peer::session_done() {
  session_open_ = false;
  if (sessions_left_ > 0) {
    --sessions_left_;
  }
  // Fruitless sessions erode interest in a source: users re-prioritise and
  // clients rotate. Verified progress would prevent this, but a honeypot
  // never delivers any, so every session is a candidate.
  for (auto& s : sources_) {
    if (!s.detected && !s.abandoned &&
        rng_.chance(kAbandonPerSession)) {
      s.abandoned = true;
    }
  }
  const bool any_alive =
      std::any_of(sources_.begin(), sources_.end(), [](const Source& s) {
        return !s.detected && !s.abandoned;
      });
  if (sessions_left_ == 0 || !any_alive || sources_.empty()) {
    finish();
    return;
  }
  schedule_next_session();
}

void Peer::schedule_next_session() {
  // Diurnal gating by thinning: draw candidate gaps until one lands in an
  // active period (bounded retries keep worst-case work small).
  Duration gap = rng_.exponential(ctx_.params->session_gap_mean);
  const Time now = simulation().now();
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double activity = ctx_.diurnal->factor(now + gap);
    if (rng_.chance(activity)) break;
    gap += rng_.exponential(ctx_.params->session_gap_mean / 2);
  }
  simulation().schedule_in(gap, [this] {
    if (!finished_) begin_session();
  });
}

void Peer::finish() {
  if (finished_) return;
  finished_ = true;
  if (server_ep_) {
    server_ep_->close();
    server_ep_.reset();
  }
  for (auto& s : sources_) {
    simulation().cancel(s.timeout);
    if (s.endpoint) {
      s.endpoint->close();
      s.endpoint.reset();
    }
  }
  if (on_done_) {
    on_done_();
  }
}

}  // namespace edhp::peer
