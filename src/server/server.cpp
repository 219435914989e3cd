#include "server/server.hpp"

#include <algorithm>

#include "proto/udp_messages.hpp"

namespace edhp::server {
namespace {

/// Cap on sources per FOUND-SOURCES reply (wire limit is 255).
constexpr std::size_t kMaxSourcesPerReply = 200;
static_assert(kMaxSourcesPerReply <= 255);
/// Cap on search results per reply.
constexpr std::size_t kMaxSearchResults = 200;

/// Free-text description in the UDP SERVER-DESC answer.
constexpr std::string_view kDescription = "simulated lugdunum-style server";

/// Hard fd-limit analog on live sessions, enforced even with the defense
/// layer off. Far above anything benign traffic reaches, so an undefended
/// server is still genuinely harmed by a flood (sessions pile up to here).
constexpr std::size_t kHardSessionCap = 4096;

/// SplitMix64 step: deterministic forged identities without an RNG object
/// (lie content must be a pure function of the injected seed + sequence).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Server::Server(net::Network& network, net::NodeId self, ServerConfig config)
    : net_(network),
      self_(self),
      config_(std::move(config)),
      gate_(network, self, config_.defense,
            [this](SessionKey key, net::Bytes packet) {
              process(key, std::move(packet));
            },
            [this](SessionKey key) { return reap(key); }) {}

Server::~Server() { stop(); }

IpAddr Server::ip() const { return net_.info(self_).ip; }

void Server::start() {
  if (running_) return;
  running_ = true;
  net_.listen(self_, [this](net::EndpointPtr ep) { on_accept(std::move(ep)); });
  // UDP status pings feed the manager's server selection.
  net_.listen_datagram(self_, [this](net::NodeId from, net::Bytes datagram) {
    on_datagram(from, std::move(datagram));
  });
}

void Server::stop() {
  if (!running_) return;
  running_ = false;
  net_.stop_listening(self_);
  net_.stop_listening_datagram(self_);
  for (auto& [key, session] : sessions_) {
    index_.drop_session(key);
    gate_.forget(session.gate);
    if (session.endpoint) session.endpoint->close();
  }
  sessions_.clear();
  gate_.reset();
  // Deferred stale-window offers die with their sessions.
  stale_pending_.clear();
}

void Server::on_accept(net::EndpointPtr endpoint) {
  if (sessions_.size() >= kHardSessionCap) {
    // The fd-limit analog: even an undefended server cannot hold unbounded
    // sessions, it just sheds indiscriminately once the kernel says no.
    endpoint->close();
    return;
  }
  if (!gate_.admit(sessions_.size(), endpoint->remote_node())) {
    endpoint->close();
    return;
  }
  const SessionKey key = next_key_++;
  Session session;
  session.endpoint = std::move(endpoint);
  session.key = key;
  auto [it, inserted] = sessions_.emplace(key, std::move(session));
  net::Endpoint& ep = *it->second.endpoint;
  ep.on_message([this, key](net::Bytes packet) { on_message(key, std::move(packet)); });
  ep.on_close([this, key] { drop(key); });
  gate_.open(key, it->second.gate);
}

bool Server::reap(SessionKey key) {
  auto it = sessions_.find(key);
  if (it == sessions_.end()) return false;
  it->second.endpoint->close();
  drop(key);
  return true;
}

void Server::on_datagram(net::NodeId from, net::Bytes datagram) {
  proto::AnyUdpMessage msg;
  try {
    msg = proto::decode_udp(datagram);
  } catch (const DecodeError&) {
    gate_.malformed();
    return;
  }
  if (const auto* req = std::get_if<proto::ServStatRequest>(&msg)) {
    ++counters_.udp_status_requests;
    proto::ServStatResponse res;
    res.challenge = req->challenge;
    res.users = static_cast<std::uint32_t>(sessions_.size());
    res.files = static_cast<std::uint32_t>(index_.file_count());
    net_.send_datagram(self_, from, proto::encode_udp(res));
    return;
  }
  if (std::holds_alternative<proto::ServDescRequest>(msg)) {
    proto::ServDescResponse res;
    res.name = config_.name;
    res.description = kDescription;
    net_.send_datagram(self_, from, proto::encode_udp(std::move(res)));
  }
}

void Server::drop(SessionKey key) {
  auto it = sessions_.find(key);
  if (it != sessions_.end()) {
    gate_.forget(it->second.gate);
  }
  index_.drop_session(key);
  sessions_.erase(key);
}

void Server::on_message(SessionKey key, net::Bytes packet) {
  if (!gate_.enabled()) {
    process(key, std::move(packet));
    return;
  }
  auto it = sessions_.find(key);
  if (it == sessions_.end()) return;
  gate_.receive(key, it->second.gate, std::move(packet));
}

void Server::process(SessionKey key, net::Bytes packet) {
  auto it = sessions_.find(key);
  if (it == sessions_.end()) return;
  Session& session = it->second;

  proto::AnyMessageView msg;
  try {
    msg = proto::decode_view(proto::Channel::client_server, packet, arena_);
  } catch (const DecodeError&) {
    // Malformed traffic: count it, then close the connection, as lugdunum
    // servers do.
    gate_.malformed();
    session.endpoint->close();
    drop(key);
    return;
  }

  gate_.touch(key, session.gate);

  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::LoginRequestView> ||
                      std::is_same_v<T, proto::OfferFilesView> ||
                      std::is_same_v<T, proto::GetSources> ||
                      std::is_same_v<T, proto::SearchRequestView>) {
          handle(session, m);
        }
      },
      msg);
}

void Server::handle(Session& session, const proto::LoginRequestView& msg) {
  ++counters_.logins;
  session.user = msg.user;
  session.port = msg.port;
  session.logged_in = true;

  // HighID when the client is directly reachable (the server "probes" the
  // advertised port; in the simulation reachability is a node property),
  // LowID otherwise.
  const auto remote = session.endpoint->remote_node();
  if (net_.info(remote).reachable) {
    session.client_id = ClientId::high(net_.info(remote).ip);
  } else {
    session.client_id = ClientId(next_low_id_++);
    if (next_low_id_ >= ClientId::kLowIdThreshold) next_low_id_ = 1;
  }
  session.endpoint->send(
      proto::encode(proto::IdChange{session.client_id.value(), 0}));
}

void Server::handle(Session& session, const proto::OfferFilesView& msg) {
  if (!session.logged_in) {
    ++counters_.offer_before_login;
    return;
  }
  ++counters_.offers;
  const auto views = arena_.of(msg.files);
  if (lies_.drop_offers) {
    // No protocol-level ack exists for OFFER-FILES, so the client cannot
    // tell: only an advertise-and-verify self-probe surfaces this.
    ++counters_.byz_offers_dropped;
    return;
  }
  std::size_t keep = views.size();
  if (lies_.truncate_offers && keep > 0) {
    keep = static_cast<std::size_t>(
        static_cast<double>(keep) *
        std::clamp(lies_.truncate_keep, 0.0, 1.0));
    ++counters_.byz_offers_truncated;
  }
  if (lies_.stale_index) {
    // Evict early (the session's previous ad vanishes now), index late
    // (the new list lands only when the window ends).
    index_.drop_session(session.key);
    PendingOffer pending;
    pending.key = session.key;
    pending.client_id = session.client_id.value();
    pending.port = session.port;
    pending.files.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      const auto& f = views[i];
      pending.files.push_back(proto::PublishedFile{
          f.file, f.client_id, f.port, std::string(f.name), f.size});
    }
    auto it = std::find_if(stale_pending_.begin(), stale_pending_.end(),
                           [&](const PendingOffer& p) {
                             return p.key == session.key;
                           });
    if (it != stale_pending_.end()) {
      *it = std::move(pending);
    } else {
      stale_pending_.push_back(std::move(pending));
    }
    ++counters_.byz_offers_deferred;
    return;
  }
  index_.set_shared_list(session.key, session.client_id.value(), session.port,
                         views.first(keep));
}

void Server::handle(Session& session, const proto::GetSources& msg) {
  if (!session.logged_in) return;
  auto sources =
      index_.sources(msg.file, kMaxSourcesPerReply);
  if (lies_.fabricate_count > 0) {
    // Forge sources pointing at nonexistent peers: plausible HighIDs drawn
    // from the seeded sequence. Clients waste connection attempts on them;
    // a canary probe (GET-SOURCES for a hash nobody has) proves the lie.
    std::size_t forged = 0;
    while (forged < lies_.fabricate_count && sources.size() < 255) {
      const std::uint64_t h = mix64(lies_.fabricate_seed + ++fabricate_counter_);
      proto::SourceEntry entry;
      entry.client_id = static_cast<std::uint32_t>(h) | 0x80000000u;
      entry.port = 4662;
      sources.push_back(entry);
      ++forged;
    }
    counters_.byz_sources_fabricated += forged;
  }
  session.endpoint->send(
      proto::encode(proto::FoundSources{msg.file, std::move(sources)}));
}

void Server::handle(Session& session, const proto::SearchRequestView& msg) {
  if (!session.logged_in) return;
  auto files = index_.search(msg.query, kMaxSearchResults);
  if (lies_.corrupt_search && !files.empty()) {
    // Garble every returned hash: the names still look right, the ids are
    // junk — the measurement poison a self-probe is built to catch.
    for (auto& f : files) {
      const std::uint64_t h = mix64(lies_.corrupt_seed + ++corrupt_counter_);
      f.file = FileId::from_words(h, mix64(h));
    }
    ++counters_.byz_searches_corrupted;
  }
  session.endpoint->send(proto::encode(proto::SearchResult{std::move(files)}));
}

void Server::set_drop_offers(bool active) { lies_.drop_offers = active; }

void Server::set_truncate_offers(bool active, double keep) {
  lies_.truncate_offers = active;
  lies_.truncate_keep = active ? keep : 1.0;
}

void Server::set_stale_index(bool active) {
  if (lies_.stale_index && !active) {
    lies_.stale_index = false;
    apply_stale_pending();
    return;
  }
  lies_.stale_index = active;
}

void Server::set_fabricate_sources(bool active, std::size_t count,
                                   std::uint64_t seed) {
  lies_.fabricate_count = active ? count : 0;
  lies_.fabricate_seed = seed;
}

void Server::set_corrupt_search(bool active, std::uint64_t seed) {
  lies_.corrupt_search = active;
  lies_.corrupt_seed = seed;
}

void Server::apply_stale_pending() {
  // Indexed late: deferred offers land now, in arrival order, for sessions
  // that survived the window. A stop() in between dropped the sessions, so
  // their deferred lists simply evaporate (exactly what a restarted lying
  // server would do).
  for (auto& pending : stale_pending_) {
    auto it = sessions_.find(pending.key);
    if (it == sessions_.end() || !it->second.logged_in) continue;
    index_.set_shared_list(pending.key, pending.client_id, pending.port,
                           pending.files);
    ++counters_.byz_offers_late_indexed;
  }
  stale_pending_.clear();
}

}  // namespace edhp::server
