#include "peer/top_peer.hpp"

#include "proto/filehash.hpp"

namespace edhp::peer {
namespace {

// The crawler's calibration (Figs 8/9).
/// REQUEST-PART rounds per encounter.
constexpr std::uint32_t kRoundsPerEncounter = 2;
/// Mean gap before re-visiting a source that delivered data.
constexpr Duration kGapAfterData = minutes(70);
/// Mean gap before re-visiting a source that timed out (lower priority).
constexpr Duration kGapAfterTimeout = minutes(105);
/// Client timeout per REQUEST-PART.
constexpr Duration kRequestTimeout = 45.0;
/// Mean length of an active period before an idle plateau.
constexpr Duration kActivePeriodMean = days(4);
/// Idle plateau length bounds.
constexpr Duration kPauseMin = hours(10);
constexpr Duration kPauseMax = hours(40);

proto::RequestParts crawler_round(const FileId& file, std::uint64_t offset) {
  proto::RequestParts rp;
  rp.file = file;
  std::uint64_t begin = offset % proto::kPartSize;
  for (std::size_t i = 0; i < proto::kRequestPartRanges; ++i) {
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + proto::kBlockSize, proto::kPartSize);
    rp.begin[i] = static_cast<std::uint32_t>(begin);
    rp.end[i] = static_cast<std::uint32_t>(end);
    begin = end;
  }
  return rp;
}

}  // namespace

TopPeer::TopPeer(net::Network& network, net::NodeId server_node,
                 PeerProfile profile, FileId target, Rng rng)
    : net_(network),
      server_node_(server_node),
      profile_(std::move(profile)),
      target_(target),
      rng_(rng) {
  node_ = net_.add_node(profile_.reachable, profile_.tz_offset_hours,
                        profile_.upload_bps);
}

TopPeer::~TopPeer() { stop(); }

void TopPeer::start() {
  running_ = true;
  net_.connect(node_, server_node_, [this](net::EndpointPtr ep) {
    if (!ep || !running_) return;
    server_ep_ = std::move(ep);
    server_ep_->on_message([this](net::Bytes p) { on_server_message(std::move(p)); });

    proto::LoginRequest login;
    login.user = profile_.user;
    login.port = net_.info(node_).port;
    login.tags = {proto::Tag::string_tag(proto::kTagName, profile_.client_name),
                  proto::Tag::u32_tag(proto::kTagVersion, profile_.client_version)};
    server_ep_->send(proto::encode(login));
  });
  toggle_activity();
}

void TopPeer::stop() {
  running_ = false;
  if (server_ep_) {
    server_ep_->close();
    server_ep_.reset();
  }
  for (auto& e : encounters_) {
    if (e.endpoint) e.endpoint->close();
    net_.simulation().cancel(e.timeout);
  }
  encounters_.clear();
}

void TopPeer::on_server_message(net::Bytes packet) {
  proto::AnyMessageView msg;
  try {
    msg = proto::decode_view(proto::Channel::client_server, packet, arena_);
  } catch (const DecodeError&) {
    net_.note_malformed(node_);
    return;
  }
  if (const auto* id = std::get_if<proto::IdChange>(&msg)) {
    client_id_ = id->client_id;
    server_ep_->send(proto::encode(proto::GetSources{target_}));
    return;
  }
  if (const auto* found = std::get_if<proto::FoundSourcesView>(&msg)) {
    const auto learned = arena_.of(found->sources);
    sources_.assign(learned.begin(), learned.end());
    sources_stats_.clear();
    encounters_.clear();
    sources_stats_.resize(sources_.size());
    encounters_.resize(sources_.size());
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      sources_stats_[i].client_id = sources_[i].client_id;
      encounters_[i].index = i;
      schedule_encounter(i, rng_.exponential(kGapAfterData));
    }
    server_ep_->close();
    server_ep_.reset();
  }
}

void TopPeer::schedule_encounter(std::size_t index, Duration gap) {
  net_.simulation().schedule_in(gap, [this, index] {
    if (!running_) return;
    if (paused_) {
      // Re-check after the plateau; keeps per-source chains alive.
      schedule_encounter(index, kPauseMin / 2);
      return;
    }
    run_encounter(index);
  });
}

void TopPeer::run_encounter(std::size_t index) {
  const auto target_node = net_.find_by_ip(sources_[index].client_id);
  if (!target_node) {
    schedule_encounter(index, kGapAfterTimeout);
    return;
  }
  net_.connect(node_, *target_node, [this, index](net::EndpointPtr ep) {
    if (!running_) return;
    if (!ep) {
      schedule_encounter(index, rng_.exponential(kGapAfterTimeout));
      return;
    }
    Encounter& e = encounters_[index];
    e.endpoint = std::move(ep);
    e.rounds = 0;
    e.received = 0;
    e.expected = 0;
    e.timed_out = false;
    e.endpoint->on_message(
        [this, index](net::Bytes p) { on_message(index, std::move(p)); });
    e.endpoint->on_close([this, index] {
      // Remote dropped us mid-encounter (e.g. honeypot crash): back off and
      // keep this source's chain alive.
      Encounter& enc = encounters_[index];
      if (!enc.endpoint) return;
      net_.simulation().cancel(enc.timeout);
      enc.endpoint.reset();
      if (running_) {
        schedule_encounter(index, rng_.exponential(kGapAfterTimeout));
      }
    });

    proto::Hello hello;
    hello.user = profile_.user;
    hello.client_id = client_id_;
    hello.port = net_.info(node_).port;
    hello.tags = {proto::Tag::string_tag(proto::kTagName, profile_.client_name),
                  proto::Tag::u32_tag(proto::kTagVersion, profile_.client_version)};
    hello.server_ip = net_.info(server_node_).ip.value();
    e.endpoint->send(proto::encode(hello));
    ++sources_stats_[index].hellos;
  });
}

void TopPeer::on_message(std::size_t index, net::Bytes packet) {
  Encounter& e = encounters_[index];
  if (!e.endpoint) return;
  proto::AnyMessageView msg;
  try {
    msg = proto::decode_view(proto::Channel::client_client, packet, arena_);
  } catch (const DecodeError&) {
    net_.note_malformed(node_);
    finish_encounter(index);
    return;
  }
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::HelloAnswerView>) {
          e.endpoint->send(
              proto::encode(proto::StartUpload{target_}));
          ++sources_stats_[index].start_uploads;
        } else if constexpr (std::is_same_v<T, proto::AcceptUpload>) {
          send_round(index);
        } else if constexpr (std::is_same_v<T, proto::SendingPartView>) {
          e.received += m.end - m.begin;
          e.offset += m.end - m.begin;
          if (e.received >= e.expected) {
            net_.simulation().cancel(e.timeout);
            if (e.rounds >= kRoundsPerEncounter) {
              finish_encounter(index);
            } else {
              send_round(index);
            }
          }
        }
        // ASK-SHARED-FILES is ignored: the crawler shares nothing.
      },
      msg);
}

void TopPeer::send_round(std::size_t index) {
  Encounter& e = encounters_[index];
  ++e.rounds;
  auto rp = crawler_round(target_, e.offset);
  e.expected = 0;
  for (std::size_t i = 0; i < proto::kRequestPartRanges; ++i) {
    e.expected += rp.end[i] - rp.begin[i];
  }
  e.received = 0;
  e.endpoint->send(proto::encode(rp));
  ++sources_stats_[index].request_parts;
  e.timeout = net_.simulation().schedule_in(kRequestTimeout, [this, index] {
    Encounter& enc = encounters_[index];
    if (!enc.endpoint) return;
    enc.timed_out = true;
    if (enc.rounds >= kRoundsPerEncounter) {
      finish_encounter(index);
    } else {
      send_round(index);
    }
  });
}

void TopPeer::finish_encounter(std::size_t index) {
  Encounter& e = encounters_[index];
  net_.simulation().cancel(e.timeout);
  const bool timed_out = e.timed_out;
  if (e.endpoint) {
    e.endpoint->close();
    e.endpoint.reset();
  }
  const Duration mean =
      timed_out ? kGapAfterTimeout : kGapAfterData;
  schedule_encounter(index, rng_.exponential(mean));
}

void TopPeer::toggle_activity() {
  if (!running_) return;
  const Duration span =
      paused_ ? rng_.uniform(kPauseMin, kPauseMax)
              : rng_.exponential(kActivePeriodMean);
  net_.simulation().schedule_in(span, [this] {
    paused_ = !paused_;
    toggle_activity();
  });
}

}  // namespace edhp::peer
