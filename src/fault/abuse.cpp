#include "fault/abuse.hpp"

#include <charconv>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/rng_splits.hpp"
#include "proto/messages.hpp"

namespace edhp::fault {
namespace {

// --- Episode shapes --------------------------------------------------------
constexpr std::size_t kCorruptMessages = 16;  ///< garbled packets per episode
constexpr double kCorruptFlip = 0.9;          ///< per-message mutation probabilities
constexpr double kCorruptTruncate = 0.3;
constexpr double kCorruptExtend = 0.3;
constexpr Duration kCorruptSpacing = 0.25;

constexpr std::size_t kFloodConnections = 96;  ///< connects per flood episode
constexpr Duration kFloodSpacing = 0.05;
constexpr Duration kFloodHold = minutes(10);   ///< idle hold before the attacker hangs up

constexpr Duration kSlowlorisHold = hours(6);  ///< post-handshake silence

constexpr std::size_t kOversizeMessages = 8;   ///< maximal messages per episode
constexpr std::size_t kOversizeEntries = 255;  ///< list entries per abusive message
constexpr std::size_t kOversizeTags = 120;     ///< tags per abusive HELLO
constexpr Duration kOversizeSpacing = 0.5;

/// A plausible 2008 client name for a hostile peer.
std::string attacker_name(std::uint32_t target) {
  return "lphant-" + std::to_string(target);
}

}  // namespace

AbusePlan make_plan(const AbuseConfig& config, std::size_t honeypots,
                    std::size_t servers, Duration horizon, Rng rng) {
  if (!config.enabled || !drawable_horizon(horizon) ||
      !(config.intensity > 0)) {
    return {};
  }
  std::vector<AbuseEvent> out;
  const std::size_t targets = honeypots + servers;

  // Each (class, target) pair owns a split stream (registry:
  // fault/rng_splits.hpp), so tuning one class (or adding a target) never
  // reshuffles the arrival times of another. `intensity` divides every
  // class's mean time between attacks.
  struct Class {
    AbuseKind kind;
    Duration mtba;
  };
  const Class classes[] = {
      {AbuseKind::corrupt_episode, config.corrupt_mtba},
      {AbuseKind::connection_flood, config.flood_mtba},
      {AbuseKind::slowloris, config.slowloris_mtba},
      {AbuseKind::oversize_messages, config.oversize_mtba},
  };
  static_assert(std::size(classes) == splits::kAbuseClassCount,
                "register new abuse classes in fault/rng_splits.hpp");
  for (std::size_t c = 0; c < std::size(classes); ++c) {
    per_subject(rng.split(splits::kAbuseClassBase + c), targets,
                [&](Rng& r, std::uint32_t t) {
                  arrivals(out, r, classes[c].mtba / config.intensity,
                           horizon, classes[c].kind, t);
                });
  }
  return AbusePlan(std::move(out));
}

AbuseInjector::AbuseInjector(net::Network& network, AbusePlan plan,
                             AbuseConfig config, Bindings bindings, Rng rng)
    : net_(network),
      plan_(std::move(plan)),
      config_(config),
      bind_(std::move(bindings)),
      rng_(rng) {
  if (!plan_.empty()) {
    if (bind_.honeypot_count > 0 && !bind_.honeypot_node) {
      throw std::invalid_argument(
          "fault::AbuseInjector: honeypot_node binding required");
    }
    if (bind_.server_count > 0 && !bind_.server_node) {
      throw std::invalid_argument(
          "fault::AbuseInjector: server_node binding required");
    }
  }
}

void AbuseInjector::arm() {
  if (plan_.empty()) return;
  attackers_ = HostilePool(net_, 4, config_.attackers_per_class);
  arm_plan(net_.simulation(), plan_, [this](std::size_t i) { apply(i); });
}

net::NodeId AbuseInjector::target_node(std::uint32_t target) const {
  const auto t = static_cast<std::size_t>(target);
  if (t < bind_.honeypot_count) return bind_.honeypot_node(t);
  return bind_.server_node(t - bind_.honeypot_count);
}

UserId AbuseInjector::abuse_user(AbuseKind kind, std::uint32_t target) {
  // Low word == kAbuseUserWord for every attacker: honeypot logs keep the
  // low word, so one equality test isolates hostile records. The high word
  // keeps identities distinct per (class, target).
  return UserId::from_words(
      kAbuseUserWord,
      (static_cast<std::uint64_t>(kind) << 32) | target);
}

net::Bytes AbuseInjector::handshake_packet(AbuseKind kind,
                                           std::uint32_t target) const {
  return handshake(target_is_server(target), abuse_user(kind, target),
                   attacker_name(target));
}

void AbuseInjector::apply(std::size_t index) {
  const AbuseEvent& event = plan_.events()[index];
  const std::uint32_t target = event.subject;
  const net::NodeId attacker =
      attackers_.node(static_cast<std::size_t>(event.kind), target);
  const net::NodeId victim = target_node(target);
  switch (event.kind) {
    case AbuseKind::corrupt_episode: {
      ++stats_.corrupt_episodes;
      // Per-episode mutation stream derived from the injector's content rng
      // by event index: re-ordering other classes cannot change it.
      net::Network::CorruptionSpec spec;
      spec.flip = kCorruptFlip;
      spec.truncate = kCorruptTruncate;
      spec.extend = kCorruptExtend;
      Rng seed_rng = rng_.split(index).split(0);
      spec.seed = seed_rng();
      net_.set_corruption(attacker, spec);
      dial(
          net_, attacker, victim, stats_,
          [this, attacker, target](net::EndpointPtr ep) {
            corrupt_burst(std::move(ep), attacker, target,
                          kCorruptMessages);
          },
          [this, attacker] { net_.clear_corruption(attacker); });
      break;
    }
    case AbuseKind::connection_flood: {
      ++stats_.flood_episodes;
      // All connections from ONE node, so a per-remote-node admission
      // bucket has something to key on — exactly the defense under test.
      flood_step(attacker, victim, kFloodConnections);
      break;
    }
    case AbuseKind::slowloris: {
      ++stats_.slowloris_episodes;
      dial(net_, attacker, victim, stats_, [this, target](net::EndpointPtr ep) {
        // Complete the handshake like an honest client, then hold the
        // session silently: without idle reaping this pins a slot for
        // kSlowlorisHold.
        ep->send(handshake_packet(AbuseKind::slowloris, target));
        ++stats_.messages_sent;
        net_.simulation().schedule_in(kSlowlorisHold,
                                      [ep] { ep->close(); });
      });
      break;
    }
    case AbuseKind::oversize_messages: {
      ++stats_.oversize_episodes;
      Rng content = rng_.split(index).split(1);
      dial(net_, attacker, victim, stats_,
           [this, target, content](net::EndpointPtr ep) {
             oversize_burst(std::move(ep), target, kOversizeMessages,
                            content);
           });
      break;
    }
  }
}

void AbuseInjector::corrupt_burst(net::EndpointPtr ep, net::NodeId attacker,
                                  std::uint32_t target, std::size_t remaining) {
  // The victim usually hangs up on the first garbled packet; once the
  // endpoint is closed (or the burst is spent) the corruptor retires.
  if (remaining == 0 || !ep->open()) {
    net_.clear_corruption(attacker);
    ep->close();
    return;
  }
  ep->send(handshake_packet(AbuseKind::corrupt_episode, target));
  ++stats_.messages_sent;
  net_.simulation().schedule_in(
      kCorruptSpacing,
      [this, ep = std::move(ep), attacker, target, remaining]() mutable {
        corrupt_burst(std::move(ep), attacker, target, remaining - 1);
      });
}

void AbuseInjector::flood_step(net::NodeId attacker, net::NodeId victim,
                               std::size_t remaining) {
  if (remaining == 0) return;
  dial(net_, attacker, victim, stats_, [this](net::EndpointPtr ep) {
    // Hold the connection open doing nothing; the captured shared_ptr keeps
    // it alive until the attacker hangs up (a handshake-timeout defense
    // reaps it much earlier).
    net_.simulation().schedule_in(kFloodHold, [ep] { ep->close(); });
  });
  net_.simulation().schedule_in(kFloodSpacing,
                                [this, attacker, victim, remaining] {
                                  flood_step(attacker, victim, remaining - 1);
                                });
}

void AbuseInjector::oversize_burst(net::EndpointPtr ep, std::uint32_t target,
                                   std::size_t remaining, Rng rng) {
  if (remaining == 0 || !ep->open()) {
    ep->close();
    return;
  }
  const bool to_server = target_is_server(target);
  const UserId user = abuse_user(AbuseKind::oversize_messages, target);
  net::Bytes packet;
  if (remaining == kOversizeMessages) {
    // Open with a handshake bloated to the tag-count ceiling.
    std::vector<proto::Tag> tags;
    tags.reserve(kOversizeTags);
    for (std::size_t i = 0; i < kOversizeTags; ++i) {
      tags.push_back(proto::Tag::u32_tag(
          static_cast<std::uint8_t>(rng.below(256)),
          static_cast<std::uint32_t>(rng.below(1u << 31))));
    }
    packet = to_server
                 ? proto::encode(proto::LoginRequest{user, 0, 4662, std::move(tags)})
                 : proto::encode(proto::Hello{user, 0, 4662, std::move(tags), 0, 0});
  } else if (rng.chance(0.3)) {
    // Long keyword query (server) / shared-list probe amplification
    // (honeypot answers with its full advertised list).
    packet = to_server ? proto::encode(proto::SearchRequest{std::string(
                             200, 'a' + static_cast<char>(rng.below(26)))})
                       : proto::encode(proto::AskSharedFiles{});
  } else {
    // A maximal file list: every entry a fresh fake hash and name, written
    // over the previous list's entries so their storage is reused.
    auto& files = oversize_files_;
    files.resize(kOversizeEntries);
    for (auto& f : files) {
      const std::uint64_t lo = rng();
      f.file = FileId::from_words(lo, rng());
      f.client_id = 0;
      f.port = 4662;
      char name[16] = "spam-";  // up to 7 digits and ".avi"
      char* end = std::to_chars(name + 5, name + 12, rng.below(1u << 20)).ptr;
      std::memcpy(end, ".avi", 4);
      f.name.assign(name, static_cast<std::size_t>(end + 4 - name));
      f.size = static_cast<std::uint32_t>(rng.below(700u << 20));
    }
    if (to_server) {
      proto::OfferFiles offer{std::move(files)};
      packet = proto::encode(offer);
      files = std::move(offer.files);
    } else {
      proto::AskSharedFilesAnswer answer{std::move(files)};
      packet = proto::encode(answer);
      files = std::move(answer.files);
    }
  }
  ep->send(std::move(packet));
  ++stats_.messages_sent;
  net_.simulation().schedule_in(
      kOversizeSpacing,
      [this, ep = std::move(ep), target, remaining, rng]() mutable {
        oversize_burst(std::move(ep), target, remaining - 1, rng);
      });
}

}  // namespace edhp::fault
