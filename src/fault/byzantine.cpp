#include "fault/byzantine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace edhp::fault {
namespace {

// --- Server misbehaviors: mean window length per lie --------------------
constexpr Duration kOfferDropMean = minutes(30);
constexpr Duration kOfferTruncateMean = minutes(30);
constexpr double kOfferTruncateKeep = 0.5;  ///< fraction of each list that lands
constexpr Duration kStaleIndexMean = minutes(45);
constexpr Duration kFabricateMean = minutes(30);
constexpr Duration kCorruptSearchMean = minutes(30);

// --- Peer misbehaviors ---------------------------------------------------
constexpr std::size_t kForgeListFiles = 4;    ///< claimed entries per forged list
constexpr std::size_t kReplayHelloCount = 3;  ///< HELLOs per replay burst
constexpr std::size_t kLiarsPerClass = 4;     ///< liar node pool per peer behavior

/// Spacing of the messages inside one liar contact.
constexpr Duration kForgeListDelay = 2.0;
constexpr Duration kLiarLinger = 5.0;
constexpr Duration kReplaySpacing = 0.5;

/// A plausible 2008 client name for a liar peer.
std::string liar_name(std::uint32_t subject) {
  return "emule-" + std::to_string(subject);
}

}  // namespace

ByzantinePlan make_plan(const ByzantineConfig& config, std::size_t honeypots,
                        std::size_t servers, Duration horizon, Rng rng) {
  if (!config.enabled || !drawable_horizon(horizon)) return {};
  std::vector<ByzantineEvent> out;

  // Each (behavior, subject) pair owns a split stream (registry:
  // fault/rng_splits.hpp), so tuning one lie never reshuffles another.
  struct Window {
    std::uint64_t split;
    ByzantineKind begin, end;
    Duration mtbf, mean;
    double magnitude;
  };
  const Window windows[] = {
      {splits::kByzOfferDrop, ByzantineKind::offer_drop_begin,
       ByzantineKind::offer_drop_end, config.offer_drop_mtbf,
       kOfferDropMean, 1.0},
      {splits::kByzOfferTruncate, ByzantineKind::offer_truncate_begin,
       ByzantineKind::offer_truncate_end, config.offer_truncate_mtbf,
       kOfferTruncateMean, kOfferTruncateKeep},
      {splits::kByzStaleIndex, ByzantineKind::stale_index_begin,
       ByzantineKind::stale_index_end, config.stale_index_mtbf,
       kStaleIndexMean, 1.0},
      {splits::kByzFabricateSources, ByzantineKind::fabricate_sources_begin,
       ByzantineKind::fabricate_sources_end, config.fabricate_mtbf,
       kFabricateMean, 1.0},
      {splits::kByzCorruptSearch, ByzantineKind::corrupt_search_begin,
       ByzantineKind::corrupt_search_end, config.corrupt_search_mtbf,
       kCorruptSearchMean, 1.0},
  };
  for (const auto& w : windows) {
    per_subject(rng.split(w.split), servers, [&](Rng& r, std::uint32_t s) {
      renewal_windows(out, r, w.mtbf, w.mean, horizon, w.begin, w.end, s,
                      w.magnitude);
    });
  }
  per_subject(rng.split(splits::kByzForgeList), honeypots,
              [&](Rng& r, std::uint32_t h) {
                arrivals(out, r, config.forge_list_mtba, horizon,
                         ByzantineKind::forge_shared_list, h);
              });
  per_subject(rng.split(splits::kByzReplayHello), honeypots,
              [&](Rng& r, std::uint32_t h) {
                arrivals(out, r, config.replay_hello_mtba, horizon,
                         ByzantineKind::replay_hello, h);
              });
  return ByzantinePlan(std::move(out));
}

ByzantineInjector::ByzantineInjector(net::Network& network, ByzantinePlan plan,
                                     ByzantineConfig config, Bindings bindings,
                                     Rng rng)
    : net_(network),
      plan_(std::move(plan)),
      config_(config),
      bind_(std::move(bindings)),
      rng_(rng) {
  if (!plan_.empty() && bind_.honeypot_count > 0 && !bind_.honeypot_node) {
    throw std::invalid_argument(
        "fault::ByzantineInjector: honeypot_node binding required");
  }
}

void ByzantineInjector::arm() {
  if (plan_.empty()) return;
  liars_ = HostilePool(net_, 2, kLiarsPerClass);
  arm_plan(net_.simulation(), plan_, [this](std::size_t i) { apply(i); });
}

void ByzantineInjector::apply(std::size_t index) {
  const ByzantineEvent& event = plan_.events()[index];
  const auto subject = static_cast<std::size_t>(event.subject);
  switch (event.kind) {
    case ByzantineKind::offer_drop_begin: {
      if (bind_.drop_offers) bind_.drop_offers(subject, true);
      ++stats_.offer_drop_episodes;
      break;
    }
    case ByzantineKind::offer_drop_end: {
      if (bind_.drop_offers) bind_.drop_offers(subject, false);
      break;
    }
    case ByzantineKind::offer_truncate_begin: {
      if (bind_.truncate_offers) {
        bind_.truncate_offers(subject, true, event.magnitude);
      }
      ++stats_.offer_truncate_episodes;
      break;
    }
    case ByzantineKind::offer_truncate_end: {
      if (bind_.truncate_offers) bind_.truncate_offers(subject, false, 1.0);
      break;
    }
    case ByzantineKind::stale_index_begin: {
      if (bind_.stale_index) bind_.stale_index(subject, true);
      ++stats_.stale_index_episodes;
      break;
    }
    case ByzantineKind::stale_index_end: {
      if (bind_.stale_index) bind_.stale_index(subject, false);
      break;
    }
    case ByzantineKind::fabricate_sources_begin: {
      if (bind_.fabricate_sources) {
        // Per-window forged-identity stream, derived by event index: the
        // seed cannot change when another behavior's schedule is tuned.
        Rng seed_rng = rng_.split(index).split(0);
        bind_.fabricate_sources(subject, true, config_.fabricate_count,
                                seed_rng());
      }
      ++stats_.fabricate_episodes;
      break;
    }
    case ByzantineKind::fabricate_sources_end: {
      if (bind_.fabricate_sources) {
        bind_.fabricate_sources(subject, false, 0, 0);
      }
      break;
    }
    case ByzantineKind::corrupt_search_begin: {
      if (bind_.corrupt_search) {
        Rng seed_rng = rng_.split(index).split(1);
        bind_.corrupt_search(subject, true, seed_rng());
      }
      ++stats_.corrupt_search_episodes;
      break;
    }
    case ByzantineKind::corrupt_search_end: {
      if (bind_.corrupt_search) bind_.corrupt_search(subject, false, 0);
      break;
    }
    case ByzantineKind::forge_shared_list: {
      forge_episode(index, event.subject);
      break;
    }
    case ByzantineKind::replay_hello: {
      replay_episode(index, event.subject);
      break;
    }
  }
}

void ByzantineInjector::forge_episode(std::size_t index,
                                      std::uint32_t subject) {
  const net::NodeId liar = liars_.node(0, subject);
  const net::NodeId victim = bind_.honeypot_node(subject);
  dial(net_, liar, victim, stats_, [this, index, subject](net::EndpointPtr ep) {
    // Plausible, episode-distinct identity; the low word marks liar records
    // for the tests only (defenses never inspect it).
    const UserId user = UserId::from_words(
        kByzantineUserWord, (1ull << 48) | static_cast<std::uint64_t>(index));
    ep->send(handshake(false, user, liar_name(subject)));
    ++stats_.messages_sent;
    // Volunteer the forged list shortly after the handshake — claiming the
    // honeypot's own advertised hashes back at it.
    std::vector<proto::PublishedFile> files =
        bind_.advertised_files ? bind_.advertised_files(subject)
                               : std::vector<proto::PublishedFile>{};
    if (files.size() > kForgeListFiles) {
      files.resize(kForgeListFiles);
    }
    net_.simulation().schedule_in(
        kForgeListDelay, [this, ep, files = std::move(files)]() mutable {
          if (!ep->open()) return;
          ep->send(proto::encode(proto::AskSharedFilesAnswer{std::move(files)}));
          ++stats_.messages_sent;
          ++stats_.forged_lists_sent;
          net_.simulation().schedule_in(kLiarLinger, [ep] { ep->close(); });
        });
  });
}

void ByzantineInjector::replay_episode(std::size_t index,
                                       std::uint32_t subject) {
  const net::NodeId liar = liars_.node(1, subject);
  const net::NodeId victim = bind_.honeypot_node(subject);
  dial(net_, liar, victim, stats_, [this, index](net::EndpointPtr ep) {
    replay_step(std::move(ep), static_cast<std::uint64_t>(index), 0);
  });
}

void ByzantineInjector::replay_step(net::EndpointPtr ep, std::uint64_t episode,
                                    std::size_t sent) {
  if (sent >= kReplayHelloCount || !ep->open()) {
    ep->close();
    return;
  }
  // One connection, a fresh user hash per HELLO: the replayer's whole point.
  // Records truncate the hash to its low word, so the rotation lives in the
  // low word's top 4 bits — the honeypot must see the hash *change*.
  const UserId user = UserId::from_words(
      kByzantineUserWord | (static_cast<std::uint64_t>(sent & 0xF) << 60),
      (2ull << 48) | (episode << 8) | static_cast<std::uint64_t>(sent));
  ep->send(handshake(false, user,
                     liar_name(static_cast<std::uint32_t>(episode))));
  ++stats_.messages_sent;
  ++stats_.replayed_hellos_sent;
  net_.simulation().schedule_in(
      kReplaySpacing, [this, ep = std::move(ep), episode, sent]() mutable {
        replay_step(std::move(ep), episode, sent + 1);
      });
}

}  // namespace edhp::fault
