// Byzantine infrastructure: plan generation, server lie windows, honeypot
// detection (self-probes, forged lists, replayed HELLOs), manager health
// scoring + quarantine, journal replay of the integrity entry types, and the
// campaign-level zero-leak / retention acceptance bar.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "campaign_goldens.hpp"
#include "fault/byzantine.hpp"
#include "honeypot/manager.hpp"
#include "logbook/journal.hpp"
#include "scenario/scenario.hpp"
#include "server/server.hpp"

namespace edhp {
namespace {

using fault::ByzantineConfig;
using fault::ByzantineEvent;
using fault::ByzantineKind;
using fault::ByzantinePlan;

// --- ByzantinePlan ----------------------------------------------------------

ByzantineConfig all_behaviors() {
  ByzantineConfig config;
  config.enabled = true;
  config.offer_drop_mtbf = days(2);
  config.offer_truncate_mtbf = days(2);
  config.stale_index_mtbf = days(2);
  config.fabricate_mtbf = days(2);
  config.corrupt_search_mtbf = days(2);
  config.forge_list_mtba = hours(6);
  config.replay_hello_mtba = hours(6);
  return config;
}

TEST(ByzantinePlan, DeterministicInConfigAndSeed) {
  const auto config = all_behaviors();
  const auto a = fault::make_plan(config, 8, 2, days(8), Rng(7));
  const auto b = fault::make_plan(config, 8, 2, days(8), Rng(7));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.events(), b.events());

  const auto c = fault::make_plan(config, 8, 2, days(8), Rng(8));
  EXPECT_NE(a.events(), c.events());
}

TEST(ByzantinePlan, DisabledConfigYieldsEmptyPlan) {
  ByzantineConfig config;  // enabled = false
  EXPECT_TRUE(fault::make_plan(config, 24, 3, days(32), Rng(1)).empty());
}

TEST(ByzantinePlan, EventsSortedWithSubjectsInRange) {
  const auto plan =
      fault::make_plan(all_behaviors(), 6, 3, days(16), Rng(5));
  ASSERT_GT(plan.size(), 20u);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan.events()[i - 1].at, plan.events()[i].at);
  }
  for (const auto& e : plan.events()) {
    EXPECT_GE(e.at, 0.0);
    EXPECT_LT(e.at, days(16));
    const bool peer_behavior = e.kind == ByzantineKind::forge_shared_list ||
                               e.kind == ByzantineKind::replay_hello;
    EXPECT_LT(e.subject, peer_behavior ? 6u : 3u);
  }
}

TEST(ByzantinePlan, AddingOneBehaviorDoesNotShiftAnother) {
  ByzantineConfig drops_only;
  drops_only.enabled = true;
  drops_only.offer_drop_mtbf = days(2);

  ByzantineConfig everything = all_behaviors();

  const auto filter_drops = [](const ByzantinePlan& plan) {
    std::vector<ByzantineEvent> out;
    for (const auto& e : plan.events()) {
      if (e.kind == ByzantineKind::offer_drop_begin ||
          e.kind == ByzantineKind::offer_drop_end) {
        out.push_back(e);
      }
    }
    return out;
  };
  const auto a =
      filter_drops(fault::make_plan(drops_only, 8, 2, days(8), Rng(3)));
  const auto b =
      filter_drops(fault::make_plan(everything, 8, 2, days(8), Rng(3)));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace edhp

// --- Server lie windows ------------------------------------------------------

namespace edhp::server {
namespace {

using proto::AnyMessage;
using proto::Channel;

class ByzantineServerTest : public ::testing::Test {
 protected:
  sim::Simulation s{7};
  net::Network net{s};
  net::NodeId server_node = net.add_node(true);
  Server server{net, server_node, {}};

  struct Client {
    net::EndpointPtr ep;
    std::vector<AnyMessage> inbox;
    std::uint32_t client_id = 0;
  };

  Client login(net::NodeId node, std::uint64_t user_seed = 1) {
    Client c;
    net.connect(node, server_node, [&](net::EndpointPtr ep) {
      c.ep = std::move(ep);
      ASSERT_TRUE(c.ep);
      c.ep->on_message([&](net::Bytes p) {
        auto msg = proto::decode(Channel::client_server, p);
        if (const auto* id = std::get_if<proto::IdChange>(&msg)) {
          c.client_id = id->client_id;
        }
        c.inbox.push_back(std::move(msg));
      });
      proto::LoginRequest login_msg;
      login_msg.user = UserId::from_words(user_seed, user_seed);
      login_msg.port = 4662;
      login_msg.tags = {proto::Tag::string_tag(proto::kTagName, "test-client")};
      c.ep->send(proto::encode(AnyMessage{login_msg}));
    });
    s.run();
    return c;
  }

  static proto::PublishedFile pub(std::uint64_t n, const std::string& name) {
    proto::PublishedFile f;
    f.file = FileId::from_words(n, n);
    f.name = name;
    f.size = 100;
    return f;
  }

  void SetUp() override { server.start(); }
};

TEST_F(ByzantineServerTest, DropOffersWindowIgnoresListsAndAuditsClean) {
  auto provider = login(net.add_node(true), 1);
  server.set_drop_offers(true);
  provider.ep->send(
      proto::encode(AnyMessage{proto::OfferFiles{{pub(5, "a.avi")}}}));
  s.run();
  EXPECT_EQ(server.index().file_count(), 0u);
  EXPECT_GT(server.counters().byz_offers_dropped, 0u);
  EXPECT_EQ(server.index_audit(), 0u);  // the lie never corrupts the index

  server.set_drop_offers(false);
  provider.ep->send(
      proto::encode(AnyMessage{proto::OfferFiles{{pub(5, "a.avi")}}}));
  s.run();
  EXPECT_EQ(server.index().file_count(), 1u);
}

TEST_F(ByzantineServerTest, TruncateOffersKeepsOnlyPrefix) {
  auto provider = login(net.add_node(true), 1);
  server.set_truncate_offers(true, 0.5);
  provider.ep->send(proto::encode(AnyMessage{proto::OfferFiles{
      {pub(1, "a.avi"), pub(2, "b.avi"), pub(3, "c.avi"), pub(4, "d.avi")}}}));
  s.run();
  EXPECT_EQ(server.index().file_count(), 2u);
  EXPECT_GT(server.counters().byz_offers_truncated, 0u);
  EXPECT_EQ(server.index_audit(), 0u);
}

TEST_F(ByzantineServerTest, StaleIndexDefersOffersUntilWindowEnds) {
  auto provider = login(net.add_node(true), 1);
  server.set_stale_index(true);
  provider.ep->send(
      proto::encode(AnyMessage{proto::OfferFiles{{pub(9, "late.avi")}}}));
  s.run();
  EXPECT_EQ(server.index().file_count(), 0u);  // deferred, not indexed
  EXPECT_GT(server.counters().byz_offers_deferred, 0u);

  server.set_stale_index(false);  // window ends: deferred offers land
  s.run();
  EXPECT_EQ(server.index().file_count(), 1u);
  EXPECT_GT(server.counters().byz_offers_late_indexed, 0u);
  EXPECT_EQ(server.index_audit(), 0u);
}

TEST_F(ByzantineServerTest, FabricatedSourcesPadRepliesOnlyDuringWindow) {
  auto provider = login(net.add_node(true), 1);
  provider.ep->send(
      proto::encode(AnyMessage{proto::OfferFiles{{pub(5, "real.avi")}}}));
  s.run();

  auto seeker = login(net.add_node(true), 2);
  const auto ask = [&] {
    seeker.inbox.clear();
    seeker.ep->send(
        proto::encode(AnyMessage{proto::GetSources{FileId::from_words(5, 5)}}));
    s.run();
    for (const auto& m : seeker.inbox) {
      if (const auto* found = std::get_if<proto::FoundSources>(&m)) {
        return found->sources;
      }
    }
    return std::vector<proto::SourceEntry>{};
  };

  const auto honest = ask();
  ASSERT_EQ(honest.size(), 1u);

  server.set_fabricate_sources(true, 3, 42);
  const auto lied = ask();
  EXPECT_EQ(lied.size(), 4u);  // 1 real + 3 forged
  std::size_t forged = 0;
  for (const auto& src : lied) {
    if ((src.client_id & 0x80000000u) != 0 &&
        src.client_id != honest[0].client_id) {
      ++forged;
    }
  }
  EXPECT_EQ(forged, 3u);  // forged entries are nonexistent HighID peers
  EXPECT_GT(server.counters().byz_sources_fabricated, 0u);
  EXPECT_EQ(server.index_audit(), 0u);  // forgeries never enter the index

  // Even a file nobody offered gains sources — the canary the honeypot
  // self-probe exploits.
  seeker.inbox.clear();
  seeker.ep->send(proto::encode(
      AnyMessage{proto::GetSources{FileId::from_words(0xDEAD, 0xBEEF)}}));
  s.run();
  bool canary_bitten = false;
  for (const auto& m : seeker.inbox) {
    if (const auto* found = std::get_if<proto::FoundSources>(&m)) {
      canary_bitten = !found->sources.empty();
    }
  }
  EXPECT_TRUE(canary_bitten);

  server.set_fabricate_sources(false, 0, 0);
  EXPECT_EQ(ask().size(), 1u);
}

TEST_F(ByzantineServerTest, CorruptSearchGarblesFileIdsOnlyDuringWindow) {
  auto provider = login(net.add_node(true), 1);
  provider.ep->send(
      proto::encode(AnyMessage{proto::OfferFiles{{pub(5, "target.avi")}}}));
  s.run();

  auto seeker = login(net.add_node(true), 2);
  const auto search = [&] {
    seeker.inbox.clear();
    seeker.ep->send(
        proto::encode(AnyMessage{proto::SearchRequest{"target.avi"}}));
    s.run();
    for (const auto& m : seeker.inbox) {
      if (const auto* result = std::get_if<proto::SearchResult>(&m)) {
        return result->files;
      }
    }
    return std::vector<proto::PublishedFile>{};
  };

  const auto honest = search();
  ASSERT_EQ(honest.size(), 1u);
  EXPECT_EQ(honest[0].file, FileId::from_words(5, 5));

  server.set_corrupt_search(true, 77);
  const auto lied = search();
  ASSERT_EQ(lied.size(), 1u);
  EXPECT_NE(lied[0].file, FileId::from_words(5, 5));
  EXPECT_GT(server.counters().byz_searches_corrupted, 0u);
  EXPECT_EQ(server.index_audit(), 0u);

  server.set_corrupt_search(false, 0);
  const auto again = search();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].file, FileId::from_words(5, 5));
}

}  // namespace
}  // namespace edhp::server

// --- Honeypot defenses + manager quarantine ---------------------------------

namespace edhp::honeypot {
namespace {

net::LinkModel lossless() {
  net::LinkModel m;
  m.datagram_loss = 0.0;
  return m;
}

/// Latency factors for a honeypot's host that put its server round trip
/// just past the 2 minute probe timeout (2-3 min) or just inside it
/// (1-2 min) at this fixture's seed; each test asserts its window.
constexpr double kLateFactor = 2800.0;
constexpr double kSlowFactor = 1700.0;

class ByzantineDefenseTest : public ::testing::Test {
 protected:
  void settle(double span = 180.0) { s.run_until(s.now() + span); }

  HoneypotConfig defended_config(const std::string& name) {
    HoneypotConfig c;
    c.name = name;
    c.strategy = ContentStrategy::no_content;
    c.integrity_defense = true;
    c.self_probes = true;
    return c;
  }

  std::vector<AdvertisedFile> bait() {
    return {AdvertisedFile{FileId::from_words(0xA, 0xA), "bait-a.avi", 1000},
            AdvertisedFile{FileId::from_words(0xB, 0xB), "bait-b.avi", 2000}};
  }

  /// Run in one-second steps until `hp` has logged in (for at most an
  /// hour); the time that took: two round trips to the server, the
  /// transport handshake and then LOGIN / ID-CHANGE.
  Duration login_time(const Honeypot& hp) {
    const Time from = s.now();
    while (hp.status() != Status::connected && s.now() < from + hours(1)) {
      settle(1.0);
    }
    return s.now() - from;
  }

  /// Run in one-minute steps until the manager benches the server named
  /// `name`, for at most `limit`; true when it did.
  bool settle_until_quarantined(const Manager& m, const std::string& name,
                                Duration limit) {
    const Time until = s.now() + limit;
    while (!m.server_quarantined(name) && s.now() < until) settle(60.0);
    return m.server_quarantined(name);
  }

  /// Connect a liar node to the honeypot and run `send` once the endpoint
  /// is up; the endpoint is kept alive for the test's duration.
  void drive_peer(Honeypot& hp,
                  std::function<void(net::Endpoint&)> send) {
    const auto node = net.add_node(false);
    net.connect(node, hp.node(), [this, send](net::EndpointPtr ep) {
      if (!ep) return;
      send(*ep);
      keep_.push_back(std::move(ep));
    });
    settle();
  }

  static proto::Hello hello_from(std::uint64_t lo, std::uint64_t hi) {
    proto::Hello h;
    h.user = UserId::from_words(lo, hi);
    h.client_id = 0x01020304;
    h.port = 4662;
    return h;
  }

  sim::Simulation s{31};
  net::Network net{s, lossless()};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  ServerRef ref{server_node, "srv", 4661};
  net::NodeId backup_node = net.add_node(true);
  server::Server backup{net, backup_node, {}};
  ServerRef backup_ref{backup_node, "honest-backup", 4661};
  std::shared_ptr<logbook::Journal> journal =
      std::make_shared<logbook::Journal>();
  std::vector<net::EndpointPtr> keep_;

  void SetUp() override {
    server.start();
    backup.start();
  }
};

TEST_F(ByzantineDefenseTest, SelfProbesConfirmAgainstHonestServer) {
  ManagerConfig mc;
  mc.journal = journal;
  Manager m(net, mc);
  const auto idx = m.launch(defended_config("hp-probe"), net.add_node(true), ref);
  m.start();
  settle();
  m.advertise(idx, bait());
  settle(hours(2));

  const auto stats = m.integrity_stats();
  // One probe every 10 minutes from the login, a fraction of a second in.
  EXPECT_EQ(stats.probes_sent, 12u);
  EXPECT_EQ(stats.probes_missed, 0u);
  EXPECT_GE(stats.probes_confirmed + 1, stats.probes_sent);  // last may pend
  EXPECT_EQ(stats.fabricated_sources_detected, 0u);
  EXPECT_EQ(m.server_health("srv"), 0.0);
  m.stop();

  // Every verdict was journaled for the post-campaign audit.
  std::uint64_t verdicts = 0;
  for (const auto& e : journal->scan().entries) {
    if (e.type ==
        static_cast<std::uint8_t>(logbook::JournalEntryType::probe_verdict)) {
      ++verdicts;
    }
  }
  EXPECT_EQ(verdicts, stats.probes_confirmed + stats.probes_missed);
}

TEST_F(ByzantineDefenseTest, ProbeTimeoutScoresOneMissAndIgnoresLateReplies) {
  // A server session whose round trip exceeds the 2 minute probe timeout:
  // every probe times out before its reply can land, so it scores exactly
  // one miss, and the honest reply that arrives afterwards scores nothing:
  // no confirm, no fabrication, no change to the advertised list.
  ManagerConfig mc;
  mc.journal = journal;
  Manager m(net, mc);
  const auto host = net.add_node(true);
  net.set_latency_factor(host, kLateFactor);  // before the session exists
  const auto idx = m.launch(defended_config("hp-late"), host, ref);
  const Duration rtt = login_time(m.honeypot(idx)) / 2;
  ASSERT_GT(rtt, minutes(2));
  ASSERT_LT(rtt, minutes(3));
  m.start();
  m.advertise(idx, bait());
  settle(hours(3) + minutes(5));  // ends between two probes' timeouts

  const auto stats = m.integrity_stats();
  EXPECT_GT(stats.probes_sent, 10u);
  EXPECT_EQ(stats.probes_missed, stats.probes_sent);
  EXPECT_EQ(stats.probes_confirmed, 0u);
  EXPECT_EQ(stats.fabricated_sources_detected, 0u);
  const auto& hp = m.honeypot(idx);
  EXPECT_EQ(hp.advertised().size(), bait().size());
  m.stop();

  // One journaled verdict per probe, every one a miss.
  std::uint64_t verdicts = 0;
  for (const auto& e : journal->scan().entries) {
    if (e.type !=
        static_cast<std::uint8_t>(logbook::JournalEntryType::probe_verdict)) {
      continue;
    }
    ++verdicts;
    EXPECT_FALSE(journal::decode<journal::ProbeVerdict>(e.payload).confirmed);
  }
  EXPECT_EQ(verdicts, stats.probes_sent);
}

TEST_F(ByzantineDefenseTest, SlowReplyInsideProbeTimeoutConfirms) {
  // The mirror case: a round trip between 1 and 2 minutes still beats the
  // probe timeout, so every probe is confirmed.
  ManagerConfig mc;
  mc.journal = journal;
  Manager m(net, mc);
  const auto host = net.add_node(true);
  net.set_latency_factor(host, kSlowFactor);
  const auto idx = m.launch(defended_config("hp-slow"), host, ref);
  const Duration rtt = login_time(m.honeypot(idx)) / 2;
  ASSERT_GT(rtt, minutes(1));
  ASSERT_LT(rtt, minutes(2));
  m.start();
  m.advertise(idx, bait());
  settle(hours(3));

  const auto stats = m.integrity_stats();
  EXPECT_GT(stats.probes_sent, 10u);
  EXPECT_EQ(stats.probes_missed, 0u);
  EXPECT_GE(stats.probes_confirmed + 1, stats.probes_sent);  // last may pend
  EXPECT_EQ(m.server_health("srv"), 0.0);
  m.stop();
}

TEST_F(ByzantineDefenseTest, CanaryProbeCatchesFabricatedSources) {
  ManagerConfig mc;
  mc.journal = journal;
  Manager m(net, mc);
  const auto idx = m.launch(defended_config("hp-canary"), net.add_node(true), ref);
  m.start();
  settle();
  m.advertise(idx, bait());
  server.set_fabricate_sources(true, 3, 99);
  settle(hours(2));

  const auto stats = m.integrity_stats();
  EXPECT_GT(stats.fabricated_sources_detected, 0u);
  EXPECT_GT(stats.probes_missed, 0u);
  EXPECT_GT(m.server_health("srv"), 0.0);  // misses outrun confirm decay
  m.stop();
}

TEST_F(ByzantineDefenseTest, ForgedSharedListRejectedAndExcludedFromMerge) {
  Manager m(net, {});
  const auto idx = m.launch(defended_config("hp-forge"), net.add_node(true), ref);
  m.start();
  settle();
  m.advertise(idx, bait());
  settle();

  Honeypot& hp = m.honeypot(idx);
  drive_peer(hp, [&](net::Endpoint& ep) {
    ep.send(proto::encode(proto::AnyMessage{hello_from(0xF0, 0xF1)}));
    // Volunteer a shared list claiming the honeypot's own bait hashes.
    proto::AskSharedFilesAnswer answer;
    for (const auto& f : bait()) {
      proto::PublishedFile pf;
      pf.file = f.id;
      pf.name = f.name;
      pf.size = f.size;
      pf.port = 4662;
      answer.files.push_back(std::move(pf));
    }
    ep.send(proto::encode(proto::AnyMessage{std::move(answer)}));
  });

  EXPECT_EQ(hp.integrity_stats().forged_lists_rejected, 1u);
  // The forged files were NOT adopted into the observed/advertised state.
  EXPECT_EQ(hp.advertised().size(), bait().size());
  // The connection's HELLO record was retro-tainted and the merge drops it.
  EXPECT_GT(hp.integrity_stats().records_quarantined, 0u);
  std::uint64_t distinct = 0;
  const auto merged = m.merged_anonymized(&distinct);
  for (const auto& rec : merged.records) {
    EXPECT_FALSE(rec.tainted());
  }
  EXPECT_EQ(m.integrity_stats().records_excluded,
            m.integrity_stats().records_quarantined);
  m.stop();
}

TEST_F(ByzantineDefenseTest, ReplayedHelloRejectedWithoutAnswer) {
  Manager m(net, {});
  const auto idx = m.launch(defended_config("hp-replay"), net.add_node(true), ref);
  m.start();
  settle();

  Honeypot& hp = m.honeypot(idx);
  drive_peer(hp, [&](net::Endpoint& ep) {
    ep.send(proto::encode(proto::AnyMessage{hello_from(0xAA, 1)}));
    ep.send(proto::encode(proto::AnyMessage{hello_from(0xBB, 2)}));
    ep.send(proto::encode(proto::AnyMessage{hello_from(0xCC, 3)}));
  });

  EXPECT_EQ(hp.integrity_stats().replayed_hellos_rejected, 2u);
  // All three HELLO records (the first retroactively) carry provenance.
  EXPECT_EQ(hp.integrity_stats().records_quarantined, 3u);
  std::uint64_t distinct = 0;
  const auto merged = m.merged_anonymized(&distinct);
  EXPECT_TRUE(merged.records.empty());
  EXPECT_EQ(m.integrity_stats().records_excluded, 3u);
  m.stop();
}

TEST_F(ByzantineDefenseTest, LyingServerQuarantinedThenReinstated) {
  ManagerConfig mc;
  mc.journal = journal;
  mc.quarantine_threshold = 2.0;
  Manager m(net, mc);
  m.set_backup_servers({backup_ref});
  const auto idx = m.launch(defended_config("hp-q"), net.add_node(true), ref);
  m.start();
  settle();
  m.advertise(idx, bait());
  server.set_fabricate_sources(true, 3, 7);  // lies, permanently
  // Canary misses outrun the confirmed searches' decay within the hour.
  EXPECT_TRUE(settle_until_quarantined(m, "srv", hours(1)));
  auto stats = m.integrity_stats();
  EXPECT_GE(stats.servers_quarantined, 1u);
  // The displaced honeypot now measures from the honest backup.
  EXPECT_EQ(m.server_of(idx).name, "honest-backup");

  std::uint64_t quarantine_frames = 0;
  for (const auto& e : journal->scan().entries) {
    if (e.type == static_cast<std::uint8_t>(
                      logbook::JournalEntryType::server_quarantine)) {
      ++quarantine_frames;
    }
  }
  EXPECT_GE(quarantine_frames, 1u);

  // Cooloff served: the slot moves back to its planned server (which will
  // promptly earn another quarantine, since it still lies).
  settle(hours(2));
  stats = m.integrity_stats();
  EXPECT_GE(stats.servers_reinstated, 1u);
  std::uint64_t reinstate_frames = 0;
  for (const auto& e : journal->scan().entries) {
    if (e.type == static_cast<std::uint8_t>(
                      logbook::JournalEntryType::server_reinstate)) {
      ++reinstate_frames;
    }
  }
  EXPECT_GE(reinstate_frames, 1u);
  m.stop();
}

TEST_F(ByzantineDefenseTest, QuarantineStateSurvivesCrashRecover) {
  const auto backup2_node = net.add_node(true);
  server::Server backup2{net, backup2_node, {}};
  backup2.start();
  const ServerRef backup2_ref{backup2_node, "honest-backup-2", 4661};
  ManagerConfig mc;
  mc.journal = journal;
  mc.quarantine_threshold = 2.0;
  Manager m(net, mc);
  m.set_backup_servers({backup_ref, backup2_ref});
  const auto idx = m.launch(defended_config("hp-cq"), net.add_node(true), ref);
  m.start();
  settle();
  m.advertise(idx, bait());
  server.set_fabricate_sources(true, 3, 7);
  // Caught within a minute of the quarantine, so the rest of the case (26
  // minutes) runs inside its 30-minute cooloff.
  ASSERT_TRUE(settle_until_quarantined(m, "srv", hours(1)));
  const auto before = m.integrity_stats();

  const Time down_at = s.now();
  (void)m.crash();
  settle(60.0);
  m.recover(down_at);

  // Replay rebuilt the quarantine ledger without re-deciding anything.
  EXPECT_TRUE(m.server_quarantined("srv"));
  const auto after = m.integrity_stats();
  EXPECT_EQ(after.servers_quarantined, before.servers_quarantined);
  EXPECT_GT(m.server_health("srv") + 1.0, 0.0);  // health map rebuilt
  EXPECT_EQ(m.server_of(idx).name, "honest-backup");

  // The quarantine took the first backup in the rotation, so the next
  // escalation takes the second, as it would without the crash. With the
  // backup and srv both down (the cooloff's reinstate moves the slot back
  // to srv), three relaunches fail, 10 and 20 minutes apart, and the poll
  // after the third one's 40 minute backoff escalates, exactly once.
  const auto relaunched = m.recovery_stats().relaunches;
  backup.stop();
  server.stop();
  m.honeypot(idx).crash();
  settle(minutes(85));
  EXPECT_EQ(m.recovery_stats().relaunches - relaunched, 3u);
  EXPECT_EQ(m.recovery_stats().escalations, 1u);
  EXPECT_EQ(m.server_of(idx).name, "honest-backup-2");
  m.stop();
}

// Torn-tail sweep over a journal whose last intact frame is a quarantine
// entry: every prefix must scan cleanly (no exception, no garbage entry),
// and the full stream must end in the quarantine frame.
TEST_F(ByzantineDefenseTest, TornTailSweepEndingInQuarantineFrame) {
  logbook::Journal j;
  {
    ByteWriter w;
    w.u16(4);
    w.u8(0);
    w.str16("srv");
    j.append(logbook::JournalEntryType::probe_verdict, w.view());
  }
  {
    ByteWriter w;
    w.u16(4);
    w.u8(1);
    w.str16("srv");
    j.append(logbook::JournalEntryType::probe_verdict, w.view());
  }
  {
    ByteWriter w;
    w.str16("srv");
    w.u64(1);        // original ServerRef
    w.str16("srv");
    w.u16(4661);
    w.u64(0);        // reinstate deadline
    w.u32(2);
    w.u32(0);
    w.u32(1);
    j.append(logbook::JournalEntryType::server_quarantine, w.view());
  }
  const auto& bytes = j.bytes();
  const auto full = logbook::scan_journal(bytes);
  ASSERT_EQ(full.entries.size(), 3u);
  EXPECT_FALSE(full.torn_tail);
  EXPECT_EQ(full.entries.back().type,
            static_cast<std::uint8_t>(
                logbook::JournalEntryType::server_quarantine));

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto scan = logbook::scan_journal({bytes.data(), cut});
    // A prefix either ends exactly on a frame boundary or reports a torn
    // tail; quarantined (checksum-failed) frames never appear from clean
    // truncation.
    EXPECT_TRUE(scan.quarantined.empty()) << "cut at " << cut;
    EXPECT_LE(scan.entries.size(), 3u);
    if (!scan.torn_tail) {
      std::size_t consumed = 0;
      for (const auto& e : scan.entries) {
        consumed = e.offset;  // offsets are monotone frame starts
      }
      EXPECT_LE(consumed, cut);
    }
  }
}

}  // namespace
}  // namespace edhp::honeypot

// --- Campaign-level acceptance ----------------------------------------------

namespace edhp::scenario {
namespace {

DistributedConfig mini_byzantine_config() {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 2;
  config.honeypots = 4;
  config.with_top_peer = false;
  config.host_mtbf = 0;
  auto& b = config.chaos.byzantine;
  b.enabled = true;
  b.offer_drop_mtbf = hours(12);
  b.offer_truncate_mtbf = hours(12);
  b.stale_index_mtbf = hours(12);
  b.fabricate_mtbf = hours(12);
  b.corrupt_search_mtbf = hours(12);
  b.forge_list_mtba = hours(3);
  b.replay_hello_mtba = hours(3);
  return config;
}

TEST(ByzantineScenario, MiniRunExercisesEveryMisbehaviorAndDefense) {
  const auto r = run_distributed(mini_byzantine_config());

  EXPECT_GT(r.byzantine.offer_drop_episodes, 0u);
  EXPECT_GT(r.byzantine.offer_truncate_episodes, 0u);
  EXPECT_GT(r.byzantine.stale_index_episodes, 0u);
  EXPECT_GT(r.byzantine.fabricate_episodes, 0u);
  EXPECT_GT(r.byzantine.corrupt_search_episodes, 0u);
  EXPECT_GT(r.byzantine.forged_lists_sent, 0u);
  EXPECT_GT(r.byzantine.replayed_hellos_sent, 0u);

  EXPECT_GT(r.integrity.probes_sent, 0u);
  EXPECT_GT(r.integrity.forged_lists_rejected, 0u);
  EXPECT_GT(r.integrity.replayed_hellos_rejected, 0u);
  EXPECT_GT(r.integrity.records_quarantined, 0u);
  EXPECT_EQ(r.integrity.records_excluded, r.integrity.records_quarantined);
}

TEST(ByzantineScenario, DeterministicForFixedSeed) {
  const auto config = mini_byzantine_config();
  const auto a = run_distributed(config);
  const auto b = run_distributed(config);
  EXPECT_EQ(a.merged.records, b.merged.records);
  EXPECT_EQ(a.byzantine.forged_lists_sent, b.byzantine.forged_lists_sent);
  EXPECT_EQ(a.integrity.probes_sent, b.integrity.probes_sent);
  EXPECT_EQ(a.integrity.records_excluded, b.integrity.records_excluded);
}

TEST(ByzantineScenario, DisabledByzantineLeavesNoTrace) {
  DistributedConfig config;
  config.scale = 0.01;
  config.days = 2;
  config.honeypots = 4;
  config.with_top_peer = false;
  config.host_mtbf = 0;
  const auto r = run_distributed(config);
  EXPECT_EQ(r.byzantine.connections_opened + r.byzantine.messages_sent, 0u);
  EXPECT_EQ(r.integrity, honeypot::IntegrityStats{});
  for (const auto& rec : r.merged.records) {
    ASSERT_FALSE(fault::is_byzantine_user(rec.user));
    ASSERT_FALSE(rec.tainted());
  }
}

TEST(ByzantineScenario, GreedyVariantProbesWithoutBreakingHarvest) {
  GreedyConfig config;
  config.scale = 0.02;
  config.days = 3;
  auto& b = config.chaos.byzantine;
  b.enabled = true;
  b.fabricate_mtbf = hours(12);
  const auto r = run_greedy(config);
  EXPECT_GT(r.integrity.probes_sent, 0u);
  // Greedy keeps forged-list defense off by design: the harvest (adopting
  // files volunteered by contacting peers) must keep working.
  EXPECT_GT(r.advertised_files, 10u);
  EXPECT_EQ(r.integrity.forged_lists_rejected, 0u);
}

// The PR's acceptance bar, at the paper's scale parameters: servers turning
// Byzantine at MTBF 8 days plus a standing stream of forging/replaying
// peers, and the published dataset still contains zero fabricated-source or
// forged-list records, retains >= 99% of the true-peer evidence, and every
// excluded record is accounted in IntegrityStats.
//
// Retention is measured against the *undefended* run of the same attack
// (byzantine.defend = false): reply-path lies poison what the server tells
// legitimate peers, so contacts that never happened are attack damage
// upstream of the measurement — no honeypot-side defense can retain a
// record that was never generated. What the integrity layer owes the
// operator is that its own exclusions cost < 1% of the true-peer evidence
// the fleet actually logged. The raw in-window contact loss against a
// lie-free baseline is asserted separately, with a bound matching the duty
// cycle of the lie windows.
TEST(ByzantineScenario, ZeroLeakAndRetentionAtPaperScale) {
  DistributedConfig lied_to;
  lied_to.scale = 0.02;
  lied_to.days = 32;
  lied_to.honeypots = 24;
  lied_to.with_top_peer = false;
  lied_to.host_mtbf = 0;
  auto& b = lied_to.chaos.byzantine;
  b.enabled = true;
  b.offer_drop_mtbf = days(8);
  b.offer_truncate_mtbf = days(8);
  b.stale_index_mtbf = days(8);
  b.fabricate_mtbf = days(8);
  b.corrupt_search_mtbf = days(8);
  b.forge_list_mtba = hours(2);   // ~10% of contacting peers forge
  b.replay_hello_mtba = hours(4);
  // Quarantine displacement is counterproductive here: the whole peer
  // population sits on the one big server, so benching it hides every
  // honeypot from discovery for the cooloff. Containment via exclusion
  // (provenance) is the right tool at this topology; quarantine is
  // exercised by the dedicated manager/recovery tests.
  b.quarantine_threshold = 0;

  DistributedConfig undefended_cfg = lied_to;
  undefended_cfg.chaos.byzantine.defend = false;
  DistributedConfig clean = lied_to;
  clean.chaos.byzantine.enabled = false;

  const auto byz = run_distributed(lied_to);
  const auto undefended = run_distributed(undefended_cfg);
  const auto baseline = run_distributed(clean);
  ASSERT_GT(baseline.merged.records.size(), 1000u);

  // The liars were genuinely active...
  EXPECT_GT(byz.byzantine.fabricate_episodes, 0u);
  EXPECT_GT(byz.byzantine.forged_lists_sent, 100u);
  EXPECT_GT(byz.byzantine.replayed_hellos_sent, 100u);
  // ...and the defenses genuinely engaged.
  EXPECT_GT(byz.integrity.probes_sent, 1000u);
  EXPECT_GT(byz.integrity.forged_lists_rejected, 0u);
  EXPECT_GT(byz.integrity.replayed_hellos_rejected, 0u);

  // Undefended, the same attack pollutes the published log — the defense
  // is load-bearing, not decorative.
  std::size_t leaked = 0;
  for (const auto& rec : undefended.merged.records) {
    if (fault::is_byzantine_user(rec.user)) ++leaked;
  }
  ASSERT_GT(leaked, 100u);
  EXPECT_EQ(undefended.integrity.records_excluded, 0u);

  // Zero leak: no liar identity and no tainted record in the published log.
  for (const auto& rec : byz.merged.records) {
    ASSERT_FALSE(fault::is_byzantine_user(rec.user));
    ASSERT_FALSE(rec.tainted());
  }

  // Every excluded record is accounted.
  EXPECT_GT(byz.integrity.records_excluded, 0u);
  EXPECT_EQ(byz.integrity.records_excluded, byz.integrity.records_quarantined);

  // Retention: >= 99% of the true-peer evidence the fleet logged under
  // attack survives the defense's exclusions.
  const double undefended_true = static_cast<double>(
      undefended.merged.records.size() - leaked);
  const double ratio =
      static_cast<double>(byz.merged.records.size()) / undefended_true;
  EXPECT_GE(ratio, 0.99) << byz.merged.records.size() << " of "
                         << undefended_true << " true-peer records";

  // In-window contact loss vs a lie-free world stays bounded by the lie
  // duty cycle (five ~30-45 min windows per 8-day MTBF per behavior).
  const double damage = static_cast<double>(byz.merged.records.size()) /
                        static_cast<double>(baseline.merged.records.size());
  EXPECT_GE(damage, 0.97) << byz.merged.records.size() << " of "
                          << baseline.merged.records.size()
                          << " baseline records";
}

// With Byzantine off the campaigns must stay bit-identical to the golden
// fingerprints (the dormant defense layer consumes no draws). The golden
// suite in test_scenario.cpp pins all three; this pins the distributed one
// against this PR's specific code paths.
TEST(ByzantineScenario, GoldenDistributedUnchangedWithByzantineDisabled) {
  DistributedConfig config;
  config.scale = 0.02;
  config.days = 8;
  config.honeypots = 8;
  const auto r = run_distributed(config);
  EXPECT_EQ(r.merged.records.size(), 28945u);
  EXPECT_EQ(fingerprint(r.merged), 0xad6b1b6fa123723aull);
}

}  // namespace
}  // namespace edhp::scenario
