// Control-plane crash tolerance: journal replay rebuilds the manager's
// state, orphaned honeypots are re-adopted with their spools intact, and
// the watchdog keeps working through (and racing) recovery.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "audit/audit.hpp"
#include "common/bytes.hpp"
#include "honeypot/journal_entries.hpp"
#include "honeypot/manager.hpp"
#include "proto/messages.hpp"
#include "server/server.hpp"

namespace edhp::honeypot {
namespace {

/// UDP surveys and spool delivery must be deterministic here, so the link
/// model drops nothing.
net::LinkModel lossless() {
  net::LinkModel m;
  m.datagram_loss = 0.0;
  return m;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void settle(double span = 180.0) { s.run_until(s.now() + span); }

  /// Connect `n` fresh peers to the honeypot; each sends one HELLO, which
  /// appends one record to the honeypot's log.
  void feed_hellos(Honeypot& hp, int n) {
    for (int i = 0; i < n; ++i) {
      const auto peer_node = net.add_node(true);
      const auto user = static_cast<std::uint64_t>(++next_user_);
      net.connect(peer_node, hp.node(),
                  [this, peer_node, user](net::EndpointPtr ep) {
                    if (!ep) return;
                    proto::Hello hello;
                    hello.user = UserId::from_words(user, 77);
                    hello.client_id = net.info(peer_node).ip.value();
                    hello.port = 4662;
                    ep->send(proto::encode(proto::AnyMessage{hello}));
                    keep_.push_back(std::move(ep));
                  });
    }
    settle();
  }

  ManagerConfig durable_config() {
    ManagerConfig mc;
    mc.journal = journal;
    mc.spool_store = store;
    mc.spool.enabled = true;
    mc.spool.period = minutes(5);
    return mc;
  }

  std::size_t launch_one(Manager& m, const ServerRef& where) {
    HoneypotConfig c;
    c.name = "hp-" + std::to_string(m.fleet_size());
    c.strategy = ContentStrategy::no_content;
    return m.launch(std::move(c), net.add_node(true), where);
  }

  using Frames =
      std::vector<std::pair<logbook::JournalEntryType, std::vector<std::uint8_t>>>;

  /// Cold-recover the orphan of a one-honeypot fleet (honeypot id 0) from a
  /// journal holding exactly `frames`.
  std::unique_ptr<Manager> recover_orphan_from(const Frames& frames) {
    auto first = std::make_unique<Manager>(net, durable_config());
    launch_one(*first, ref);
    settle();
    first->crash();
    auto orphans = first->take_orphans();
    first.reset();
    ManagerConfig mc = durable_config();
    mc.journal = std::make_shared<logbook::Journal>();
    for (const auto& [type, payload] : frames) {
      mc.journal->append(type, payload);
    }
    return Manager::recover(net, mc, std::move(orphans), s.now());
  }

  sim::Simulation s{97};
  net::Network net{s, lossless()};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  ServerRef ref{server_node, "srv", 4661};
  net::NodeId backup_node = net.add_node(true);
  server::Server backup{net, backup_node, {}};
  ServerRef backup_ref{backup_node, "backup", 4661};
  std::shared_ptr<logbook::Journal> journal =
      std::make_shared<logbook::Journal>();
  std::shared_ptr<logbook::SpoolStore> store =
      std::make_shared<logbook::SpoolStore>();
  std::vector<net::EndpointPtr> keep_;
  int next_user_ = 0;

  void SetUp() override {
    server.start();
    backup.start();
  }
};

TEST_F(RecoveryTest, RecoverWithoutJournalThrows) {
  Manager manager(net, {});
  EXPECT_THROW(manager.recover(), std::logic_error);
}

TEST_F(RecoveryTest, InPlaceCrashRecoverRestoresFleetAndAssignments) {
  Manager manager(net, durable_config());
  launch_one(manager, ref);
  launch_one(manager, ref);
  settle();
  manager.reassign(1, backup_ref);
  AdvertisedFile f{FileId::from_words(11, 12), "bait.avi", 1000};
  manager.advertise(0, {f});
  settle();
  manager.start();

  const auto orphaned = manager.crash();
  EXPECT_EQ(orphaned, 2u);
  EXPECT_EQ(manager.fleet_size(), 0u);

  s.run_until(s.now() + hours(1));
  manager.recover(s.now() - hours(1));

  ASSERT_EQ(manager.fleet_size(), 2u);
  EXPECT_EQ(manager.server_of(0).name, "srv");
  EXPECT_EQ(manager.server_of(1).name, "backup");
  ASSERT_EQ(manager.ordered_files(0).size(), 1u);
  EXPECT_EQ(manager.ordered_files(0)[0].id, f.id);
  const auto stats = manager.recovery_stats();
  EXPECT_EQ(stats.manager_recoveries, 1u);
  EXPECT_EQ(stats.orphans_readopted, 2u);
  EXPECT_NEAR(stats.manager_downtime, hours(1), 1.0);
  EXPECT_GT(stats.journal_replayed, 0u);
}

TEST_F(RecoveryTest, ColdStartRecoveryAdoptsOrphansFromDeadManager) {
  auto first = std::make_unique<Manager>(net, durable_config());
  launch_one(*first, ref);
  launch_one(*first, backup_ref);
  first->start();
  settle();

  first->crash();
  auto orphans = first->take_orphans();
  ASSERT_EQ(orphans.size(), 2u);
  first.reset();  // the dead process is gone for good

  auto second =
      Manager::recover(net, durable_config(), std::move(orphans), s.now());
  ASSERT_EQ(second->fleet_size(), 2u);
  EXPECT_EQ(second->server_of(1).name, "backup");
  // Polling was running at crash time, so the new incarnation resumed it:
  // a honeypot crash after recovery still gets relaunched.
  second->honeypot(0).crash();
  s.run_until(s.now() + minutes(30));
  EXPECT_EQ(second->honeypot(0).status(), Status::connected);
  EXPECT_GE(second->relaunches(), 1u);
}

TEST_F(RecoveryTest, JournalProvenChunksAreAckedWithoutResend) {
  Manager manager(net, durable_config());
  const auto index = launch_one(manager, ref);
  Honeypot* hp = &manager.honeypot(index);  // handle outlives the crash
  settle();
  ASSERT_EQ(hp->status(), Status::connected);

  feed_hellos(*hp, 3);
  hp->spool_now();
  settle(60.0);  // chunk delivered, acked, and journaled as stored
  const auto stored_before = store->chunks_accepted();
  ASSERT_GT(stored_before, 0u);
  ASSERT_EQ(hp->pending_spool(), 0u);

  manager.crash();
  // While the manager is down the honeypot keeps logging and spooling
  // locally; the cut chunks pile up with nowhere to go.
  feed_hellos(*hp, 2);
  hp->spool_now();
  ASSERT_GT(hp->pending_spool(), 0u);

  s.run_until(s.now() + hours(1));
  manager.recover(s.now() - hours(1));
  settle(hours(1));

  const auto stats = manager.recovery_stats();
  // Chunks the journal proved stored were acked directly at adoption; the
  // re-sent remainder deduped against the store instead of double-storing.
  EXPECT_EQ(store->chunks_accepted() + store->chunks_duplicate(),
            stats.chunks_accepted + stats.chunks_duplicate);
  EXPECT_EQ(stats.chunks_quarantined, 0u);
  // Nothing was lost across the outage: everything the honeypot generated
  // is either in the store or still locally spooled.
  manager.stop();
  const auto durable = manager.merged_anonymized_durable();
  const auto live = manager.merged_anonymized();
  EXPECT_EQ(durable.records, live.records);
  // The conservation ledger over the same run: every record the honeypot
  // ever stamped landed in the durable dataset — no shed, no tail loss, no
  // quarantine residue, so `born == merged` exactly.
  audit::AuditStats ledger;
  ledger.records_born = hp->records_born();
  ledger.records_merged = durable.records.size();
  ledger.records_excluded = manager.records_excluded_last_merge();
  ledger.records_quarantined = manager.records_quarantined_last_merge();
  ledger.records_lost_tail = hp->records_lost_tail();
  EXPECT_EQ(ledger.records_born, 5u);
  EXPECT_TRUE(ledger.balanced()) << ledger.breakdown();
}

TEST_F(RecoveryTest, CountersSurviveAcrossCrash) {
  Manager manager(net, durable_config());
  manager.set_backup_servers({backup_ref});
  launch_one(manager, ref);
  settle();
  manager.start();

  // Kill the primary server so the watchdog escalates to the backup.
  server.stop();
  manager.honeypot(0).crash();
  s.run_until(s.now() + hours(2));
  const auto before = manager.recovery_stats();
  ASSERT_GE(before.escalations, 1u);
  const auto relaunches_before = manager.relaunches();

  manager.crash();
  manager.recover(s.now());

  const auto after = manager.recovery_stats();
  EXPECT_EQ(after.escalations, before.escalations);
  EXPECT_EQ(after.heartbeat_escalations, before.heartbeat_escalations);
  EXPECT_EQ(after.re_advertise_repairs, before.re_advertise_repairs);
  EXPECT_EQ(manager.relaunches(), relaunches_before);
  EXPECT_EQ(manager.server_of(0).name, "backup");
}

TEST_F(RecoveryTest, WatchdogKeepsWorkingAfterRecovery) {
  Manager manager(net, durable_config());
  launch_one(manager, ref);
  settle();
  manager.start();

  manager.crash();
  s.run_until(s.now() + minutes(30));
  manager.recover(s.now() - minutes(30));

  manager.honeypot(0).crash();
  s.run_until(s.now() + minutes(30));
  EXPECT_EQ(manager.honeypot(0).status(), Status::connected);
  EXPECT_GE(manager.relaunches(), 1u);
}

// The reassign-vs-recovery races of the satellite checklist.

TEST_F(RecoveryTest, ReassignDuringRetryBackoffSurvivesCrashRecover) {
  ManagerConfig mc = durable_config();
  mc.retry = true;
  Manager manager(net, mc);
  launch_one(manager, ref);
  settle();
  manager.start();

  // Sever the session so the honeypot enters its retry backoff (its first
  // retry waits 30 s, give or take 10%)...
  server.stop();
  settle(10.0);
  // ...reassign mid-backoff, then crash before the backoff elapses.
  manager.reassign(0, backup_ref);
  manager.crash();
  s.run_until(s.now() + minutes(10));
  manager.recover(s.now() - minutes(10));
  // No hang: the recovered slot remembers the reassignment and the watchdog
  // (or the honeypot's own retry) lands it on the backup server.
  s.run_until(s.now() + hours(2));
  EXPECT_EQ(manager.server_of(0).name, "backup");
  EXPECT_EQ(manager.honeypot(0).status(), Status::connected);
  EXPECT_EQ(backup.session_count(), 1u);
}

TEST_F(RecoveryTest, CrashWithOutstandingSurveyDeliversWithoutUseAfterFree) {
  auto first = std::make_unique<Manager>(net, durable_config());
  launch_one(*first, ref);
  settle();

  // Start a survey, then destroy the manager before the probe timeout.
  bool delivered = false;
  std::size_t answers = 0;
  first->survey_servers({ref, backup_ref}, net.add_node(true), 10.0,
                        [&](auto entries) {
                          delivered = true;
                          answers = entries.size();
                        });
  first->crash();
  auto orphans = first->take_orphans();
  first.reset();

  // The survey's callbacks captured the network, not the dead manager: the
  // timeout still fires and delivers every answer.
  settle(30.0);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(answers, 2u);

  auto second =
      Manager::recover(net, durable_config(), std::move(orphans), s.now());
  EXPECT_EQ(second->fleet_size(), 1u);
  // Reassigning right after recovery neither hangs nor double-advertises.
  AdvertisedFile f{FileId::from_words(5, 6), "bait.avi", 10};
  second->advertise(0, {f});
  settle();
  second->reassign(0, backup_ref);
  settle(hours(1));
  EXPECT_EQ(second->honeypot(0).status(), Status::connected);
  EXPECT_EQ(second->honeypot(0).advertised().size(), 1u);
  EXPECT_EQ(backup.index().sources(f.id, 10).size(), 1u);
}

// A checkpoint damaged on disk must never brick a cold start: scan()
// already demotes a cut-short final frame to a torn tail and a bit-rotted
// one to quarantine, so recovery silently falls back to replaying the full
// journal. The sweep proves it for EVERY strict prefix inside the frame.
TEST_F(RecoveryTest, TruncatedCheckpointFallsBackToFullReplay) {
  Manager manager(net, durable_config());
  launch_one(manager, ref);
  launch_one(manager, ref);
  settle();
  manager.crash();
  manager.recover(s.now());  // appends `recovered` + the final checkpoint

  const auto bytes = journal->bytes();  // copy: sweep journals diverge
  const auto scan = journal->scan();
  ASSERT_FALSE(scan.entries.empty());
  const auto& last = scan.entries.back();
  ASSERT_EQ(last.type,
            static_cast<std::uint8_t>(logbook::JournalEntryType::checkpoint));

  for (std::size_t cut = last.offset + 1; cut < bytes.size(); ++cut) {
    ManagerConfig mc = durable_config();
    mc.journal = std::make_shared<logbook::Journal>(logbook::Journal::from_bytes(
        std::vector<std::uint8_t>(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut))));
    const auto prefix_scan = mc.journal->scan();
    EXPECT_TRUE(prefix_scan.torn_tail) << "cut at " << cut;
    std::unique_ptr<Manager> cold;
    ASSERT_NO_THROW(cold = Manager::recover(net, mc, {}, s.now()))
        << "cut at " << cut;
    // Full-journal fallback: every intact pre-checkpoint entry was applied
    // (launch, launch, recovered), not the snapshot that was cut short.
    EXPECT_EQ(cold->recovery_stats().journal_replayed,
              prefix_scan.entries.size())
        << "cut at " << cut;
    EXPECT_GE(cold->recovery_stats().journal_replayed, 3u);
  }
}

TEST_F(RecoveryTest, BitRottedCheckpointIsQuarantinedNotFatal) {
  Manager manager(net, durable_config());
  launch_one(manager, ref);
  settle();
  manager.crash();
  manager.recover(s.now());

  auto damaged = journal->bytes();
  const auto scan = journal->scan();
  const auto& last = scan.entries.back();
  ASSERT_EQ(last.type,
            static_cast<std::uint8_t>(logbook::JournalEntryType::checkpoint));
  // Flip one payload byte: the frame stays complete but fails its checksum.
  damaged[damaged.size() - last.payload.size() / 2 - 1] ^= 0x40;

  ManagerConfig mc = durable_config();
  mc.journal = std::make_shared<logbook::Journal>(
      logbook::Journal::from_bytes(std::move(damaged)));
  ASSERT_EQ(mc.journal->scan().quarantined.size(), 1u);
  std::unique_ptr<Manager> cold;
  ASSERT_NO_THROW(cold = Manager::recover(net, mc, {}, s.now()));
  EXPECT_GE(cold->recovery_stats().journal_replayed, 2u);
}

TEST_F(RecoveryTest, CheckpointCompactsReplay) {
  Manager manager(net, durable_config());
  launch_one(manager, ref);
  launch_one(manager, ref);
  settle();

  manager.crash();
  manager.recover(s.now());  // recover() checkpoints automatically
  const auto first_replay = manager.recovery_stats().journal_replayed;

  manager.crash();
  manager.recover(s.now());
  // The second replay starts from the checkpoint: it applies the snapshot
  // plus the handful of entries recovery itself appended, not the full
  // launch history.
  const auto second_replay = manager.recovery_stats().journal_replayed;
  EXPECT_LE(second_replay, first_replay + 2);
  ASSERT_EQ(manager.fleet_size(), 2u);
  EXPECT_EQ(manager.recovery_stats().manager_recoveries, 2u);
}

// --- Clock-observation durability ----------------------------------------

TEST_F(RecoveryTest, ClockObservationsJournaledOnlyWhenTracked) {
  // Off by default: spool cuts and polls happen, but no type-18 frames and
  // no observation state — the clock-off journal stays bit-identical.
  {
    Manager manager(net, durable_config());
    launch_one(manager, ref);
    manager.start();
    feed_hellos(manager.honeypot(0), 3);
    s.run_until(s.now() + minutes(30));
    EXPECT_TRUE(manager.clock_observations().empty());
    for (const auto& e : journal->scan().entries) {
      EXPECT_NE(e.type, static_cast<std::uint8_t>(
                            logbook::JournalEntryType::clock_observation));
    }
    manager.stop();
  }
  // On: every stored fresh chunk and status poll yields a sighting, and
  // each one is journaled as it happens.
  journal = std::make_shared<logbook::Journal>();
  store = std::make_shared<logbook::SpoolStore>();
  auto mc = durable_config();
  mc.track_clocks = true;
  Manager manager(net, mc);
  launch_one(manager, ref);
  manager.start();
  feed_hellos(manager.honeypot(0), 3);
  s.run_until(s.now() + minutes(30));
  ASSERT_FALSE(manager.clock_observations().empty());
  std::size_t frames = 0;
  for (const auto& e : journal->scan().entries) {
    if (e.type == static_cast<std::uint8_t>(
                      logbook::JournalEntryType::clock_observation)) {
      ++frames;
    }
  }
  EXPECT_EQ(frames, manager.clock_observations().size());
  // Undisturbed clocks read true time: every sighting is exact.
  for (const auto& o : manager.clock_observations()) {
    EXPECT_EQ(o.local_time, o.true_time);
  }
}

TEST_F(RecoveryTest, ClockObservationsSurviveCrashAndReplay) {
  auto mc = durable_config();
  mc.track_clocks = true;
  Manager manager(net, mc);
  launch_one(manager, ref);
  manager.start();
  feed_hellos(manager.honeypot(0), 5);
  s.run_until(s.now() + minutes(30));
  const auto before = manager.clock_observations();
  ASSERT_FALSE(before.empty());

  manager.crash();
  EXPECT_TRUE(manager.clock_observations().empty());  // dead process state
  manager.recover(s.now());
  const auto& after = manager.clock_observations();
  ASSERT_GE(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "observation " << i;
  }

  // Second crash replays from the checkpoint recovery wrote — the clock
  // section must round-trip through the snapshot path too.
  const auto mid = manager.clock_observations();
  manager.crash();
  manager.recover(s.now());
  ASSERT_GE(manager.clock_observations().size(), mid.size());
  for (std::size_t i = 0; i < mid.size(); ++i) {
    EXPECT_EQ(manager.clock_observations()[i], mid[i]);
  }
}

// The exact journal one scripted session appends, byte for byte: launch,
// advertise, reassign, backups, start, spool chunk stores and clock
// sightings, a relaunch, an advertise repair, an escalation, stop, and a
// crash/recover (recovered + checkpoint). Any change to a payload layout,
// a frame or the order of appends moves the digest.
TEST_F(RecoveryTest, ScriptedSessionJournalIsPinned) {
  ManagerConfig mc = durable_config();
  mc.track_clocks = true;
  Manager manager(net, mc);
  launch_one(manager, ref);
  launch_one(manager, ref);
  settle();
  manager.advertise(
      0, {AdvertisedFile{FileId::from_words(21, 22), "pin.avi", 4096}});
  manager.reassign(1, backup_ref);
  manager.set_backup_servers({backup_ref});
  manager.start();
  feed_hellos(manager.honeypot(0), 3);
  s.run_until(s.now() + minutes(10));

  // Relaunch: the honeypot dies while its server is up.
  manager.honeypot(0).crash();
  s.run_until(s.now() + minutes(30));
  // Repair: the honeypot lost its ordered list behind the manager's back.
  manager.honeypot(0).advertise({});
  s.run_until(s.now() + minutes(15));
  // Escalation: the honeypot dies again with its server down, so three
  // relaunches fail (10 and 20 min apart) and the poll after the third
  // one's 40 min backoff moves it to the backup.
  server.stop();
  manager.honeypot(0).crash();
  s.run_until(s.now() + hours(2));
  manager.stop();
  manager.crash();
  manager.recover(s.now());

  std::map<logbook::JournalEntryType, std::size_t> by_type;
  for (const auto& e : journal->scan().entries) {
    ++by_type[static_cast<logbook::JournalEntryType>(e.type)];
  }
  using T = logbook::JournalEntryType;
  for (const auto type :
       {T::checkpoint, T::launch, T::reassign, T::advertise, T::backups,
        T::start, T::stop, T::relaunch, T::escalate, T::repair,
        T::chunk_stored, T::recovered, T::clock_observation}) {
    EXPECT_GT(by_type[type], 0u) << logbook::to_string(type);
  }
  EXPECT_EQ(manager.recovery_stats().relaunches, 4u);
  EXPECT_EQ(manager.recovery_stats().escalations, 1u);
  EXPECT_EQ(journal->size_bytes(), 1938u);
  EXPECT_EQ(logbook::fnv1a(journal->bytes()), 0xf5cde904fc0d9a81ull);
}

// --- Crafted frames ------------------------------------------------------------
// Hand-encoded, so they check the replay path independently of the codec.

void put_server(ByteWriter& w, const ServerRef& server) {
  w.u64(server.node);
  w.str16(server.name);
  w.u16(server.port);
}

std::vector<std::uint8_t> launch_payload(const ServerRef& where) {
  ByteWriter w;
  w.u16(0);  // honeypot id
  w.u64(0);  // host
  put_server(w, where);
  return std::move(w).take();
}

std::vector<std::uint8_t> reassign_payload(const ServerRef& where) {
  ByteWriter w;
  w.u32(0);  // slot index
  put_server(w, where);
  return std::move(w).take();
}

TEST_F(RecoveryTest, AdvertiseClaimingImpossibleFileCountIsSkipped) {
  ByteWriter advertise;
  advertise.u32(0);            // slot index
  advertise.u32(0xFFFFFFFFu);  // file count
  for (int i = 0; i < 14; ++i) advertise.u8(0);
  using T = logbook::JournalEntryType;
  const auto m = recover_orphan_from({{T::launch, launch_payload(ref)},
                                      {T::advertise, std::move(advertise).take()},
                                      {T::reassign, reassign_payload(backup_ref)}});
  ASSERT_EQ(m->fleet_size(), 1u);
  EXPECT_EQ(m->server_of(0).name, "backup");
  EXPECT_TRUE(m->ordered_files(0).empty());
  EXPECT_EQ(m->recovery_stats().journal_replayed, 2u);
}

TEST_F(RecoveryTest, CheckpointClaimingImpossibleFileCountIsSkipped) {
  ByteWriter checkpoint;
  for (int i = 0; i < 8; ++i) checkpoint.u64(0);  // counters
  checkpoint.u8(1);                               // started
  checkpoint.u32(0);                              // backups
  checkpoint.u32(1);                              // fleet: one slot
  checkpoint.u16(0);                              //   honeypot id
  checkpoint.u64(0);                              //   host
  put_server(checkpoint, ref);                    //   server
  checkpoint.u32(0);                              //   consecutive failures
  checkpoint.u32(0xFFFFFFFFu);                    //   file count
  using T = logbook::JournalEntryType;
  const auto m = recover_orphan_from({{T::checkpoint, std::move(checkpoint).take()},
                                      {T::launch, launch_payload(ref)},
                                      {T::reassign, reassign_payload(backup_ref)}});
  ASSERT_EQ(m->fleet_size(), 1u);
  EXPECT_EQ(m->server_of(0).name, "backup");
  EXPECT_EQ(m->recovery_stats().journal_replayed, 2u);
}

// Replay rebuilds the state the live manager held. The session commits
// every state-bearing entry type, including a relaunch that reconnects and
// a quarantine with its reinstate; the live checkpoint is then compared
// with the one a cold recovery writes after replaying the whole journal.
TEST_F(RecoveryTest, ReplayRebuildsLiveState) {
  const net::NodeId backup2_node = net.add_node(true);
  server::Server backup2{net, backup2_node, {}};
  backup2.start();
  const ServerRef backup2_ref{backup2_node, "backup-2", 4661};

  ManagerConfig mc = durable_config();
  mc.track_clocks = true;
  mc.quarantine_threshold = 2.0;
  Manager m(net, mc);
  m.set_backup_servers({backup_ref, backup2_ref});
  HoneypotConfig probed;
  probed.name = "hp-probed";
  probed.strategy = ContentStrategy::no_content;
  probed.integrity_defense = true;
  probed.self_probes = true;
  m.launch(probed, net.add_node(true), ref);
  launch_one(m, ref);
  m.start();
  settle();
  m.advertise(0, {AdvertisedFile{FileId::from_words(0xA, 0xA), "a.avi", 10}});
  m.advertise(1, {AdvertisedFile{FileId::from_words(0xB, 0xB), "b.avi", 20}});
  feed_hellos(m.honeypot(1), 3);
  s.run_until(s.now() + minutes(30));

  // A relaunch that reconnects, then an advertise repair.
  m.honeypot(1).crash();
  s.run_until(s.now() + minutes(30));
  m.honeypot(1).advertise({});
  s.run_until(s.now() + minutes(15));
  // An escalation: the honeypot dies with its server down.
  m.reassign(1, backup2_ref);
  settle();
  backup2.stop();
  m.honeypot(1).crash();
  s.run_until(s.now() + hours(1));
  backup2.start();
  // A quarantine and its reinstate: srv lies until probes bench it.
  server.set_fabricate_sources(true, 3, 7);
  s.run_until(s.now() + hours(1));
  ASSERT_GE(m.integrity_stats().servers_quarantined, 1u);
  server.set_fabricate_sources(false, 0, 0);
  s.run_until(s.now() + hours(2));
  ASSERT_GE(m.integrity_stats().servers_reinstated, 1u);
  m.stop();
  m.start();
  settle();

  const std::vector<std::uint8_t> history = journal->bytes();
  std::set<logbook::JournalEntryType> seen;
  for (const auto& e : logbook::scan_journal(history).entries) {
    const auto type = static_cast<logbook::JournalEntryType>(e.type);
    seen.insert(type);
    journal::visit(e, [&](const auto& entry) {
      EXPECT_EQ(journal::encode(entry), e.payload) << logbook::to_string(type);
    });
  }
  using T = logbook::JournalEntryType;
  for (const auto type :
       {T::launch, T::reassign, T::advertise, T::backups, T::start, T::stop,
        T::relaunch, T::escalate, T::repair, T::chunk_stored,
        T::probe_verdict, T::server_quarantine, T::server_reinstate,
        T::clock_observation}) {
    EXPECT_TRUE(seen.contains(type)) << logbook::to_string(type);
  }

  m.checkpoint();
  auto live = journal::decode<journal::Checkpoint>(
      journal->scan().entries.back().payload);
  m.crash();
  ManagerConfig cold_config = mc;
  cold_config.journal = std::make_shared<logbook::Journal>(
      logbook::Journal::from_bytes(history));
  const auto cold =
      Manager::recover(net, cold_config, m.take_orphans(), s.now());
  auto replayed = journal::decode<journal::Checkpoint>(
      cold_config.journal->scan().entries.back().payload);

  // The counters recover() itself bumps.
  EXPECT_EQ(replayed.manager_recoveries, live.manager_recoveries + 1);
  EXPECT_EQ(replayed.orphans_readopted, live.orphans_readopted + 2);
  replayed.manager_recoveries = live.manager_recoveries;
  replayed.manager_downtime = live.manager_downtime;
  replayed.orphans_readopted = live.orphans_readopted;
  // poll() zeroes consecutive_failures when a relaunched honeypot
  // reconnects without journaling it, so replay keeps counting (ROADMAP
  // open item 8, "Replay the watchdog's reconnect reset").
  for (auto* state : {&live, &replayed}) {
    for (auto& slot : state->fleet) slot.consecutive_failures = 0;
  }
  EXPECT_EQ(replayed.fleet, live.fleet);
  EXPECT_EQ(replayed.next_backup, live.next_backup);
  EXPECT_EQ(replayed.ack_frontier, live.ack_frontier);
  EXPECT_EQ(replayed.health, live.health);
  EXPECT_EQ(replayed.quarantines, live.quarantines);
  EXPECT_EQ(replayed.clock_obs.size(), live.clock_obs.size());
  EXPECT_TRUE(replayed == live);
}

// A self-probe is in flight (verdict or timeout pending) when the manager
// dies. The probe sink must not reach into the dead incarnation — crash()
// severs it — and the verdict stream must resume once recovery rewires the
// fleet. Cold-start makes the race maximal: the first Manager object is
// destroyed outright while the honeypot keeps probing as an orphan.
TEST_F(RecoveryTest, RecoveryRacesPendingSelfProbe) {
  const auto probed_config = [this] {
    HoneypotConfig c;
    c.name = "hp-probe-race";
    c.strategy = ContentStrategy::no_content;
    c.integrity_defense = true;
    c.self_probes = true;
    return c;
  };
  auto first = std::make_unique<Manager>(net, durable_config());
  const auto idx =
      first->launch(probed_config(), net.add_node(true), ref);
  first->start();
  settle();
  first->advertise(idx, {AdvertisedFile{FileId::from_words(0xC, 0xC),
                                        "probe-bait.avi", 1000}});
  settle(minutes(21));
  const auto verdicts_at = [this] {
    std::uint64_t n = 0;
    for (const auto& e : journal->scan().entries) {
      if (e.type == static_cast<std::uint8_t>(
                        logbook::JournalEntryType::probe_verdict)) {
        ++n;
      }
    }
    return n;
  };
  const auto before = verdicts_at();
  ASSERT_GT(before, 0u);

  // Land the crash inside a probe window: the next probe fires within
  // 5 minutes and its verdict/timeout finds the manager gone.
  settle(minutes(4.5));
  first->crash();
  auto orphans = first->take_orphans();
  ASSERT_EQ(orphans.size(), 1u);
  first.reset();  // any probe callback into the dead manager is now a UAF

  // The orphan keeps probing against the live server while unmanaged; its
  // verdicts go nowhere, and must not crash the process.
  settle(minutes(12));

  auto second =
      Manager::recover(net, durable_config(), std::move(orphans), s.now());
  ASSERT_EQ(second->fleet_size(), 1u);
  settle(minutes(21));

  // The verdict stream resumed under the new incarnation.
  EXPECT_GT(verdicts_at(), before);
  EXPECT_GT(second->integrity_stats().probes_sent, 0u);
  EXPECT_EQ(second->integrity_stats().probes_missed, 0u);
  EXPECT_EQ(second->server_health("srv"), 0.0);
}

}  // namespace
}  // namespace edhp::honeypot
