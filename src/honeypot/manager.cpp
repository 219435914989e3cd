#include "honeypot/manager.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "anonymize/renumber.hpp"
#include "proto/udp_messages.hpp"

namespace edhp::honeypot {
namespace {

/// Cap on displaced-slot references inside one quarantine journal frame
/// (bounds the frame; a fleet larger than this keeps its overflow slots on
/// the quarantined server, which still yields quarantined-record evidence).
constexpr std::size_t kQuarantineRefCap = 64;

/// Status-poll period (the manager "regularly checks the status of each
/// honeypot").
constexpr Duration kStatusPoll = minutes(10);

/// Backoff between relaunch attempts of a honeypot that keeps failing:
/// kRelaunchBackoffBase after the first failed relaunch, doubling with each
/// further one up to kRelaunchBackoffCap, so a honeypot whose server is
/// down is not reconnected (and recounted) on every poll.
constexpr Duration kRelaunchBackoffBase = minutes(10);
constexpr Duration kRelaunchBackoffCap = hours(2);
/// After this many consecutive failed relaunches the honeypot moves to the
/// next backup server (round-robin over set_backup_servers; none = never).
constexpr std::uint32_t kEscalateAfter = 3;
/// A connected or connecting honeypot whose heartbeat is older than this is
/// escalated even though its status looks alive (a wedged login, a zombie
/// session). Every OFFER-FILES keep-alive refreshes the heartbeat.
constexpr Duration kHeartbeatTimeout = hours(2);

/// Delay between receiving a spool chunk and the honeypot learning it is
/// safe to drop it (models the out-of-band transfer round-trip); a crash
/// inside this window causes a duplicate re-send on relaunch.
constexpr Duration kSpoolAckDelay = 30.0;

/// Health-score decay applied by each confirmed probe (honest servers that
/// occasionally race a keep-alive recover instead of accumulating).
constexpr double kProbeConfirmDecay = 0.25;
/// How long a quarantined server stays benched before its displaced
/// honeypots are reassigned back (checked by the poll loop).
constexpr Duration kQuarantineCooloff = minutes(30);

/// The state change of each journaled transition, one overload per entry
/// type, shared by the live commit and by replay. Replay reconstructs state
/// and never re-decides: a probe verdict that crossed the quarantine
/// threshold has its own quarantine entry.
struct Apply {
  journal::Checkpoint& s;

  void operator()(const journal::Checkpoint& e) { s = e; }
  void operator()(const journal::Launch& e) {
    s.fleet.push_back({e.id, e.host, e.server, 0, {}});
  }
  void operator()(const journal::Reassign& e) {
    if (e.index < s.fleet.size()) s.fleet[e.index].server = e.server;
  }
  void operator()(const journal::Advertise& e) {
    if (e.index < s.fleet.size()) s.fleet[e.index].files = e.files;
  }
  void operator()(const journal::Backups& e) {
    s.backups = e.servers;
    s.next_backup = 0;
  }
  void operator()(const journal::Start&) { s.started = true; }
  void operator()(const journal::Stop&) { s.started = false; }
  void operator()(const journal::Relaunch& e) {
    ++s.relaunches;
    if (e.index < s.fleet.size()) ++s.fleet[e.index].consecutive_failures;
  }
  void operator()(const journal::Escalate& e) {
    if (e.index < s.fleet.size()) s.fleet[e.index].consecutive_failures = 0;
    if (e.reason == journal::EscalateReason::heartbeat) {
      ++s.heartbeat_escalations;
    }
    if (e.used_backup) {
      if (e.reason == journal::EscalateReason::failures) ++s.escalations;
      ++s.next_backup;
    }
  }
  void operator()(const journal::Repair&) { ++s.re_advertise_repairs; }
  void operator()(const journal::ChunkStored& e) {
    auto& frontier = s.ack_frontier[e.honeypot];
    frontier = std::max(frontier, e.seq + 1);
  }
  void operator()(const journal::Recovered& e) {
    s.manager_downtime += e.downtime;
    s.orphans_readopted += e.adopted;
    ++s.manager_recoveries;
  }
  // Audit only: the honeypot processes own the live degrade state and
  // counters (they survive a manager crash).
  void operator()(const journal::DegradeEnter&) {}
  void operator()(const journal::DegradeExit&) {}
  void operator()(const journal::ProbeVerdict& e) {
    auto& health = s.health[e.server];
    if (e.confirmed) {
      ++health.confirms;
      health.score = std::max(0.0, health.score - kProbeConfirmDecay);
    } else {
      ++health.misses;
      health.score += 1.0;
    }
  }
  void operator()(const journal::ServerQuarantine& e) {
    ++s.servers_quarantined;
    s.health[e.server_name].score = 0;  // fresh ledger when it comes back
    std::erase_if(s.quarantines, [&](const journal::ServerQuarantine& q) {
      return q.server_name == e.server_name;
    });
    s.quarantines.push_back(e);
    s.next_backup += e.displaced.size();  // one backup per displaced slot
  }
  void operator()(const journal::ServerReinstate& e) {
    ++s.servers_reinstated;
    std::erase_if(s.quarantines, [&](const journal::ServerQuarantine& q) {
      return q.server_name == e.server_name;
    });
  }
  void operator()(const journal::ClockObservation& e) {
    s.clock_obs.push_back(e.observation);
  }
};

}  // namespace

Manager::Manager(net::Network& network, ManagerConfig config)
    : net_(network),
      config_(std::move(config)),
      spool_store_(config_.spool_store ? config_.spool_store
                                       : std::make_shared<logbook::SpoolStore>()) {}

Manager::~Manager() { stop(); }

template <typename Entry>
void Manager::commit(const Entry& entry) {
  if (config_.journal) {
    config_.journal->append(Entry::kType, journal::encode(entry));
  }
  Apply{state_}(entry);
}

// --- Live transitions ----------------------------------------------------------

void Manager::wire_spool_sink(Honeypot& honeypot) {
  if (!config_.spool.enabled) return;
  // Gathering channel: verify + ingest each chunk (deduping re-sends and
  // quarantining corrupted payloads) and acknowledge after the transfer
  // round-trip, so a crash inside the ack window exercises the
  // at-least-once path. Quarantined chunks are never acknowledged: the
  // honeypot keeps them spooled for a later re-send.
  Honeypot* hp = &honeypot;
  hp->set_spool_sink([this, hp](const logbook::LogChunk& chunk, bool fresh) {
    spool_store_->set_header(chunk.honeypot, hp->log().header);
    const auto outcome = spool_store_->ingest(chunk);
    if (outcome == logbook::SpoolStore::Ingest::quarantined) return;
    if (outcome == logbook::SpoolStore::Ingest::stored) {
      commit(journal::ChunkStored{
          chunk.honeypot, chunk.epoch, chunk.seq,
          static_cast<std::uint32_t>(chunk.records.size())});
      if (fresh) {
        // A fresh cut is a bounded-delay exchange: the honeypot stamped the
        // cut with its local clock an instant ago, so (now, cut_at_local)
        // anchors that clock's reconstruction. Re-sent backlog chunks carry
        // stale cut stamps and are useless as sightings.
        record_clock_observation(chunk.honeypot, chunk.cut_at_local);
      }
    }
    const auto seq = chunk.seq;
    // The ack lambda deliberately captures the credit VALUE, never `this`:
    // it may fire after this manager incarnation crashed. Each ack tops the
    // honeypot's resend window up by one chunk, so a recovery's backlog
    // drains at the store's pace instead of in one burst.
    const std::uint32_t credit = config_.resend_credit;
    net_.simulation().schedule_in(kSpoolAckDelay, [hp, seq, credit] {
      hp->ack_spooled(seq);
      if (credit > 0) hp->resend_spool(std::size_t{1});
    });
  });
}

void Manager::record_clock_observation(std::uint16_t hp_id, Time local_time) {
  if (!config_.track_clocks) return;
  commit(journal::ClockObservation{
      {hp_id, net_.simulation().now(), local_time}});
}

void Manager::wire_degrade_sink(Honeypot& honeypot) {
  // Overload transitions are control-plane state like any other: journaled
  // when they happen, so a recovered manager (and edhp_inspect degrade) can
  // audit which honeypots were degraded and what they shed. Cleared by
  // crash() alongside the spool sink (the lambda captures `this`).
  Honeypot* hp = &honeypot;
  hp->set_degrade_sink([this, hp](bool entered, budget::DegradeReason reason) {
    const auto id = hp->config().id;
    if (entered) {
      commit(journal::DegradeEnter{id, reason, hp->spool_resident_bytes(),
                                   hp->unspooled_tail()});
    } else {
      const auto& stats = hp->degrade_stats();
      commit(journal::DegradeExit{id, stats.records_shed,
                                  stats.chunks_compacted,
                                  stats.backpressure_cuts});
    }
  });
}

void Manager::wire_probe_sink(Honeypot& honeypot) {
  // Probe verdicts are control-plane input: journaled and scored here. The
  // honeypot severs this sink in crash() (a verdict racing a relaunch must
  // not reach wiring that captures a possibly-dead incarnation), and
  // adoption re-installs it.
  Honeypot* hp = &honeypot;
  hp->set_probe_sink([this, hp](bool confirmed) {
    on_probe_verdict(hp->config().id, confirmed);
  });
}

void Manager::on_probe_verdict(std::uint16_t hp_id, bool confirmed) {
  const auto slot = std::find_if(
      state_.fleet.begin(), state_.fleet.end(),
      [hp_id](const journal::Checkpoint::Slot& s) { return s.id == hp_id; });
  if (slot == state_.fleet.end()) return;
  const std::string name = slot->server.name;
  commit(journal::ProbeVerdict{hp_id, confirmed, name});
  if (!confirmed && config_.quarantine_threshold > 0 &&
      state_.health[name].score >= config_.quarantine_threshold &&
      !server_quarantined(name)) {
    quarantine_server(name);
  }
}

void Manager::quarantine_server(const std::string& name) {
  // Only bench the liar if there is somewhere honest to go; without a
  // distinct backup the fleet keeps measuring (its defenses still taint
  // whatever the liar pollutes) and the score keeps accumulating.
  std::vector<const ServerRef*> targets;
  for (const auto& b : state_.backups) {
    if (b.name != name) targets.push_back(&b);
  }
  if (targets.empty()) return;
  journal::ServerQuarantine q;
  q.server_name = name;
  q.until = net_.simulation().now() + kQuarantineCooloff;
  for (std::size_t i = 0; i < state_.fleet.size(); ++i) {
    if (state_.fleet[i].server.name != name) continue;
    if (q.displaced.empty()) q.original = state_.fleet[i].server;
    if (q.displaced.size() < kQuarantineRefCap) {
      q.displaced.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (q.displaced.empty()) return;
  const auto first_backup = state_.next_backup;
  commit(q);
  for (std::size_t k = 0; k < q.displaced.size(); ++k) {
    reassign(q.displaced[k], *targets[(first_backup + k) % targets.size()]);
  }
}

void Manager::service_quarantines(Time now) {
  for (std::size_t qi = 0; qi < state_.quarantines.size();) {
    if (state_.quarantines[qi].until > now) {
      ++qi;
      continue;
    }
    const journal::ServerQuarantine q = state_.quarantines[qi];
    commit(journal::ServerReinstate{q.server_name});
    // Cooloff served: move exactly the displaced slots back where the
    // measurement plan had them (the backup was a stopgap, not a new home).
    for (const auto index : q.displaced) {
      if (index < live_.size()) {
        reassign(index, q.original);
      }
    }
  }
}

std::size_t Manager::launch(HoneypotConfig config, net::NodeId host,
                            const ServerRef& server) {
  config.salt = config_.salt;
  config.retry = config_.retry;
  config.spool = config_.spool;
  config.defense = config_.defense;
  if (config.id == 0) {
    config.id = static_cast<std::uint16_t>(live_.size());
  }
  const auto id = config.id;
  LiveSlot slot;
  slot.honeypot = std::make_unique<Honeypot>(net_, host, std::move(config));
  Honeypot& hp = *slot.honeypot;
  wire_spool_sink(hp);
  wire_degrade_sink(hp);
  wire_probe_sink(hp);
  commit(journal::Launch{id, host, server});
  live_.push_back(std::move(slot));
  hp.connect_to_server(server);
  return live_.size() - 1;
}

void Manager::set_backup_servers(std::vector<ServerRef> backups) {
  commit(journal::Backups{std::move(backups)});
}

void Manager::survey_servers(std::vector<ServerRef> candidates,
                             net::NodeId probe_node, Duration timeout,
                             SurveyCallback done) {
  struct Survey {
    std::vector<ServerRef> candidates;
    std::vector<std::optional<proto::ServStatResponse>> answers;
  };
  auto survey = std::make_shared<Survey>();
  survey->candidates = std::move(candidates);
  survey->answers.resize(survey->candidates.size());

  // The probe callbacks deliberately capture the network, never `this`: a
  // survey outstanding while the manager crashes (and possibly a new
  // incarnation replaces it) must still time out and deliver cleanly.
  net_.listen_datagram(probe_node, [&net = net_, survey, probe_node](
                                       net::NodeId, net::Bytes datagram) {
    proto::AnyUdpMessage msg;
    try {
      msg = proto::decode_udp(datagram);
    } catch (const DecodeError&) {
      net.note_malformed(probe_node);
      return;
    }
    if (const auto* res = std::get_if<proto::ServStatResponse>(&msg)) {
      // The challenge encodes the candidate index. A duplicated datagram
      // changes nothing: the first copy won.
      if (res->challenge < survey->answers.size() &&
          !survey->answers[res->challenge]) {
        survey->answers[res->challenge] = *res;
      }
    }
  });

  for (std::size_t i = 0; i < survey->candidates.size(); ++i) {
    proto::ServStatRequest req;
    req.challenge = static_cast<std::uint32_t>(i);
    net_.send_datagram(probe_node, survey->candidates[i].node,
                       proto::encode_udp(req));
  }

  net_.simulation().schedule_in(
      timeout, [&net = net_, survey, probe_node, done = std::move(done)] {
        net.stop_listening_datagram(probe_node);
        std::vector<ServerSurveyEntry> out;
        for (std::size_t i = 0; i < survey->candidates.size(); ++i) {
          if (!survey->answers[i]) continue;
          out.push_back(ServerSurveyEntry{survey->candidates[i],
                                          survey->answers[i]->users,
                                          survey->answers[i]->files});
        }
        std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
          return a.users > b.users;
        });
        done(std::move(out));
      });
}

void Manager::reassign(std::size_t index, const ServerRef& server) {
  Honeypot& hp = *live_.at(index).honeypot;
  commit(journal::Reassign{static_cast<std::uint32_t>(index), server});
  hp.disconnect();
  hp.connect_to_server(server);
  if (!hp.advertised().empty()) {
    // Re-push the current list once the new login completes: advertise()
    // re-sends OFFER-FILES when connected, and the keep-alive covers the
    // race where login is still in flight.
    hp.advertise(std::vector<AdvertisedFile>(hp.advertised()));
  } else if (!state_.fleet[index].files.empty()) {
    hp.advertise(state_.fleet[index].files);
  }
}

void Manager::advertise(std::size_t index, std::vector<AdvertisedFile> files) {
  Honeypot& hp = *live_.at(index).honeypot;
  journal::Advertise entry{static_cast<std::uint32_t>(index), std::move(files)};
  commit(entry);
  hp.advertise(std::move(entry.files));
}

void Manager::advertise_all(std::vector<AdvertisedFile> files) {
  for (std::size_t i = 0; i < live_.size(); ++i) {
    advertise(i, files);
  }
}

void Manager::start() {
  if (poll_timer_) return;
  if (!state_.started) commit(journal::Start{});
  poll_timer_ = std::make_unique<sim::PeriodicTimer>(
      net_.simulation(), kStatusPoll, [this] { poll(); });
  poll_timer_->start();
}

void Manager::stop() {
  poll_timer_.reset();
  if (state_.started) commit(journal::Stop{});
  for (auto& slot : live_) {
    if (config_.spool.enabled) {
      // Final gathering: flush the unspooled tail so the store holds the
      // complete log of every honeypot that survived to the end.
      slot.honeypot->spool_now();
    }
    slot.honeypot->disconnect();
  }
}

// --- Crash / recovery ------------------------------------------------------

std::size_t Manager::crash() {
  // Process death: everything in manager memory is gone. The honeypots are
  // remote processes — they keep running, their spool timers keep cutting
  // chunks into their local on-disk spools, but the sink to the dead
  // manager is severed (deliveries and acks stop until re-adoption).
  poll_timer_.reset();
  for (auto& slot : live_) {
    slot.honeypot->set_spool_sink(nullptr);
    slot.honeypot->set_degrade_sink(nullptr);
    slot.honeypot->set_probe_sink(nullptr);
    orphans_.push_back(std::move(slot.honeypot));
  }
  live_.clear();
  state_ = journal::Checkpoint{};
  recovery_ = RecoveryStats{};
  records_excluded_ = 0;
  time_integrity_ = logbook::TimeIntegrityStats{};
  return orphans_.size();
}

void Manager::replay_journal() {
  const auto scan = config_.journal->scan();
  recovery_.journal_tail_lost = scan.torn_bytes;

  // Replay starts at the last checkpoint (a full snapshot); everything
  // before it is compacted history.
  std::size_t begin = 0;
  for (std::size_t i = 0; i < scan.entries.size(); ++i) {
    if (scan.entries[i].type ==
        static_cast<std::uint8_t>(logbook::JournalEntryType::checkpoint)) {
      begin = i;
    }
  }

  std::uint64_t applied = 0;
  for (std::size_t i = begin; i < scan.entries.size(); ++i) {
    try {
      journal::visit(scan.entries[i], Apply{state_});
      ++applied;
    } catch (const DecodeError&) {
      // A frame that passed its checksum but fails to decode is a schema
      // bug, not data corruption; skip it rather than abandon recovery.
    }
  }
  recovery_.journal_replayed = applied;
}

std::size_t Manager::adopt_orphans() {
  std::unordered_map<std::uint16_t, std::unique_ptr<Honeypot>> by_id;
  for (auto& hp : orphans_) {
    by_id[hp->config().id] = std::move(hp);
  }
  orphans_.clear();

  live_.clear();
  live_.resize(state_.fleet.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < state_.fleet.size(); ++i) {
    const auto id = state_.fleet[i].id;
    const auto it = by_id.find(id);
    if (it == by_id.end()) {
      // The journal knows this honeypot but its process did not survive the
      // outage (host wiped, never relaunched).
      continue;
    }
    live_[i].honeypot = std::move(it->second);
    by_id.erase(it);
    Honeypot& hp = *live_[i].honeypot;
    wire_spool_sink(hp);
    wire_degrade_sink(hp);
    wire_probe_sink(hp);
    // Chunks the journal proves durable are acknowledged on the spot (no
    // round-trip needed: the recovery read its own store); the rest of the
    // local spool is re-sent and deduped by (honeypot, seq).
    const auto frontier_it = state_.ack_frontier.find(id);
    if (frontier_it != state_.ack_frontier.end()) {
      std::vector<std::uint64_t> proven;
      for (const auto& chunk : hp.pending_chunks()) {
        if (chunk.seq < frontier_it->second) proven.push_back(chunk.seq);
      }
      for (const auto seq : proven) {
        hp.ack_spooled(seq);
      }
    }
    if (config_.resend_credit > 0) {
      // Credit-paced recovery: open the window; each ack tops it up by one
      // (see wire_spool_sink), so the backlog drains without re-creating
      // the overload spike that killed the previous incarnation.
      hp.resend_spool(std::size_t{config_.resend_credit});
    } else {
      hp.resend_spool();
    }
    ++count;
  }
  // Orphans the journal never heard of (its tail was torn before their
  // launch entry survived) cannot be reattached to a slot: they are
  // retired; their spooled chunks are already in the store.
  return count;
}

void Manager::recover(Time crashed_at) {
  if (!config_.journal) {
    throw std::logic_error("Manager::recover requires ManagerConfig::journal");
  }
  replay_journal();
  const auto adopted = adopt_orphans();
  const double downtime =
      crashed_at >= 0 ? net_.simulation().now() - crashed_at : 0.0;
  commit(journal::Recovered{downtime, static_cast<std::uint32_t>(adopted)});
  // Compact: the next replay starts from the state we just rebuilt.
  checkpoint();
  if (state_.started) {
    poll_timer_ = std::make_unique<sim::PeriodicTimer>(
        net_.simulation(), kStatusPoll, [this] { poll(); });
    poll_timer_->start();
  }
}

std::unique_ptr<Manager> Manager::recover(
    net::Network& network, ManagerConfig config,
    std::vector<std::unique_ptr<Honeypot>> orphans, Time crashed_at) {
  auto manager = std::make_unique<Manager>(network, std::move(config));
  manager->orphans_ = std::move(orphans);
  manager->recover(crashed_at);
  return manager;
}

void Manager::checkpoint() {
  if (!config_.journal) return;
  // The snapshot strikes the slots adoption left without a process: they
  // leave the fleet here, and their spooled records stay in the store.
  journal::Checkpoint snapshot = state_;
  snapshot.fleet.clear();
  std::vector<LiveSlot> live;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (!live_[i].honeypot) continue;
    snapshot.fleet.push_back(state_.fleet[i]);
    live.push_back(std::move(live_[i]));
  }
  live_ = std::move(live);
  commit(snapshot);
}

// --- Watchdog --------------------------------------------------------------

bool Manager::covers(const Honeypot& hp,
                     const std::vector<AdvertisedFile>& ordered) {
  return std::all_of(ordered.begin(), ordered.end(),
                     [&hp](const AdvertisedFile& f) {
                       return hp.advertises(f.id);
                     });
}

void Manager::repair_advertised(std::size_t index) {
  // Ordered files first, then everything the honeypot grew on its own
  // (greedy harvest) that the order does not already contain.
  Honeypot& hp = *live_.at(index).honeypot;
  std::vector<AdvertisedFile> full = state_.fleet[index].files;
  std::unordered_set<FileId> ordered_ids;
  ordered_ids.reserve(full.size());
  for (const auto& f : full) {
    ordered_ids.insert(f.id);
  }
  for (const auto& f : hp.advertised()) {
    if (!ordered_ids.contains(f.id)) {
      full.push_back(f);
    }
  }
  commit(journal::Repair{static_cast<std::uint32_t>(index)});
  hp.advertise(std::move(full));
}

void Manager::escalate(std::size_t index, journal::EscalateReason reason) {
  live_.at(index).next_attempt_at = 0;
  const bool used_backup = !state_.backups.empty();
  // Without backups the honeypot reconnects in place; with them it takes
  // the next one in the rotation (the commit advances it).
  const ServerRef target =
      used_backup
          ? state_.backups[state_.next_backup % state_.backups.size()]
          : state_.fleet[index].server;
  commit(journal::Escalate{static_cast<std::uint32_t>(index), reason,
                           used_backup});
  reassign(index, target);
}

void Manager::poll() {
  service_quarantines(net_.simulation().now());
  const Time now = net_.simulation().now();
  for (std::size_t i = 0; i < live_.size(); ++i) {
    auto& live = live_[i];
    auto& hp = *live.honeypot;
    const Status status = hp.status();

    if (status == Status::connected) {
      // Every status poll of a live honeypot doubles as a clock sighting:
      // the exchange is bounded-delay, so "its local clock reads X while
      // true time reads now" anchors the skew reconstruction.
      record_clock_observation(state_.fleet[i].id, hp.local_now());
      if (live.down_since >= 0) {
        recovery_.total_downtime += now - live.down_since;
        live.down_since = -1.0;
        live.next_attempt_at = 0;
        // The one write to journaled state that is not journaled: replay
        // keeps counting the failures of a honeypot that came back (ROADMAP
        // open item 8, "Replay the watchdog's reconnect reset").
        state_.fleet[i].consecutive_failures = 0;
      }
      if (now - hp.last_heartbeat() > kHeartbeatTimeout) {
        // Zombie session: status says connected but nothing has happened
        // for longer than any keep-alive period allows.
        escalate(i, journal::EscalateReason::heartbeat);
        continue;
      }
      // A honeypot that died mid-OFFER (or whose advertise order was lost
      // while it was dead) is missing part of its ordered list: repair it.
      if (!state_.fleet[i].files.empty() &&
          !covers(hp, state_.fleet[i].files)) {
        repair_advertised(i);
      }
      continue;
    }

    if (status != Status::dead) {
      // connecting/idle: the honeypot is handling itself (login in flight
      // or self-retrying); only interfere when its heartbeat went stale.
      if (status == Status::connecting &&
          now - hp.last_heartbeat() > kHeartbeatTimeout) {
        escalate(i, journal::EscalateReason::heartbeat);
      }
      continue;
    }

    // Dead. Gate relaunch attempts behind the backoff so a honeypot whose
    // server is down does not get reconnected (and recounted) every tick.
    if (live.down_since < 0) {
      live.down_since = now;
    }
    if (now < live.next_attempt_at) {
      ++recovery_.deferred;
      continue;
    }
    if (!state_.backups.empty() &&
        state_.fleet[i].consecutive_failures >= kEscalateAfter) {
      escalate(i, journal::EscalateReason::failures);
      continue;
    }
    commit(journal::Relaunch{static_cast<std::uint32_t>(i)});
    const auto& slot = state_.fleet[i];
    // The n-th relaunch in a row waits kRelaunchBackoffBase * 2^(n - 1).
    const double backoff =
        kRelaunchBackoffBase *
        std::pow(2.0, static_cast<double>(slot.consecutive_failures) - 1.0);
    live.next_attempt_at = now + std::min(backoff, kRelaunchBackoffCap);
    // Relaunch: reconnect to the assigned server and re-advertise the file
    // list previously ordered (plus anything the honeypot grew itself in
    // greedy mode, which it kept).
    hp.connect_to_server(slot.server);
    if (!slot.files.empty() && !covers(hp, slot.files)) {
      repair_advertised(i);
    }
  }
}

RecoveryStats Manager::recovery_stats() const {
  RecoveryStats out = recovery_;
  out.relaunches = state_.relaunches;
  out.escalations = state_.escalations;
  out.heartbeat_escalations = state_.heartbeat_escalations;
  out.re_advertise_repairs = state_.re_advertise_repairs;
  out.manager_recoveries = state_.manager_recoveries;
  out.manager_downtime = state_.manager_downtime;
  out.orphans_readopted = state_.orphans_readopted;
  out.chunks_accepted = spool_store_->chunks_accepted();
  out.chunks_duplicate = spool_store_->chunks_duplicate();
  out.chunks_quarantined = spool_store_->chunks_quarantined();
  out.records_spooled = spool_store_->records_stored();
  if (config_.journal) {
    out.journal_entries = config_.journal->entries_appended();
    out.journal_bytes = config_.journal->size_bytes();
  }
  const Time now = net_.simulation().now();
  std::uint64_t kept = 0;
  const auto tally = [&](const Honeypot& hp) {
    out.honeypot_retries += hp.retries();
    out.records_lost_tail += hp.records_lost_tail();
    kept += hp.log().records.size();
  };
  for (const auto& slot : live_) {
    tally(*slot.honeypot);
    if (slot.down_since >= 0) {
      out.total_downtime += now - slot.down_since;
    }
  }
  // Orphans (manager down) still generate and lose records; the experiment
  // ledger counts them even though the dead control plane cannot.
  for (const auto& hp : orphans_) {
    tally(*hp);
  }
  const std::uint64_t generated = kept + out.records_lost_tail;
  if (generated > 0) {
    out.retained_fraction =
        static_cast<double>(kept) / static_cast<double>(generated);
  }
  return out;
}

IntegrityStats Manager::integrity_stats() const {
  IntegrityStats out;
  out.servers_quarantined = state_.servers_quarantined;
  out.servers_reinstated = state_.servers_reinstated;
  out.records_excluded = records_excluded_;
  for_each_honeypot(
      [&out](const Honeypot& hp) { out += hp.integrity_stats(); });
  return out;
}

double Manager::server_health(const std::string& name) const {
  const auto it = state_.health.find(name);
  return it == state_.health.end() ? 0.0 : it->second.score;
}

bool Manager::server_quarantined(const std::string& name) const {
  return std::any_of(
      state_.quarantines.begin(), state_.quarantines.end(),
      [&name](const journal::ServerQuarantine& q) {
        return q.server_name == name;
      });
}

net::DefenseStats Manager::defense_stats() const {
  net::DefenseStats out;
  for_each_honeypot([&out](const Honeypot& hp) { out += hp.defense_stats(); });
  return out;
}

Honeypot& Manager::honeypot(std::size_t index) {
  return *live_.at(index).honeypot;
}

const Honeypot& Manager::honeypot(std::size_t index) const {
  return *live_.at(index).honeypot;
}

logbook::LogFile Manager::merged_anonymized(std::uint64_t* distinct_peers_out) const {
  std::vector<const logbook::LogFile*> logs;
  logs.reserve(live_.size());
  for (const auto& slot : live_) logs.push_back(&slot.honeypot->log());
  // Live merges read in-memory logs: nothing can sit in chunk quarantine.
  durable_quarantine_records_ = 0;
  return publish(logs, distinct_peers_out);
}

logbook::LogFile Manager::merged_anonymized_durable(
    std::uint64_t* distinct_peers_out) const {
  // Salvage pass: the durable store, plus every honeypot's local on-disk
  // spool (chunks cut but never delivered while the manager was down, or
  // delivered but unacked). Ingestion dedups, so overlap is harmless.
  logbook::SpoolStore salvage = *spool_store_;
  for_each_honeypot([&salvage](const Honeypot& hp) {
    for (const auto& chunk : hp.pending_chunks()) {
      salvage.set_header(chunk.honeypot, hp.log().header);
      salvage.ingest(chunk);
    }
  });
  const auto logs = salvage.reassemble_all();
  // Records still resident in corrupt chunks after the salvage pass keep
  // the `quarantined` disposition in the conservation ledger (a winning
  // re-send would have reclassified them as stored during ingestion).
  durable_quarantine_records_ = salvage.records_quarantined_resident();
  return publish(logbook::borrow(logs), distinct_peers_out);
}

logbook::LogFile Manager::publish(std::span<const logbook::LogFile* const> logs,
                                  std::uint64_t* distinct_peers_out) const {
  // Tainted records never reach the published dataset: the merge skips
  // them and counts them into records_excluded_. With clock tracking on,
  // every merge is skew-corrected against the accumulated sightings and
  // audited into time_integrity_. Without it the historical merge runs
  // untouched (merge_logs_skew with zero observations is equivalent, but
  // keeping the old path makes the no-op visible).
  auto merged =
      !config_.track_clocks || state_.clock_obs.empty()
          ? logbook::merge_logs(logs, &records_excluded_)
          : logbook::merge_logs_skew(logs, state_.clock_obs, &time_integrity_,
                                     &records_excluded_);
  const auto distinct = anonymize::renumber_peers(merged);
  if (distinct_peers_out != nullptr) {
    *distinct_peers_out = distinct;
  }
  return merged;
}

ObservedFiles Manager::observed_files() const {
  std::vector<const ObservedCatalogue*> catalogues;
  for_each_honeypot(
      [&catalogues](const Honeypot& hp) { catalogues.push_back(&hp.observed()); });
  return observed_union(catalogues);
}

}  // namespace edhp::honeypot
