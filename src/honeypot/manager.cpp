#include "honeypot/manager.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "anonymize/name_anonymizer.hpp"
#include "anonymize/renumber.hpp"
#include "common/bytes.hpp"
#include "logbook/log_io.hpp"
#include "proto/udp_messages.hpp"

namespace edhp::honeypot {
namespace {

using logbook::JournalEntryType;

// --- Journal payload codecs ------------------------------------------------
// Little-endian, built on the same bounds-checked ByteWriter/ByteReader as
// the wire codecs. Payloads are versionless: the frame type IS the schema
// version (new layouts get new types).

void put_server(ByteWriter& w, const ServerRef& s) {
  w.u64(s.node);
  w.str16(s.name);
  w.u16(s.port);
}

ServerRef get_server(ByteReader& r) {
  ServerRef s;
  s.node = static_cast<net::NodeId>(r.u64());
  s.name = r.str16();
  s.port = r.u16();
  return s;
}

void put_files(ByteWriter& w, const std::vector<AdvertisedFile>& files) {
  w.u32(static_cast<std::uint32_t>(files.size()));
  for (const auto& f : files) {
    w.bytes(f.id.bytes());
    w.str16(f.name);
    w.u32(f.size);
  }
}

std::vector<AdvertisedFile> get_files(ByteReader& r) {
  std::vector<AdvertisedFile> files(r.u32());
  for (auto& f : files) {
    FileId::Bytes id{};
    const auto raw = r.bytes(id.size());
    std::copy(raw.begin(), raw.end(), id.begin());
    f.id = FileId(id);
    f.name = r.str16();
    f.size = r.u32();
  }
  return files;
}

/// Cap on displaced-slot references inside one quarantine journal frame
/// (bounds the frame; a fleet larger than this keeps its overflow slots on
/// the quarantined server, which still yields quarantined-record evidence).
constexpr std::size_t kQuarantineRefCap = 64;

}  // namespace

Manager::Manager(net::Network& network, ManagerConfig config)
    : net_(network),
      config_(std::move(config)),
      spool_store_(config_.spool_store ? config_.spool_store
                                       : std::make_shared<logbook::SpoolStore>()) {}

Manager::~Manager() { stop(); }

void Manager::journal_append(JournalEntryType type,
                             std::span<const std::uint8_t> payload) {
  if (config_.journal) {
    config_.journal->append(type, payload);
  }
}

void Manager::wire_spool_sink(Slot& slot) {
  if (!config_.spool.enabled) return;
  // Gathering channel: verify + ingest each chunk (deduping re-sends and
  // quarantining corrupted payloads) and acknowledge after the transfer
  // round-trip, so a crash inside the ack window exercises the
  // at-least-once path. Quarantined chunks are never acknowledged: the
  // honeypot keeps them spooled for a later re-send.
  Honeypot* hp = slot.honeypot.get();
  hp->set_spool_sink([this, hp](const logbook::LogChunk& chunk, bool fresh) {
    spool_store_->set_header(chunk.honeypot, hp->log().header);
    const auto outcome = spool_store_->ingest(chunk);
    if (outcome == logbook::SpoolStore::Ingest::quarantined) return;
    if (outcome == logbook::SpoolStore::Ingest::stored) {
      ByteWriter w;
      w.u16(chunk.honeypot);
      w.u32(chunk.epoch);
      w.u64(chunk.seq);
      w.u32(static_cast<std::uint32_t>(chunk.records.size()));
      journal_append(JournalEntryType::chunk_stored, w.view());
      auto& frontier = ack_frontier_[chunk.honeypot];
      frontier = std::max(frontier, chunk.seq + 1);
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
    net_.simulation().schedule_in(config_.spool.ack_delay, [hp, seq, credit] {
      hp->ack_spooled(seq);
      if (credit > 0) hp->resend_spool(std::size_t{1});
    });
  });
}

void Manager::record_clock_observation(std::uint16_t hp_id, Time local_time) {
  if (!config_.track_clocks) return;
  logbook::ClockObservation obs;
  obs.honeypot = hp_id;
  obs.true_time = net_.simulation().now();
  obs.local_time = local_time;
  clock_obs_.push_back(obs);
  ByteWriter w;
  w.u16(obs.honeypot);
  w.u64(std::bit_cast<std::uint64_t>(obs.true_time));
  w.u64(std::bit_cast<std::uint64_t>(obs.local_time));
  journal_append(JournalEntryType::clock_observation, w.view());
}

void Manager::wire_degrade_sink(Slot& slot) {
  // Overload transitions are control-plane state like any other: journaled
  // when they happen, so a recovered manager (and edhp_inspect degrade) can
  // audit which honeypots were degraded and what they shed. Cleared by
  // crash() alongside the spool sink (the lambda captures `this`).
  Honeypot* hp = slot.honeypot.get();
  hp->set_degrade_sink([this, hp](bool entered, budget::DegradeReason reason) {
    const auto& stats = hp->degrade_stats();
    ByteWriter w;
    w.u16(hp->config().id);
    if (entered) {
      w.u8(static_cast<std::uint8_t>(reason));
      w.u64(hp->spool_resident_bytes());
      w.u64(hp->unspooled_tail());
      journal_append(JournalEntryType::degrade_enter, w.view());
    } else {
      w.u64(stats.records_shed);
      w.u64(stats.chunks_compacted);
      w.u64(stats.backpressure_cuts);
      journal_append(JournalEntryType::degrade_exit, w.view());
    }
  });
}

void Manager::wire_probe_sink(Slot& slot) {
  // Probe verdicts are control-plane input: journaled and scored here. The
  // honeypot severs this sink in crash() (a verdict racing a relaunch must
  // not reach wiring that captures a possibly-dead incarnation), and
  // adoption re-installs it.
  Honeypot* hp = slot.honeypot.get();
  hp->set_probe_sink([this, hp](bool confirmed) {
    on_probe_verdict(hp->config().id, confirmed);
  });
}

void Manager::on_probe_verdict(std::uint16_t hp_id, bool confirmed) {
  const Slot* slot = nullptr;
  for (const auto& s : fleet_) {
    if (s.id == hp_id) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) return;
  const std::string name = slot->server.name;
  {
    ByteWriter w;
    w.u16(hp_id);
    w.u8(confirmed ? 1 : 0);
    w.str16(name);
    journal_append(JournalEntryType::probe_verdict, w.view());
  }
  auto& health = health_[name];
  if (confirmed) {
    ++health.confirms;
    health.score = std::max(0.0, health.score - config_.probe_confirm_decay);
    return;
  }
  ++health.misses;
  health.score += 1.0;
  if (config_.quarantine_threshold > 0 &&
      health.score >= config_.quarantine_threshold &&
      !server_quarantined(name)) {
    quarantine_server(name);
  }
}

void Manager::quarantine_server(const std::string& name) {
  // Only bench the liar if there is somewhere honest to go; without a
  // distinct backup the fleet keeps measuring (its defenses still taint
  // whatever the liar pollutes) and the score keeps accumulating.
  std::vector<const ServerRef*> targets;
  for (const auto& b : backups_) {
    if (b.name != name) targets.push_back(&b);
  }
  if (targets.empty()) return;
  Quarantine q;
  q.server_name = name;
  q.until = net_.simulation().now() + config_.quarantine_cooloff;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    if (fleet_[i].server.name != name) continue;
    if (q.displaced.empty()) q.original = fleet_[i].server;
    if (q.displaced.size() < kQuarantineRefCap) {
      q.displaced.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (q.displaced.empty()) return;
  ++integrity_.servers_quarantined;
  health_[name].score = 0;  // fresh ledger when it comes back
  {
    ByteWriter w;
    w.str16(q.server_name);
    put_server(w, q.original);
    w.u64(std::bit_cast<std::uint64_t>(q.until));
    w.u32(static_cast<std::uint32_t>(q.displaced.size()));
    for (const auto index : q.displaced) {
      w.u32(index);
    }
    journal_append(JournalEntryType::server_quarantine, w.view());
  }
  const std::vector<std::uint32_t> displaced = q.displaced;
  quarantines_.push_back(std::move(q));
  for (const auto index : displaced) {
    reassign(index, *targets[next_backup_++ % targets.size()]);
  }
}

void Manager::service_quarantines(Time now) {
  for (std::size_t qi = 0; qi < quarantines_.size();) {
    if (quarantines_[qi].until > now) {
      ++qi;
      continue;
    }
    const Quarantine q = std::move(quarantines_[qi]);
    quarantines_.erase(quarantines_.begin() + static_cast<std::ptrdiff_t>(qi));
    ++integrity_.servers_reinstated;
    {
      ByteWriter w;
      w.str16(q.server_name);
      journal_append(JournalEntryType::server_reinstate, w.view());
    }
    // Cooloff served: move exactly the displaced slots back where the
    // measurement plan had them (the backup was a stopgap, not a new home).
    for (const auto index : q.displaced) {
      if (index < fleet_.size()) {
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
    config.id = static_cast<std::uint16_t>(fleet_.size());
  }
  Slot slot;
  slot.id = config.id;
  slot.host = host;
  slot.honeypot = std::make_unique<Honeypot>(net_, host, std::move(config));
  slot.server = server;
  wire_spool_sink(slot);
  wire_degrade_sink(slot);
  wire_probe_sink(slot);
  {
    ByteWriter w;
    w.u16(slot.id);
    w.u64(host);
    put_server(w, server);
    journal_append(JournalEntryType::launch, w.view());
  }
  slot.honeypot->connect_to_server(server);
  fleet_.push_back(std::move(slot));
  return fleet_.size() - 1;
}

void Manager::set_backup_servers(std::vector<ServerRef> backups) {
  backups_ = std::move(backups);
  next_backup_ = 0;
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(backups_.size()));
  for (const auto& b : backups_) {
    put_server(w, b);
  }
  journal_append(JournalEntryType::backups, w.view());
}

void Manager::survey_servers(std::vector<ServerRef> candidates,
                             net::NodeId probe_node, Duration timeout,
                             SurveyCallback done) {
  struct Survey {
    std::vector<ServerRef> candidates;
    std::vector<std::optional<proto::ServStatResponse>> answers;
    bool closed = false;  ///< timeout fired; retransmit rounds stand down
  };
  auto survey = std::make_shared<Survey>();
  survey->candidates = std::move(candidates);
  survey->answers.resize(survey->candidates.size());

  // The probe callbacks deliberately capture the network (and the shared
  // counters), never `this`: a survey outstanding while the manager crashes
  // (and possibly a new incarnation replaces it) must still time out and
  // deliver cleanly.
  auto counters = survey_counters_;
  net_.listen_datagram(probe_node, [&net = net_, survey, counters, probe_node](
                                       net::NodeId, net::Bytes datagram) {
    proto::AnyUdpMessage msg;
    try {
      msg = proto::decode_udp(datagram);
    } catch (const DecodeError&) {
      net.note_malformed(probe_node);
      return;
    }
    if (const auto* res = std::get_if<proto::ServStatResponse>(&msg)) {
      // The challenge encodes the candidate index.
      if (res->challenge < survey->answers.size()) {
        if (survey->answers[res->challenge]) {
          // Late duplicate (a retransmitted request answered twice, or a
          // network-level duplicated datagram): the first copy won.
          ++counters->dups;
        } else {
          survey->answers[res->challenge] = *res;
        }
      }
    }
  });

  for (std::size_t i = 0; i < survey->candidates.size(); ++i) {
    proto::ServStatRequest req;
    req.challenge = static_cast<std::uint32_t>(i);
    net_.send_datagram(probe_node, survey->candidates[i].node,
                       proto::encode_udp(req));
  }

  // Capped retransmit rounds: each re-asks only the still-silent candidates,
  // so one lost UDP request costs a retry instead of a missing survey row.
  // Default-off (survey_retries = 0) keeps the historical single-shot
  // survey's network draw sequence bit-exact.
  for (std::size_t round = 1; round <= config_.survey_retries; ++round) {
    net_.simulation().schedule_in(
        config_.survey_retry_interval * static_cast<double>(round),
        [&net = net_, survey, counters, probe_node] {
          if (survey->closed) return;
          for (std::size_t i = 0; i < survey->candidates.size(); ++i) {
            if (survey->answers[i]) continue;
            proto::ServStatRequest req;
            req.challenge = static_cast<std::uint32_t>(i);
            ++counters->retries;
            net.send_datagram(probe_node, survey->candidates[i].node,
                              proto::encode_udp(req));
          }
        });
  }

  net_.simulation().schedule_in(
      timeout, [&net = net_, survey, probe_node, done = std::move(done)] {
        survey->closed = true;
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
  auto& slot = fleet_.at(index);
  slot.server = server;
  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(index));
    put_server(w, server);
    journal_append(JournalEntryType::reassign, w.view());
  }
  slot.honeypot->disconnect();
  slot.honeypot->connect_to_server(server);
  if (!slot.honeypot->advertised().empty()) {
    // Re-push the current list once the new login completes: advertise()
    // re-sends OFFER-FILES when connected, and the keep-alive covers the
    // race where login is still in flight.
    slot.honeypot->advertise(
        std::vector<AdvertisedFile>(slot.honeypot->advertised()));
  } else if (!slot.files.empty()) {
    slot.honeypot->advertise(slot.files);
  }
}

void Manager::advertise(std::size_t index, std::vector<AdvertisedFile> files) {
  auto& slot = fleet_.at(index);
  slot.files = files;
  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(index));
    put_files(w, files);
    journal_append(JournalEntryType::advertise, w.view());
  }
  slot.honeypot->advertise(std::move(files));
}

void Manager::advertise_all(std::vector<AdvertisedFile> files) {
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    advertise(i, files);
  }
}

void Manager::start() {
  if (poll_timer_) return;
  if (!started_) {
    started_ = true;
    journal_append(JournalEntryType::start, {});
  }
  poll_timer_ = std::make_unique<sim::PeriodicTimer>(
      net_.simulation(), config_.status_poll, [this] { poll(); });
  poll_timer_->start();
}

void Manager::stop() {
  poll_timer_.reset();
  if (started_) {
    started_ = false;
    journal_append(JournalEntryType::stop, {});
  }
  for (auto& slot : fleet_) {
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
  for (auto& slot : fleet_) {
    slot.honeypot->set_spool_sink(nullptr);
    slot.honeypot->set_degrade_sink(nullptr);
    slot.honeypot->set_probe_sink(nullptr);
    orphans_.push_back(std::move(slot.honeypot));
  }
  fleet_.clear();
  backups_.clear();
  next_backup_ = 0;
  relaunches_ = 0;
  started_ = false;
  ack_frontier_.clear();
  recovery_ = RecoveryStats{};
  health_.clear();
  quarantines_.clear();
  integrity_ = IntegrityStats{};
  records_excluded_ = 0;
  clock_obs_.clear();
  time_integrity_ = logbook::TimeIntegrityStats{};
  // The counters shared with in-flight survey closures survive the crash on
  // purpose (a pending retransmit round still fires and still counts); only
  // this incarnation's handle to them is re-zeroed.
  survey_counters_ = std::make_shared<SurveyCounters>();
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
        static_cast<std::uint8_t>(JournalEntryType::checkpoint)) {
      begin = i;
    }
  }

  std::uint64_t applied = 0;
  for (std::size_t i = begin; i < scan.entries.size(); ++i) {
    const auto& entry = scan.entries[i];
    ByteReader r(entry.payload);
    try {
      switch (static_cast<JournalEntryType>(entry.type)) {
        case JournalEntryType::checkpoint: {
          relaunches_ = r.u64();
          next_backup_ = r.u64();
          recovery_.escalations = r.u64();
          recovery_.heartbeat_escalations = r.u64();
          recovery_.re_advertise_repairs = r.u64();
          recovery_.manager_recoveries = r.u64();
          recovery_.manager_downtime = std::bit_cast<double>(r.u64());
          recovery_.orphans_readopted = r.u64();
          started_ = r.u8() != 0;
          backups_.clear();
          for (std::uint32_t n = r.u32(); n > 0; --n) {
            backups_.push_back(get_server(r));
          }
          fleet_.clear();
          for (std::uint32_t n = r.u32(); n > 0; --n) {
            Slot slot;
            slot.id = r.u16();
            slot.host = static_cast<net::NodeId>(r.u64());
            slot.server = get_server(r);
            slot.consecutive_failures = r.u32();
            slot.files = get_files(r);
            fleet_.push_back(std::move(slot));
          }
          ack_frontier_.clear();
          for (std::uint32_t n = r.u32(); n > 0; --n) {
            const auto hp = r.u16();
            ack_frontier_[hp] = r.u64();
          }
          // Byzantine-defense sections, appended by newer checkpoints;
          // absent (remaining() == 0) in pre-quarantine frames.
          integrity_ = IntegrityStats{};
          health_.clear();
          quarantines_.clear();
          clock_obs_.clear();
          if (r.remaining() > 0) {
            integrity_.servers_quarantined = r.u64();
            integrity_.servers_reinstated = r.u64();
            for (std::uint32_t n = r.u32(); n > 0; --n) {
              auto name = r.str16();
              ServerHealth health;
              health.score = std::bit_cast<double>(r.u64());
              health.misses = r.u64();
              health.confirms = r.u64();
              health_.emplace(std::move(name), health);
            }
            for (std::uint32_t n = r.u32(); n > 0; --n) {
              Quarantine q;
              q.server_name = r.str16();
              q.original = get_server(r);
              q.until = std::bit_cast<double>(r.u64());
              for (std::uint32_t m = r.u32(); m > 0; --m) {
                q.displaced.push_back(r.u32());
              }
              quarantines_.push_back(std::move(q));
            }
          }
          // Clock-observation section (appended after the byzantine
          // sections by newer checkpoints; absent in older frames).
          if (r.remaining() > 0) {
            for (std::uint32_t n = r.u32(); n > 0; --n) {
              logbook::ClockObservation obs;
              obs.honeypot = r.u16();
              obs.true_time = std::bit_cast<double>(r.u64());
              obs.local_time = std::bit_cast<double>(r.u64());
              clock_obs_.push_back(obs);
            }
          }
          break;
        }
        case JournalEntryType::launch: {
          Slot slot;
          slot.id = r.u16();
          slot.host = static_cast<net::NodeId>(r.u64());
          slot.server = get_server(r);
          fleet_.push_back(std::move(slot));
          break;
        }
        case JournalEntryType::reassign: {
          const auto index = r.u32();
          const auto server = get_server(r);
          if (index < fleet_.size()) fleet_[index].server = server;
          break;
        }
        case JournalEntryType::advertise: {
          const auto index = r.u32();
          auto files = get_files(r);
          if (index < fleet_.size()) fleet_[index].files = std::move(files);
          break;
        }
        case JournalEntryType::backups: {
          backups_.clear();
          for (std::uint32_t n = r.u32(); n > 0; --n) {
            backups_.push_back(get_server(r));
          }
          next_backup_ = 0;
          break;
        }
        case JournalEntryType::start:
          started_ = true;
          break;
        case JournalEntryType::stop:
          started_ = false;
          break;
        case JournalEntryType::relaunch: {
          const auto index = r.u32();
          ++relaunches_;
          if (index < fleet_.size()) ++fleet_[index].consecutive_failures;
          break;
        }
        case JournalEntryType::escalate: {
          const auto index = r.u32();
          const auto reason = static_cast<EscalateReason>(r.u8());
          const bool used_backup = r.u8() != 0;
          if (index < fleet_.size()) fleet_[index].consecutive_failures = 0;
          if (reason == EscalateReason::heartbeat) {
            ++recovery_.heartbeat_escalations;
          }
          if (used_backup) {
            if (reason == EscalateReason::failures) ++recovery_.escalations;
            ++next_backup_;
          }
          break;
        }
        case JournalEntryType::repair:
          ++recovery_.re_advertise_repairs;
          break;
        case JournalEntryType::chunk_stored: {
          const auto hp = r.u16();
          [[maybe_unused]] const auto epoch = r.u32();  // audit only
          const auto seq = r.u64();
          auto& frontier = ack_frontier_[hp];
          frontier = std::max(frontier, seq + 1);
          break;
        }
        case JournalEntryType::recovered: {
          recovery_.manager_downtime += std::bit_cast<double>(r.u64());
          recovery_.orphans_readopted += r.u32();
          ++recovery_.manager_recoveries;
          break;
        }
        case JournalEntryType::degrade_enter:
        case JournalEntryType::degrade_exit:
          // Audit-only: the honeypot processes own the live degrade state
          // and counters (they survive a manager crash); replaying these
          // would double-count. They exist for edhp_inspect degrade.
          break;
        case JournalEntryType::probe_verdict: {
          // Rebuild the health ledger with the live scoring math, but never
          // act on it here: a threshold crossing has its own quarantine
          // entry (replay reconstructs state, it does not re-decide).
          [[maybe_unused]] const auto hp = r.u16();
          const bool confirmed = r.u8() != 0;
          auto& health = health_[r.str16()];
          if (confirmed) {
            ++health.confirms;
            health.score =
                std::max(0.0, health.score - config_.probe_confirm_decay);
          } else {
            ++health.misses;
            health.score += 1.0;
          }
          break;
        }
        case JournalEntryType::server_quarantine: {
          Quarantine q;
          q.server_name = r.str16();
          q.original = get_server(r);
          q.until = std::bit_cast<double>(r.u64());
          for (std::uint32_t n = r.u32(); n > 0; --n) {
            q.displaced.push_back(r.u32());
          }
          ++integrity_.servers_quarantined;
          health_[q.server_name].score = 0;
          std::erase_if(quarantines_, [&](const Quarantine& other) {
            return other.server_name == q.server_name;
          });
          quarantines_.push_back(std::move(q));
          break;
        }
        case JournalEntryType::server_reinstate: {
          const auto name = r.str16();
          ++integrity_.servers_reinstated;
          std::erase_if(quarantines_, [&](const Quarantine& other) {
            return other.server_name == name;
          });
          break;
        }
        case JournalEntryType::clock_observation: {
          logbook::ClockObservation obs;
          obs.honeypot = r.u16();
          obs.true_time = std::bit_cast<double>(r.u64());
          obs.local_time = std::bit_cast<double>(r.u64());
          clock_obs_.push_back(obs);
          break;
        }
      }
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

  std::vector<Slot> adopted;
  adopted.reserve(fleet_.size());
  std::size_t count = 0;
  for (auto& slot : fleet_) {
    const auto it = by_id.find(slot.id);
    if (it == by_id.end()) {
      // The journal knows this honeypot but its process did not survive the
      // outage (host wiped, never relaunched): strike it from the fleet.
      // Its spooled records stay in the durable store.
      continue;
    }
    slot.honeypot = std::move(it->second);
    by_id.erase(it);
    wire_spool_sink(slot);
    wire_degrade_sink(slot);
    wire_probe_sink(slot);
    // Chunks the journal proves durable are acknowledged on the spot (no
    // round-trip needed: the recovery read its own store); the rest of the
    // local spool is re-sent and deduped by (honeypot, seq).
    const auto frontier_it = ack_frontier_.find(slot.id);
    if (frontier_it != ack_frontier_.end()) {
      std::vector<std::uint64_t> proven;
      for (const auto& chunk : slot.honeypot->pending_chunks()) {
        if (chunk.seq < frontier_it->second) proven.push_back(chunk.seq);
      }
      for (const auto seq : proven) {
        slot.honeypot->ack_spooled(seq);
      }
    }
    if (config_.resend_credit > 0) {
      // Credit-paced recovery: open the window; each ack tops it up by one
      // (see wire_spool_sink), so the backlog drains without re-creating
      // the overload spike that killed the previous incarnation.
      slot.honeypot->resend_spool(std::size_t{config_.resend_credit});
    } else {
      slot.honeypot->resend_spool();
    }
    adopted.push_back(std::move(slot));
    ++count;
  }
  // Orphans the journal never heard of (its tail was torn before their
  // launch entry survived) cannot be reattached to a slot: they are
  // retired; their spooled chunks are already in the store.
  fleet_ = std::move(adopted);
  return count;
}

void Manager::recover(Time crashed_at) {
  if (!config_.journal) {
    throw std::logic_error("Manager::recover requires ManagerConfig::journal");
  }
  replay_journal();
  const auto adopted = adopt_orphans();
  recovery_.orphans_readopted += adopted;
  ++recovery_.manager_recoveries;
  const Time now = net_.simulation().now();
  const double downtime = crashed_at >= 0 ? now - crashed_at : 0.0;
  recovery_.manager_downtime += downtime;
  {
    ByteWriter w;
    w.u64(std::bit_cast<std::uint64_t>(downtime));
    w.u32(static_cast<std::uint32_t>(adopted));
    journal_append(JournalEntryType::recovered, w.view());
  }
  // Compact: the next replay starts from the state we just rebuilt.
  checkpoint();
  if (started_) {
    poll_timer_ = std::make_unique<sim::PeriodicTimer>(
        net_.simulation(), config_.status_poll, [this] { poll(); });
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
  ByteWriter w;
  w.u64(relaunches_);
  w.u64(next_backup_);
  w.u64(recovery_.escalations);
  w.u64(recovery_.heartbeat_escalations);
  w.u64(recovery_.re_advertise_repairs);
  w.u64(recovery_.manager_recoveries);
  w.u64(std::bit_cast<std::uint64_t>(recovery_.manager_downtime));
  w.u64(recovery_.orphans_readopted);
  w.u8(started_ ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(backups_.size()));
  for (const auto& b : backups_) {
    put_server(w, b);
  }
  w.u32(static_cast<std::uint32_t>(fleet_.size()));
  for (const auto& slot : fleet_) {
    w.u16(slot.id);
    w.u64(slot.host);
    put_server(w, slot.server);
    w.u32(static_cast<std::uint32_t>(slot.consecutive_failures));
    put_files(w, slot.files);
  }
  w.u32(static_cast<std::uint32_t>(ack_frontier_.size()));
  for (const auto& [hp, next] : ack_frontier_) {
    w.u16(hp);
    w.u64(next);
  }
  // Byzantine-defense sections (appended last so older readers — and the
  // hand-crafted checkpoint frames in test fixtures — keep replaying).
  w.u64(integrity_.servers_quarantined);
  w.u64(integrity_.servers_reinstated);
  w.u32(static_cast<std::uint32_t>(health_.size()));
  for (const auto& [name, health] : health_) {
    w.str16(name);
    w.u64(std::bit_cast<std::uint64_t>(health.score));
    w.u64(health.misses);
    w.u64(health.confirms);
  }
  w.u32(static_cast<std::uint32_t>(quarantines_.size()));
  for (const auto& q : quarantines_) {
    w.str16(q.server_name);
    put_server(w, q.original);
    w.u64(std::bit_cast<std::uint64_t>(q.until));
    w.u32(static_cast<std::uint32_t>(q.displaced.size()));
    for (const auto index : q.displaced) {
      w.u32(index);
    }
  }
  // Clock-observation section (appended after the byzantine sections, same
  // backward-compatibility contract: older frames simply end earlier).
  w.u32(static_cast<std::uint32_t>(clock_obs_.size()));
  for (const auto& obs : clock_obs_) {
    w.u16(obs.honeypot);
    w.u64(std::bit_cast<std::uint64_t>(obs.true_time));
    w.u64(std::bit_cast<std::uint64_t>(obs.local_time));
  }
  config_.journal->append(JournalEntryType::checkpoint, w.view());
}

// --- Watchdog --------------------------------------------------------------

Duration Manager::relaunch_backoff(std::size_t failures) const {
  if (config_.relaunch_backoff_base <= 0 || failures == 0) return 0;
  const double raw = config_.relaunch_backoff_base *
                     std::pow(2.0, static_cast<double>(failures - 1));
  return std::min(raw, config_.relaunch_backoff_cap);
}

bool Manager::covers(const std::vector<AdvertisedFile>& advertised,
                     const std::vector<AdvertisedFile>& ordered) {
  std::unordered_set<FileId> have;
  have.reserve(advertised.size());
  for (const auto& f : advertised) {
    have.insert(f.id);
  }
  return std::all_of(ordered.begin(), ordered.end(),
                     [&have](const AdvertisedFile& f) {
                       return have.contains(f.id);
                     });
}

void Manager::repair_advertised(std::size_t index) {
  // Ordered files first, then everything the honeypot grew on its own
  // (greedy harvest) that the order does not already contain.
  auto& slot = fleet_.at(index);
  std::vector<AdvertisedFile> full = slot.files;
  std::unordered_set<FileId> ordered_ids;
  ordered_ids.reserve(full.size());
  for (const auto& f : full) {
    ordered_ids.insert(f.id);
  }
  for (const auto& f : slot.honeypot->advertised()) {
    if (!ordered_ids.contains(f.id)) {
      full.push_back(f);
    }
  }
  ++recovery_.re_advertise_repairs;
  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(index));
    journal_append(JournalEntryType::repair, w.view());
  }
  slot.honeypot->advertise(std::move(full));
}

void Manager::escalate(std::size_t index, EscalateReason reason) {
  auto& slot = fleet_.at(index);
  slot.consecutive_failures = 0;
  slot.next_attempt_at = 0;
  const bool used_backup = !backups_.empty();
  if (reason == EscalateReason::heartbeat) {
    ++recovery_.heartbeat_escalations;
  }
  if (used_backup && reason == EscalateReason::failures) {
    ++recovery_.escalations;
  }
  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(index));
    w.u8(static_cast<std::uint8_t>(reason));
    w.u8(used_backup ? 1 : 0);
    journal_append(JournalEntryType::escalate, w.view());
  }
  if (!used_backup) {
    reassign(index, slot.server);  // reconnect in place
    return;
  }
  reassign(index, backups_[next_backup_++ % backups_.size()]);
}

void Manager::poll() {
  service_quarantines(net_.simulation().now());
  if (!config_.auto_relaunch) return;
  const Time now = net_.simulation().now();
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    auto& slot = fleet_[i];
    auto& hp = *slot.honeypot;
    const Status status = hp.status();

    if (status == Status::connected) {
      // Every status poll of a live honeypot doubles as a clock sighting:
      // the exchange is bounded-delay, so "its local clock reads X while
      // true time reads now" anchors the skew reconstruction.
      record_clock_observation(slot.id, hp.local_now());
      if (slot.down_since >= 0) {
        recovery_.total_downtime += now - slot.down_since;
        slot.down_since = -1.0;
        slot.consecutive_failures = 0;
        slot.next_attempt_at = 0;
      }
      if (config_.heartbeat_timeout > 0 &&
          now - hp.last_heartbeat() > config_.heartbeat_timeout) {
        // Zombie session: status says connected but nothing has happened
        // for longer than any keep-alive period allows.
        escalate(i, EscalateReason::heartbeat);
        continue;
      }
      // A honeypot that died mid-OFFER (or whose advertise order was lost
      // while it was dead) is missing part of its ordered list: repair it.
      if (!slot.files.empty() && !covers(hp.advertised(), slot.files)) {
        repair_advertised(i);
      }
      continue;
    }

    if (status != Status::dead) {
      // connecting/idle: the honeypot is handling itself (login in flight
      // or self-retrying); only interfere when its heartbeat went stale.
      if (config_.heartbeat_timeout > 0 && status == Status::connecting &&
          now - hp.last_heartbeat() > config_.heartbeat_timeout) {
        escalate(i, EscalateReason::heartbeat);
      }
      continue;
    }

    // Dead. Gate relaunch attempts behind the backoff so a honeypot whose
    // server is down does not get reconnected (and recounted) every tick.
    if (slot.down_since < 0) {
      slot.down_since = now;
    }
    if (now < slot.next_attempt_at) {
      ++recovery_.deferred;
      continue;
    }
    if (config_.escalate_after > 0 && !backups_.empty() &&
        slot.consecutive_failures >= config_.escalate_after) {
      escalate(i, EscalateReason::failures);
      continue;
    }
    ++relaunches_;
    ++slot.consecutive_failures;
    slot.next_attempt_at = now + relaunch_backoff(slot.consecutive_failures);
    {
      ByteWriter w;
      w.u32(static_cast<std::uint32_t>(i));
      journal_append(JournalEntryType::relaunch, w.view());
    }
    // Relaunch: reconnect to the assigned server and re-advertise the file
    // list previously ordered (plus anything the honeypot grew itself in
    // greedy mode, which it kept).
    hp.connect_to_server(slot.server);
    if (!slot.files.empty() && !covers(hp.advertised(), slot.files)) {
      repair_advertised(i);
    }
  }
}

RecoveryStats Manager::recovery_stats() const {
  RecoveryStats out = recovery_;
  out.relaunches = relaunches_;
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
  out.probe_retries = survey_counters_->retries;
  out.probe_dups_suppressed = survey_counters_->dups;
  const auto tally = [&](const Honeypot& hp) {
    out.honeypot_retries += hp.retries();
    out.records_lost_tail += hp.records_lost_tail();
    out.probe_retries += hp.probe_retransmits();
    out.probe_dups_suppressed += hp.probe_dup_replies();
    kept += hp.log().records.size();
  };
  for (const auto& slot : fleet_) {
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
  IntegrityStats out = integrity_;
  out.records_excluded = records_excluded_;
  for_each_honeypot(
      [&out](const Honeypot& hp) { out += hp.integrity_stats(); });
  return out;
}

double Manager::server_health(const std::string& name) const {
  const auto it = health_.find(name);
  return it == health_.end() ? 0.0 : it->second.score;
}

bool Manager::server_quarantined(const std::string& name) const {
  return std::any_of(
      quarantines_.begin(), quarantines_.end(),
      [&name](const Quarantine& q) { return q.server_name == name; });
}

net::DefenseStats Manager::defense_stats() const {
  net::DefenseStats out;
  for_each_honeypot([&out](const Honeypot& hp) { out += hp.defense_stats(); });
  return out;
}

Honeypot& Manager::honeypot(std::size_t index) {
  return *fleet_.at(index).honeypot;
}

const Honeypot& Manager::honeypot(std::size_t index) const {
  return *fleet_.at(index).honeypot;
}

std::vector<logbook::LogFile> Manager::collect_logs() const {
  std::vector<logbook::LogFile> logs;
  logs.reserve(fleet_.size());
  for (const auto& slot : fleet_) {
    logs.push_back(slot.honeypot->log());
  }
  return logs;
}

std::vector<std::string> Manager::persist_logs(const std::string& directory) const {
  std::vector<std::string> paths;
  paths.reserve(fleet_.size());
  for (const auto& slot : fleet_) {
    const auto path = directory + "/hp-" +
                      std::to_string(slot.honeypot->config().id) + ".edhplog";
    logbook::save(path, slot.honeypot->log());
    paths.push_back(path);
  }
  return paths;
}

logbook::LogFile Manager::merged_anonymized(std::uint64_t* distinct_peers_out) const {
  auto logs = collect_logs();
  std::uint64_t excluded = 0;
  for (auto& log : logs) {
    const auto before = log.records.size();
    std::erase_if(log.records,
                  [](const logbook::LogRecord& r) { return r.tainted(); });
    excluded += before - log.records.size();
  }
  records_excluded_ = excluded;
  // Live merges read in-memory logs: nothing can sit in chunk quarantine.
  durable_quarantine_records_ = 0;
  auto merged = merge_with_clock_correction(logs);
  const auto distinct = anonymize::renumber_peers(merged);
  if (distinct_peers_out != nullptr) {
    *distinct_peers_out = distinct;
  }
  return merged;
}

logbook::LogFile Manager::merge_with_clock_correction(
    std::span<const logbook::LogFile> logs) const {
  // With clock tracking on, every merge is skew-corrected against the
  // accumulated sightings and audited into time_integrity_. Without it the
  // historical merge runs untouched (merge_logs_skew with zero observations
  // is equivalent, but keeping the old path makes the no-op visible).
  if (!config_.track_clocks || clock_obs_.empty()) {
    return logbook::merge_logs(logs);
  }
  return logbook::merge_logs_skew(logs, clock_obs_, &time_integrity_);
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
  auto logs = salvage.reassemble_all();
  // Records still resident in corrupt chunks after the salvage pass keep
  // the `quarantined` disposition in the conservation ledger (a winning
  // re-send would have reclassified them as stored during ingestion).
  durable_quarantine_records_ = salvage.records_quarantined_resident();
  std::uint64_t excluded = 0;
  for (auto& log : logs) {
    const auto before = log.records.size();
    std::erase_if(log.records,
                  [](const logbook::LogRecord& r) { return r.tainted(); });
    excluded += before - log.records.size();
  }
  records_excluded_ = excluded;
  auto merged = merge_with_clock_correction(logs);
  const auto distinct = anonymize::renumber_peers(merged);
  if (distinct_peers_out != nullptr) {
    *distinct_peers_out = distinct;
  }
  return merged;
}

std::vector<std::string> Manager::export_observed_names(
    std::uint64_t threshold) const {
  std::vector<std::string> corpus;
  for_each_honeypot([&corpus](const Honeypot& hp) {
    const auto& seen = hp.observed();
    for (std::size_t i = 0; i < seen.size(); ++i) {
      corpus.emplace_back(seen.name(i));
    }
  });
  anonymize::NameAnonymizer anonymizer(corpus, threshold);
  std::vector<std::string> out;
  out.reserve(corpus.size());
  for (const auto& name : corpus) {
    out.push_back(anonymizer.anonymize(name));
  }
  return out;
}

ObservedFiles Manager::observed_files() const {
  std::vector<const ObservedCatalogue*> catalogues;
  for_each_honeypot(
      [&catalogues](const Honeypot& hp) { catalogues.push_back(&hp.observed()); });
  return observed_union(catalogues);
}

}  // namespace edhp::honeypot
