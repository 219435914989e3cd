// Ablation: control-plane journal cost and recovery replay time.
//
// The crash-tolerant manager buys its durability with a write-ahead journal:
// every launch/reassign/advertise/escalation appends one checksummed frame,
// and recovery replays the suffix after the last checkpoint. This harness
// measures both sides of that trade:
//   1. raw append throughput (the steady-state tax on the control plane);
//   2. recover() wall time vs fleet size, before and after a checkpoint
//      compacts the replay window.
//
// Expected: appends run in the millions per second (the journal is never the
// bottleneck), replay time grows linearly with the journal suffix, and the
// post-checkpoint recovery replays a near-constant number of entries
// regardless of history length.

#include <chrono>

#include "bench_common.hpp"
#include "logbook/journal.hpp"
#include "server/server.hpp"

using namespace edhp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct AppendOutcome {
  double entries_per_sec;
  double mb_per_sec;
};

/// Steady-state journal tax: append `n` representative frames.
AppendOutcome bench_append(std::size_t n) {
  logbook::Journal journal;
  std::vector<std::uint8_t> payload(48);  // typical advertise/checkpoint row
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    payload[0] = static_cast<std::uint8_t>(i);
    journal.append(logbook::JournalEntryType::advertise, payload);
  }
  const double elapsed = seconds_since(start);
  return AppendOutcome{
      static_cast<double>(n) / elapsed,
      static_cast<double>(journal.size_bytes()) / (1024.0 * 1024.0) / elapsed};
}

struct ReplayOutcome {
  std::size_t fleet;
  std::uint64_t entries;       ///< journal length at first crash
  std::uint64_t bytes;
  std::uint64_t replayed;      ///< entries applied by the first recovery
  double recover_ms;           ///< first recovery (full history)
  std::uint64_t replayed_ckpt; ///< entries applied after a checkpoint
  double recover_ckpt_ms;      ///< second recovery (checkpoint-compacted)
};

/// Build a fleet of `n` honeypots, churn the control plane to grow the
/// journal, then crash and time the recovery replay twice: once over the
/// full history and once from the checkpoint recover() itself wrote.
ReplayOutcome bench_replay(std::size_t n, std::size_t churn_rounds) {
  sim::Simulation s{421};
  net::Network net{s};
  const auto server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  const honeypot::ServerRef ref{server_node, "srv", 4661};
  const auto backup_node = net.add_node(true);
  server::Server backup{net, backup_node, {}};
  const honeypot::ServerRef backup_ref{backup_node, "backup", 4661};
  server.start();
  backup.start();

  honeypot::ManagerConfig mc;
  mc.journal = std::make_shared<logbook::Journal>();
  mc.spool_store = std::make_shared<logbook::SpoolStore>();
  honeypot::Manager manager(net, mc);
  manager.set_backup_servers({backup_ref});
  for (std::size_t i = 0; i < n; ++i) {
    honeypot::HoneypotConfig c;
    c.name = "hp-" + std::to_string(i);
    c.strategy = honeypot::ContentStrategy::no_content;
    manager.launch(std::move(c), net.add_node(true), ref);
  }
  s.run_until(s.now() + 180.0);

  // Control-plane churn: every round re-advertises each honeypot's bait and
  // bounces a rotating member between the two servers.
  for (std::size_t round = 0; round < churn_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      honeypot::AdvertisedFile f{
          FileId::from_words(i + 1, round + 1),
          "bait-" + std::to_string(round) + ".avi", 700 * 1024 * 1024};
      manager.advertise(i, {f});
    }
    manager.reassign(round % n, round % 2 == 0 ? backup_ref : ref);
    s.run_until(s.now() + 60.0);
  }

  ReplayOutcome out{};
  out.fleet = n;
  out.entries = manager.recovery_stats().journal_entries;
  out.bytes = manager.recovery_stats().journal_bytes;

  manager.crash();
  auto start = std::chrono::steady_clock::now();
  manager.recover(s.now());
  out.recover_ms = 1000.0 * seconds_since(start);
  out.replayed = manager.recovery_stats().journal_replayed;

  // recover() checkpointed, so a second crash replays only the tail.
  manager.crash();
  start = std::chrono::steady_clock::now();
  manager.recover(s.now());
  out.recover_ckpt_ms = 1000.0 * seconds_since(start);
  out.replayed_ckpt = manager.recovery_stats().journal_replayed;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::parse_options(argc, argv);  // accept the standard flags
  std::cout << "ablation: manager journal append cost and recovery replay "
               "time vs fleet size\n\n";

  const auto append = bench_append(1'000'000);
  std::cout << "  append: "
            << static_cast<std::uint64_t>(append.entries_per_sec)
            << " entries/s (" << append.mb_per_sec << " MB/s)\n\n";

  ReplayOutcome paper{};  // the 24-honeypot row feeds the JSON line
  for (const std::size_t fleet : {8u, 24u, 64u}) {
    const auto o = bench_replay(fleet, 50);
    if (fleet == 24u) paper = o;
    std::cout << "  fleet " << o.fleet << ": journal " << o.entries
              << " entries (" << o.bytes << " bytes), first recovery replayed "
              << o.replayed << " in " << o.recover_ms
              << " ms, post-checkpoint recovery replayed " << o.replayed_ckpt
              << " in " << o.recover_ckpt_ms << " ms\n";
  }

  std::cout << "\nexpected: replay time scales with journal length (itself "
               "linear in fleet x churn); the checkpointed recovery replays "
               "a snapshot plus a constant-size tail\n";
  bench::print_record("journal",
                      {{"append_per_sec", append.entries_per_sec, 0},
                       {"append_mb_per_sec", append.mb_per_sec, 1},
                       {"journal_entries_fleet24", paper.entries},
                       {"recover_ms_fleet24", paper.recover_ms, 3},
                       {"recover_ckpt_ms_fleet24", paper.recover_ckpt_ms, 3},
                       {"replayed_after_checkpoint", paper.replayed_ckpt}});
  return 0;
}
