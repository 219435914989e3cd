// Ablation: benign-record retention vs hostile-traffic intensity.
//
// PR 3's admission-control stack (session cap with LIFO shedding, per-source
// connect and per-session message token buckets, handshake/idle reaping,
// bounded inbound queues) claims that a standing attack costs the campaign
// almost no benign data. This harness sweeps attack intensity from calm to
// 4x-nominal against an attack-free baseline, plus one undefended run at
// nominal intensity to show what the defenses are worth. Benign records are
// the ones whose truncated user hash is not the attacker marker.
//
// Usage mirrors the other ablations: --scale/--days/--seed/--quiet.

#include "bench_common.hpp"
#include "fault/abuse.hpp"

using namespace edhp;

namespace {

struct Outcome {
  std::uint64_t benign_records;
  std::uint64_t hostile_records;
  fault::AbuseStats abuse;
  net::DefenseStats defense;
  double events_per_sec;
};

Outcome run_with(const bench::Options& opt, bool abuse, double intensity,
                 bool defended) {
  auto config = bench::distributed_config(opt);
  config.with_top_peer = false;
  config.host_mtbf = 0;  // isolate the abuse axis from host churn
  config.abuse.enabled = abuse;
  config.abuse.intensity = intensity;
  config.auto_defense = defended;
  const auto run = bench::timed_run(config);
  const auto& result = run.result;
  Outcome o{};
  for (const auto& rec : result.merged.records) {
    if (rec.user == fault::kAbuseUserWord) {
      ++o.hostile_records;
    } else {
      ++o.benign_records;
    }
  }
  o.abuse = result.abuse;
  o.defense = result.defense;
  o.events_per_sec = run.events_per_sec;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, 0.05);
  std::cout << "ablation: benign-record retention vs attack intensity "
               "(admission control on; acceptance: >= 99% of attack-free "
               "records retained at nominal intensity)\n\n";

  const auto baseline = run_with(opt, false, 0.0, true);
  std::cout << "  attack-free baseline: " << baseline.benign_records
            << " records, "
            << static_cast<std::uint64_t>(baseline.events_per_sec)
            << " events/s\n";

  struct Case {
    const char* name;
    double intensity;
    bool defended;
  };
  const Case cases[] = {
      {"intensity 0.5x, defended", 0.5, true},
      {"intensity 1x (nominal), defended", 1.0, true},
      {"intensity 2x, defended", 2.0, true},
      {"intensity 4x, defended", 4.0, true},
      {"intensity 1x, UNDEFENDED", 1.0, false},
  };
  Outcome nominal{};  // the defended nominal case feeds the machine line
  for (const auto& c : cases) {
    const auto o = run_with(opt, true, c.intensity, c.defended);
    if (c.intensity == 1.0 && c.defended) nominal = o;
    const double retained = static_cast<double>(o.benign_records) /
                            static_cast<double>(baseline.benign_records);
    std::cout << "  " << c.name << ": benign retained " << 100.0 * retained
              << "%, " << o.hostile_records << " hostile records logged, "
              << o.abuse.connections_opened << " hostile connects ("
              << o.defense.shed << " shed, " << o.defense.rate_limited
              << " rate-limited, " << o.defense.reaped << " reaped), "
              << o.defense.queue_dropped << " queue-dropped, "
              << o.defense.malformed << " malformed packets, "
              << static_cast<std::uint64_t>(o.events_per_sec) << " events/s\n";
  }
  std::cout << "\nexpected: benign retention stays >= 99% across the defended "
               "sweep; the undefended run shows the same hostile load with "
               "zero shed/rate-limited/reaped decisions\n";
  const double nominal_retained =
      static_cast<double>(nominal.benign_records) /
      static_cast<double>(baseline.benign_records);
  // One machine-readable line for the perf trajectory (BENCH_abuse.json):
  // the defended nominal-intensity run.
  bench::print_record(
      "abuse", {{"benign_retained_pct", 100.0 * nominal_retained, 3},
                {"hostile_connects", nominal.abuse.connections_opened},
                {"shed", nominal.defense.shed},
                {"rate_limited", nominal.defense.rate_limited},
                {"reaped", nominal.defense.reaped},
                {"malformed", nominal.defense.malformed},
                {"events_per_sec", nominal.events_per_sec, 0}});
  return 0;
}
