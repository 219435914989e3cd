// Ablation: record loss vs host MTBF under the fault model.
//
// The paper's manager exists because PlanetLab hosts die mid-campaign; our
// recovery stack (retry backoff, watchdog escalation, crash-safe spooling)
// claims that churn costs almost no data. This harness sweeps host MTBF
// from "paper-like" (16 days) down to hostile (2 days) against a crash-free
// baseline and reports the retained record fraction, the recovery work the
// fleet performed, and the engine throughput under chaos.

#include "bench_common.hpp"

using namespace edhp;

namespace {

struct Outcome {
  std::uint64_t records;
  std::uint64_t crashes;
  std::uint64_t relaunches;
  std::uint64_t escalations;
  std::uint64_t retries;
  std::uint64_t lost_tail;
  double retained;      ///< kept / generated, from RecoveryStats
  double downtime_h;    ///< fleet-sum dead time, hours
  double events_per_sec;
};

Outcome run_with(const bench::Options& opt, bool chaos, Duration host_mtbf) {
  auto config = bench::distributed_config(opt);
  config.with_top_peer = false;
  config.chaos.enabled = chaos;
  config.chaos.host_mtbf = host_mtbf;
  if (!chaos) config.host_mtbf = 0;  // crash-free baseline
  const auto run = bench::timed_run(config);
  const auto& result = run.result;
  return Outcome{
      result.merged.records.size(),
      result.faults.host_crashes,
      result.recovery.relaunches,
      result.recovery.escalations + result.recovery.heartbeat_escalations,
      result.recovery.honeypot_retries,
      result.recovery.records_lost_tail,
      result.recovery.retained_fraction,
      result.recovery.total_downtime / 3600.0,
      run.events_per_sec};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, 0.05);
  std::cout << "ablation: record loss vs host MTBF (spooling + relaunch; "
               "acceptance: >= 99% retained at the paper's 16-day MTBF)\n\n";

  const auto baseline = run_with(opt, false, 0);
  std::cout << "  crash-free baseline: " << baseline.records << " records, "
            << static_cast<std::uint64_t>(baseline.events_per_sec)
            << " events/s\n";

  struct Case {
    const char* name;
    double mtbf_days;
  };
  const Case cases[] = {
      {"mtbf 32 days", 32.0},
      {"mtbf 16 days (paper)", 16.0},
      {"mtbf 8 days", 8.0},
      {"mtbf 4 days", 4.0},
      {"mtbf 2 days", 2.0},
  };
  Outcome paper{};  // the 16-day case feeds the machine-readable line
  for (const auto& c : cases) {
    const auto o = run_with(opt, true, c.mtbf_days * kDay);
    if (c.mtbf_days == 16.0) paper = o;
    const double vs_baseline =
        static_cast<double>(o.records) / static_cast<double>(baseline.records);
    std::cout << "  " << c.name << ": retained " << 100.0 * o.retained
              << "% (vs baseline " << 100.0 * vs_baseline << "%), "
              << o.crashes << " crashes, " << o.relaunches << " relaunches, "
              << o.escalations << " escalations, " << o.retries
              << " self-retries, " << o.lost_tail << " records lost in tails, "
              << o.downtime_h << " h fleet downtime, "
              << static_cast<std::uint64_t>(o.events_per_sec) << " events/s\n";
  }
  std::cout << "\nexpected: retained fraction degrades smoothly as MTBF "
               "shrinks but stays >= 99% at 16 days; relaunch/escalation "
               "counts grow roughly inversely with MTBF\n";
  // One machine-readable line for the perf trajectory (BENCH_faults.json):
  // the paper-MTBF chaos run.
  bench::print_record("faults", {{"retained_pct", 100.0 * paper.retained, 3},
                                 {"relaunches", paper.relaunches},
                                 {"escalations", paper.escalations},
                                 {"events_per_sec", paper.events_per_sec, 0}});
  return 0;
}
