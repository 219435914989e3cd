// Ablation: what the overload/degradation layer buys when the spool quota
// actually bites, plus an engine throughput figure.
//
// Two measurements:
//   1. engine kernel throughput with std::function hops: 1024 concurrent
//      self-rescheduling timer chains on a bare sim::Simulation (no
//      honeypot, no budget), each hop rescheduling a copy of a
//      std::function held by a shared_ptr. bench_micro_sim's headline runs
//      the same chains with a value-type hop; this figure is held to that
//      baseline (scripts/bench_gate.py).
//   2. spool-quota ablation at campaign scale (manager crashes + hostile
//      traffic in the mix): unlimited quota reports the peak spool
//      footprint, then the same world re-runs at 1/2 and 1/4 of that peak.
//
// Expected: evidence retention stays at 100% at every quota (the degrade
// layer sheds only abuse-marked records, and declares every one); shed and
// compaction counts grow as the quota shrinks.

#include <chrono>
#include <functional>
#include <memory>

#include "bench_common.hpp"
#include "fault/abuse.hpp"
#include "scenario/scenario.hpp"

using namespace edhp;

namespace {

/// 1024 concurrent self-rescheduling timer chains, each hop one heap pop +
/// slab recycle + schedule of a copied std::function at realistic queue
/// depth.
double measure_events_per_sec() {
  using clock = std::chrono::steady_clock;
  sim::Simulation s;
  for (int i = 0; i < 1024; ++i) {
    const double period = 1.0 + static_cast<double>(i % 97);
    auto hop = std::make_shared<std::function<void()>>();
    *hop = [&s, hop, period] { s.schedule_in(period, *hop); };
    s.schedule_in(period, *hop);
  }
  const auto start = clock::now();
  do {
    s.run_until(s.now() + 1000.0);
  } while (clock::now() - start < std::chrono::milliseconds(300));
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  return static_cast<double>(s.executed()) / elapsed;
}

std::uint64_t benign_count(const logbook::LogFile& log) {
  std::uint64_t hostile = 0;
  for (const auto& r : log.records) {
    if (r.user == fault::kAbuseUserWord) ++hostile;
  }
  return log.records.size() - hostile;
}

scenario::DistributedConfig campaign() {
  scenario::DistributedConfig config;
  config.scale = 0.02;
  config.days = 16;
  config.honeypots = 12;
  config.with_top_peer = false;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = 0;
  config.chaos.manager_mtbf = days(4);
  config.abuse.enabled = true;
  return config;
}

struct QuotaOutcome {
  const char* label;
  std::uint64_t quota;
  std::uint64_t records;
  std::uint64_t benign;
  std::uint64_t shed;
  std::uint64_t compaction_runs;
  std::uint64_t peak;
};

QuotaOutcome run_at_quota(const char* label, std::uint64_t quota) {
  auto config = campaign();
  config.chaos.disk_quota_bytes = quota;
  config.chaos.resend_credit = 4;
  const auto r = scenario::run_distributed(config);
  return QuotaOutcome{label,
                      quota,
                      r.merged.records.size(),
                      benign_count(r.merged),
                      r.degrade.records_shed,
                      r.degrade.compaction_runs,
                      r.degrade.spool_peak_bytes};
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::parse_options(argc, argv);  // accept the standard flags
  std::cout << "ablation: engine kernel throughput + spool quota sweep\n\n";

  const double events_per_sec = measure_events_per_sec();
  std::cout << "  engine kernel (std::function hops): "
            << static_cast<std::uint64_t>(events_per_sec) << " events/s\n\n";

  const auto unlimited = scenario::run_distributed(campaign());
  const std::uint64_t peak = unlimited.degrade.spool_peak_bytes;
  const std::uint64_t benign_full = benign_count(unlimited.merged);
  std::cout << "  unlimited quota: " << unlimited.merged.records.size()
            << " records (" << benign_full << " benign), peak spool " << peak
            << " bytes\n";

  const QuotaOutcome half = run_at_quota("1/2 peak", peak / 2);
  const QuotaOutcome quarter = run_at_quota("1/4 peak", peak / 4);
  for (const auto& o : {half, quarter}) {
    const double retained =
        benign_full > 0
            ? static_cast<double>(o.benign) / static_cast<double>(benign_full)
            : 1.0;
    std::cout << "  quota " << o.label << " (" << o.quota << " B): " << o.records
              << " records, benign retained " << retained * 100.0
              << "%, shed " << o.shed << ", compaction runs "
              << o.compaction_runs << ", peak " << o.peak << " B\n";
  }

  std::cout << "\nexpected: benign retention 100% at every quota; shed and "
               "compaction grow as the quota shrinks\n";
  const double half_retained =
      benign_full > 0
          ? static_cast<double>(half.benign) / static_cast<double>(benign_full)
          : 1.0;
  const double quarter_retained =
      benign_full > 0 ? static_cast<double>(quarter.benign) /
                            static_cast<double>(benign_full)
                      : 1.0;
  bench::print_record("overload",
                      {{"events_per_sec", events_per_sec, 0},
                       {"spool_peak_bytes", peak},
                       {"half_quota_shed", half.shed},
                       {"half_quota_benign_retained", half_retained, 4},
                       {"quarter_quota_shed", quarter.shed},
                       {"quarter_quota_benign_retained", quarter_retained, 4},
                       {"half_quota_compactions", half.compaction_runs}});
  return 0;
}
