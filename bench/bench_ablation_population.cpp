// Ablation: memory scaling of the lazy population slab.
//
// The same paper-scale distributed campaign runs twice in lazy mode with
// the interested-peer population rescaled to 100k and then 1M peers
// (DistributedConfig::population_override rescales every per-file finite
// pool pro-rata; arrival rates stay at the campaign baseline). Records are
// streamed (counted + fingerprinted, not retained) so the dataset itself
// cannot mask the population's own footprint.
//
// Expected: peak RSS is flat in population size — the 1M run stays within
// 1.25x of the 100k run — because unarrived peers are pure per-demand
// accounting and live-peer storage tracks peak concurrency (slab slots ~=
// peak active peers), not pool size and not total arrivals (which exceed
// peak active by an order of magnitude over a multi-week campaign). A
// third run in legacy_eager mode shows the structural contrast: no slab,
// no node retirement, every arrival stays materialized forever.
//
// Run order matters: peak RSS is a process-wide high-water mark, so the
// 100k lazy run goes first (its snapshot is clean), the 1M run second (its
// snapshot is the true maximum), and the eager contrast last (its RSS
// reading is contaminated by the 1M run and is reported as counters only).

#include <iostream>

#include "bench_common.hpp"
#include "common/memstat.hpp"
#include "scenario/scenario.hpp"

using namespace edhp;

namespace {

scenario::DistributedConfig campaign(const bench::Options& opt,
                                     std::uint64_t population,
                                     peer::PopulationMode mode) {
  scenario::DistributedConfig config;
  config.scale = opt.scale;
  if (opt.seed) config.seed = *opt.seed;
  config.days = opt.days.value_or(16.0);
  config.honeypots = 8;
  config.with_top_peer = false;  // isolate the population's footprint
  config.population_override = population;
  config.stream_records = true;
  config.population_mode = mode;
  return config;
}

bench::TimedRun run(const bench::Options& opt, const char* label,
                    std::uint64_t population, peer::PopulationMode mode) {
  const auto config = campaign(opt, population, mode);
  std::cout << "  " << label << ": pool " << population << ", "
            << config.days << " days, " << config.honeypots
            << " honeypots...\n";
  auto o = bench::timed_run(config);
  const auto& r = o.result;
  std::cout << "    arrivals " << r.population_arrivals << ", peak active "
            << r.population_peak_active << ", slab slots "
            << r.population_slab_slots << ", peak live nodes "
            << r.net_peak_live_nodes << ", nodes retired "
            << r.net_nodes_retired << "\n    records streamed "
            << r.records_streamed << " (fingerprint 0x" << std::hex
            << r.stream_fingerprint << std::dec << "), peak RSS "
            << r.peak_rss_bytes / (1024 * 1024) << " MiB, "
            << static_cast<std::uint64_t>(o.events_per_sec)
            << " events/s, wall " << o.wall_seconds << " s\n";
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, /*default_scale=*/1.0);
  std::cout << "ablation: population memory scaling (lazy slab, 100k vs 1M)\n\n";

  const auto small = run(opt, "lazy 100k", 100000, peer::PopulationMode::lazy);
  const auto large = run(opt, "lazy 1M", 1000000, peer::PopulationMode::lazy);
  const auto eager = run(opt, "eager 100k (contrast)", 100000,
                         peer::PopulationMode::legacy_eager);

  const double ratio =
      small.result.peak_rss_bytes > 0
          ? static_cast<double>(large.result.peak_rss_bytes) /
                static_cast<double>(small.result.peak_rss_bytes)
          : 0.0;
  std::cout << "\n  peak RSS 100k -> 1M: "
            << small.result.peak_rss_bytes / (1024 * 1024) << " MiB -> "
            << large.result.peak_rss_bytes / (1024 * 1024) << " MiB (ratio "
            << ratio << ", budget 1.25)\n";
  std::cout << "  eager contrast at 100k: slab slots "
            << eager.result.population_slab_slots << ", nodes retired "
            << eager.result.net_nodes_retired << " (every one of "
            << eager.result.population_arrivals
            << " arrivals stays materialized; RSS not comparable after the "
               "1M run)\n";
  std::cout << "\nexpected: the ratio stays under 1.25 — a 10x larger "
               "interested population is pure per-demand accounting, and "
               "live-peer memory tracks peak concurrency (slab slots ~= peak "
               "active), not pool size or total arrivals\n";

  const auto& lr = large.result;
  bench::print_record("population",
                      {{"rss_100k_bytes", small.result.peak_rss_bytes},
                       {"rss_1m_bytes", lr.peak_rss_bytes},
                       {"rss_ratio", ratio, 3},
                       {"arrivals_100k", small.result.population_arrivals},
                       {"arrivals_1m", lr.population_arrivals},
                       {"peak_active_1m", lr.population_peak_active},
                       {"slab_slots_1m", lr.population_slab_slots},
                       {"peak_live_nodes_1m", lr.net_peak_live_nodes},
                       {"nodes_retired_1m", lr.net_nodes_retired},
                       {"records_streamed_1m", lr.records_streamed},
                       {"events_per_sec_1m", large.events_per_sec, 0}});
  return 0;
}
