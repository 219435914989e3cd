// Ablation: measurement integrity vs Byzantine-infrastructure intensity.
//
// The Byzantine layer makes the infrastructure *lie* — servers drop or
// truncate OFFER-FILES, serve stale indexes, fabricate GET-SOURCES
// entries and corrupt search replies, while liar peers volunteer forged
// shared-file lists and replay HELLOs under rotated user hashes. The
// defense stack (honeypot self-probes, provenance tagging, manager health
// scoring) claims the published dataset stays clean: zero liar records
// leak, and the exclusions cost < 1% of the true-peer evidence the fleet
// logged under attack. This harness sweeps the server-lie MTBF from rare
// to aggressive, plus one undefended run at nominal intensity to show the
// pollution the defenses remove.
//
// Retention is quoted against the *undefended* run of the same attack:
// reply-path lies poison what the server tells legitimate peers, so
// contacts that never happened are attack damage upstream of the
// measurement, not something a honeypot-side defense could retain.
//
// Usage mirrors the other ablations: --scale/--days/--seed/--quiet.

#include "bench_common.hpp"
#include "fault/byzantine.hpp"

using namespace edhp;

namespace {

struct Outcome {
  std::uint64_t true_records;
  std::uint64_t liar_records;
  fault::ByzantineStats byzantine;
  honeypot::IntegrityStats integrity;
  double events_per_sec;
};

Outcome run_with(const bench::Options& opt, bool byzantine, Duration lie_mtbf,
                 bool defended) {
  auto config = bench::distributed_config(opt);
  config.with_top_peer = false;
  config.host_mtbf = 0;  // isolate the Byzantine axis from host churn
  auto& b = config.chaos.byzantine;
  b.enabled = byzantine;
  b.defend = defended;
  b.offer_drop_mtbf = lie_mtbf;
  b.offer_truncate_mtbf = lie_mtbf;
  b.stale_index_mtbf = lie_mtbf;
  b.fabricate_mtbf = lie_mtbf;
  b.corrupt_search_mtbf = lie_mtbf;
  b.forge_list_mtba = hours(2);
  b.replay_hello_mtba = hours(4);
  // Exclusion, not displacement: the whole peer population sits on the one
  // big server, so benching it would hide every honeypot for the cooloff.
  b.quarantine_threshold = 0;
  const auto run = bench::timed_run(config);
  const auto& result = run.result;
  Outcome o{};
  for (const auto& rec : result.merged.records) {
    if (fault::is_byzantine_user(rec.user)) {
      ++o.liar_records;
    } else {
      ++o.true_records;
    }
  }
  o.byzantine = result.byzantine;
  o.integrity = result.integrity;
  o.events_per_sec = run.events_per_sec;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, 0.05);
  std::cout << "ablation: measurement integrity vs Byzantine-lie intensity "
               "(defenses on; acceptance: zero liar records leak, >= 99% of "
               "the true-peer evidence logged under attack is published)\n\n";

  const auto baseline = run_with(opt, false, 0, true);
  std::cout << "  lie-free baseline: " << baseline.true_records << " records, "
            << static_cast<std::uint64_t>(baseline.events_per_sec)
            << " events/s\n";

  // Undefended nominal first: it is the retention denominator.
  const auto undefended = run_with(opt, true, days(8), false);
  std::cout << "  MTBF 8d, UNDEFENDED: " << undefended.liar_records
            << " liar records published, " << undefended.true_records
            << " true records, "
            << undefended.integrity.records_excluded << " excluded, "
            << static_cast<std::uint64_t>(undefended.events_per_sec)
            << " events/s\n";

  struct Case {
    const char* name;
    Duration mtbf;
  };
  const Case cases[] = {
      {"MTBF 16d (rare), defended", days(16)},
      {"MTBF 8d (nominal), defended", days(8)},
      {"MTBF 4d (aggressive), defended", days(4)},
  };
  Outcome nominal{};  // the defended nominal case feeds the machine line
  for (const auto& c : cases) {
    const auto o = run_with(opt, true, c.mtbf, true);
    if (c.mtbf == days(8)) nominal = o;
    const double vs_baseline = static_cast<double>(o.true_records) /
                               static_cast<double>(baseline.true_records);
    std::cout << "  " << c.name << ": " << o.liar_records
              << " liar records leaked, true records " << o.true_records
              << " (" << 100.0 * vs_baseline << "% of lie-free), "
              << o.integrity.records_excluded << " excluded ("
              << o.integrity.forged_lists_rejected << " forged lists, "
              << o.integrity.replayed_hellos_rejected << " replayed HELLOs), "
              << o.integrity.probes_sent << " self-probes ("
              << o.integrity.probes_missed << " missed, "
              << o.integrity.fabricated_sources_detected
              << " fabrications caught), "
              << static_cast<std::uint64_t>(o.events_per_sec) << " events/s\n";
  }
  std::cout << "\nexpected: zero liar records leak across the defended sweep "
               "(the undefended run shows thousands); exclusions track the "
               "liar traffic one-for-one and cost < 1% of the true-peer "
               "evidence\n";
  const double retained = static_cast<double>(nominal.true_records) /
                          static_cast<double>(undefended.true_records);
  // One machine-readable line for the perf trajectory
  // (BENCH_byzantine.json): the defended nominal-MTBF run.
  bench::print_record(
      "byzantine",
      {{"true_retained_pct", 100.0 * retained, 3},
       {"leaked_records", nominal.liar_records},
       {"undefended_leaked", undefended.liar_records},
       {"records_excluded", nominal.integrity.records_excluded},
       {"forged_lists_rejected", nominal.integrity.forged_lists_rejected},
       {"replayed_hellos_rejected", nominal.integrity.replayed_hellos_rejected},
       {"probes_sent", nominal.integrity.probes_sent},
       {"events_per_sec", nominal.events_per_sec, 0}});
  return 0;
}
