#pragma once
// One benchmark repetition ("rep"), run in a fresh child process inside an
// empty scratch directory: the campaign, the save/load round trip of its
// published dataset, and every table and figure the paper derives from it.
// The parent process (edhp_bench.cpp) sees only the report run_rep() writes.

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace edhp::bench {

/// Nanoseconds on the system-wide monotonic clock, comparable across the
/// parent process and its children.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Outputs pinned for a workload's default seed.
struct Pin {
  std::uint64_t records = 0;      ///< published (merged, anonymised) records
  std::uint64_t fingerprint = 0;  ///< FNV-1a over the published records
  std::uint64_t figures = 0;      ///< FNV-1a over every table/figure series
};

struct Workload {
  std::string_view name;
  std::uint64_t seed;  ///< default seed; the pins hold for it
  /// A campaign that advertises fewer files is not this workload (greedy's
  /// harvest can collapse to its seed files); the parent sets it aside.
  std::uint64_t min_advertised;
  Pin pin;        ///< at the workload's own scale
  Pin smoke_pin;  ///< at the --smoke scale
};

extern const std::array<Workload, 4> kWorkloads;

[[nodiscard]] const Workload* find_workload(std::string_view name);

/// A per-layer metric a rep reports with `metric <name> <value>`.
struct LayerMetric {
  std::string_view name;
  std::string_view unit;
  /// A count, deterministic per campaign seed: reps of one seed must agree.
  /// Otherwise a timing, reported as the median over the traced reps.
  bool exact;
};

/// The per-layer metrics every rep reports. The parent adds the day
/// percentiles and trace_overhead_frac, which it computes over reps.
extern const std::array<LayerMetric, 46> kLayerMetrics;

struct RepRequest {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool smoke = false;     ///< tiny scale, for the ctest smoke check
  bool traced = false;    ///< time each simulated day and emit spans
  bool selftest = false;  ///< a small rep that silently drops records
  /// CPUs the rep may use once set-up is over, e.g. "0,1,2,3". The parent
  /// starts each rep pinned to its own CPU; empty keeps the inherited mask.
  std::string cpus;
};

/// Runs one rep and writes its report to `out` as `key value` lines:
/// `t_entry`/`t_done` (now_ns at the campaign call and after the last
/// figure digest), `records`, `advertised` (the campaign's final
/// advertised-list size), `fingerprint`, `figures_fp`, one
/// `metric <name> <value>` per per-layer metric it measured, and when
/// traced one `day <seconds>` per simulated day and one
/// `span <name> <start_ns> <end_ns>` per timed call. Throws on any failure,
/// including the campaign's audit::ImbalanceError.
void run_rep(const RepRequest& request, std::ostream& out);

}  // namespace edhp::bench
