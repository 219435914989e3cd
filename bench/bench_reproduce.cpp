// Reproduces the paper's evaluation from one run of each campaign: Table I
// and Figs 2-12.
//
//   1. the distributed campaign (24 honeypots, 32 days) runs once; Table I's
//      distributed column and Figs 2 and 4-10 are printed from it, and the
//      result is released;
//   2. the greedy campaign (1 honeypot, 15 days) runs once; Table I's greedy
//      column and Figs 3, 11 and 12 are printed from it;
//   3. Table I's paper recap closes the report.
//
// Each figure prints the rows/series the paper plots plus a paper-vs-measured
// recap. Fig 4's full hourly series is written to fig04.dat in the working
// directory. Flags are bench_common.hpp's (default scale 0.1).
//
// Paper values (scale 1.0) for Table I:
//                       distributed   greedy
//   honeypots                    24        1
//   duration (days)              32       15
//   shared (advertised) files     4    3,175
//   distinct peers          110,049  871,445
//   distinct files           28,007  267,047
//   space used                 9 TB    90 TB

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "analysis/log_stats.hpp"
#include "analysis/report.hpp"
#include "analysis/subsets.hpp"
#include "bench_common.hpp"

using namespace edhp;

namespace {

using scenario::ScenarioResult;

/// "paper reports X (at scale 1.0); measured Y" one-liner.
void paper_vs_measured(std::string_view what, double paper_value,
                       double measured, double scale) {
  std::cout << "  " << what << ": paper " << paper_value << " | measured "
            << measured;
  if (scale != 1.0) {
    std::cout << " (at scale " << scale << ", scale-adjusted paper ~"
              << paper_value * scale << ")";
  }
  std::cout << "\n";
}

void print_table1_column(const char* name, const ScenarioResult& r) {
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("number of honeypots", std::to_string(r.honeypots));
  rows.emplace_back("duration in days",
                    std::to_string(static_cast<int>(r.days)));
  rows.emplace_back("number of shared files",
                    analysis::with_commas(r.advertised_files));
  rows.emplace_back("number of distinct peers",
                    analysis::with_commas(r.distinct_peers));
  rows.emplace_back("number of distinct files",
                    analysis::with_commas(r.observed.distinct));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f TB",
                static_cast<double>(r.observed.bytes) / 1e12);
  rows.emplace_back("space used by distinct files", buf);
  rows.emplace_back("log records",
                    analysis::with_commas(r.merged.records.size()));
  analysis::print_kv(std::cout, name, rows);
}

/// Two per-day columns of equal length (Figs 2, 3 and 5-9).
void print_by_day(std::string_view title, const char* name_a,
                  const std::vector<std::uint64_t>& a, const char* name_b,
                  const std::vector<std::uint64_t>& b) {
  std::vector<analysis::Series> cols(2);
  cols[0].name = name_a;
  cols[1].name = name_b;
  for (std::size_t d = 0; d < a.size(); ++d) {
    cols[0].values.push_back(static_cast<double>(a[d]));
    cols[1].values.push_back(static_cast<double>(b[d]));
  }
  analysis::print_table(std::cout, title, "day", analysis::index_axis(a.size()),
                        cols);
}

/// The last day's value of a cumulative per-day series (0 when empty).
double final_value(const std::vector<std::uint64_t>& cumulative) {
  return cumulative.empty() ? 0 : static_cast<double>(cumulative.back());
}

/// Distinct-union curve over 100 random orderings of `sets`, printed as
/// avg/min/max with at most `max_rows` rows (Figs 10-12).
analysis::SubsetCurve print_subset_curve(
    std::string_view title, std::string_view xlabel,
    const std::vector<analysis::DynBitset>& sets, std::size_t max_rows,
    analysis::ThreadPool& pool) {
  auto curve = analysis::subset_union_curve(sets, 100, Rng(777), &pool);
  std::vector<analysis::Series> cols(3);
  cols[0].name = "avg_100";
  cols[1].name = "min_100";
  cols[2].name = "max_100";
  std::vector<double> x;
  for (const auto row : analysis::stride_rows(curve.size(), max_rows)) {
    x.push_back(static_cast<double>(row + 1));
    cols[0].values.push_back(curve.avg[row]);
    cols[1].values.push_back(static_cast<double>(curve.min[row]));
    cols[2].values.push_back(static_cast<double>(curve.max[row]));
  }
  analysis::print_table(std::cout, title, xlabel, x, cols);
  return curve;
}

/// Cumulative distinct peers plus new peers per day (Figs 2-3).
analysis::DistinctSeries print_duration(std::string_view title,
                                        const ScenarioResult& result) {
  const auto days = static_cast<std::size_t>(result.days);
  auto series =
      analysis::distinct_peers_by_day(result.merged, std::nullopt, days);
  print_by_day(title, "total_peers", series.cumulative, "new_peers",
               series.fresh);
  return series;
}

// Fig 2: distinct peers of the distributed measurement over time.
// Paper shape: near-linear cumulative growth to ~110k peers at day 32; new
// peers per day declining from ~5,500 to ~2,500 but never vanishing.
void fig02(const ScenarioResult& result, double scale) {
  const auto days = static_cast<std::size_t>(result.days);
  const auto series = print_duration(
      "Fig 2: distinct peers over time (distributed)", result);
  const double last_day_new =
      days > 0 ? static_cast<double>(series.fresh[days - 1]) : 0;
  paper_vs_measured("total distinct peers", 110049,
                    static_cast<double>(series.total), scale);
  paper_vs_measured("new peers on the last day", 2500, last_day_new, scale);
  std::cout << "shape check: growth should stay significant through day "
            << days << " (paper: >2,500/day even after a month)\n";
}

// Fig 3: distinct peers of the greedy measurement over time.
// Paper shape: negligible day 1 (the harvest/initialisation phase), then a
// stable ~54,000 new peers per day up to ~871k total at day 15.
void fig03(const ScenarioResult& result, double scale) {
  const auto days = static_cast<std::size_t>(result.days);
  const auto series =
      print_duration("Fig 3: distinct peers over time (greedy)", result);
  std::cout << "advertised files after harvest: " << result.advertised_files
            << " (paper: 3,175)\n";
  paper_vs_measured("total distinct peers", 871445,
                    static_cast<double>(series.total), scale);
  if (days >= 3) {
    const double day1 = static_cast<double>(series.fresh[0]);
    double later = 0;
    for (std::size_t d = 2; d < days; ++d) {
      later += static_cast<double>(series.fresh[d]);
    }
    later /= static_cast<double>(days - 2);
    std::cout << "initialisation check: day-1 new peers " << day1
              << " vs steady-state " << later
              << "/day (paper: day 1 invisible on the plot; then ~54,000/day "
                 "at scale 1)\n";
  }
}

// Fig 4: HELLO messages received each hour during the first week.
// Paper shape: ~10 minutes before the very first query; afterwards a clear
// day-night oscillation (European/North-African phase) between a few
// thousand and ~15-20k HELLOs per hour.
void fig04(const ScenarioResult& result) {
  constexpr std::size_t kHours = 168;
  const auto hourly = analysis::messages_by_hour(
      result.merged, logbook::QueryType::hello, kHours);

  std::vector<analysis::Series> cols(1);
  cols[0].name = "hello_per_hour";
  std::vector<double> x;
  for (const auto row : analysis::stride_rows(kHours, 56)) {
    x.push_back(static_cast<double>(row));
    cols[0].values.push_back(static_cast<double>(hourly[row]));
  }
  analysis::print_table(std::cout,
                        "Fig 4: HELLO messages per hour, first week "
                        "(strided rows; full series in fig04.dat)",
                        "hour", x, cols);

  // Full-resolution dump for plotting.
  std::vector<analysis::Series> full(1);
  full[0].name = "hello";
  for (auto v : hourly) full[0].values.push_back(static_cast<double>(v));
  analysis::write_gnuplot("fig04.dat", analysis::index_axis(kHours, true), full);

  // Shape checks: time to first query, and day/night contrast.
  double first_query = -1;
  for (const auto& r : result.merged.records) {
    if (r.type == logbook::QueryType::hello) {
      first_query = r.timestamp;
      break;
    }
  }
  std::cout << "first HELLO after " << first_query / 60.0
            << " minutes (paper: ~10 minutes)\n";

  double day_sum = 0, night_sum = 0;
  std::size_t day_n = 0, night_n = 0;
  for (std::size_t h = 24; h < kHours; ++h) {  // skip warm-up day
    const double hod = hour_of_day(static_cast<double>(h) * kHour + kHour / 2);
    if (hod >= 12 && hod < 22) {
      day_sum += static_cast<double>(hourly[h]);
      ++day_n;
    } else if (hod < 7) {
      night_sum += static_cast<double>(hourly[h]);
      ++night_n;
    }
  }
  const double contrast = (night_sum / static_cast<double>(night_n)) > 0
                              ? (day_sum / static_cast<double>(day_n)) /
                                    (night_sum / static_cast<double>(night_n))
                              : 0;
  std::cout << "day/night contrast (afternoon vs night avg): " << contrast
            << "x (paper plot suggests ~3-4x)\n";
}

/// Distinct peers sending `type` per day, for one strategy group.
analysis::DistinctSeries peers_by_strategy(const ScenarioResult& result,
                                           logbook::QueryType type,
                                           bool random_content) {
  return analysis::distinct_peers_by_day(
      result.merged, type, static_cast<std::size_t>(result.days),
      scenario::strategy_filter(result, random_content));
}

// Fig 5: distinct peers sending HELLO to the random-content vs no-content
// honeypot groups.
// Paper shape: both grow near-linearly all month; random-content ends
// noticeably (but not hugely) above no-content — the blacklisting signal.
void fig05(const ScenarioResult& result) {
  const auto random_series =
      peers_by_strategy(result, logbook::QueryType::hello, true);
  const auto none_series =
      peers_by_strategy(result, logbook::QueryType::hello, false);
  print_by_day("Fig 5: distinct peers sending HELLO, by strategy",
               "random_content", random_series.cumulative, "no_content",
               none_series.cumulative);

  const double rc = static_cast<double>(random_series.total);
  const double nc = static_cast<double>(none_series.total);
  std::cout << "final: random-content " << rc << ", no-content " << nc
            << " -> ratio " << (nc > 0 ? rc / nc : 0)
            << " (paper plot: ~85k vs ~72k, ratio ~1.15-1.2)\n";
  std::cout << "blacklist: " << result.blacklist_reports
            << " published detections; mean reputation no-content "
            << result.reputation_no_content << " vs random-content "
            << result.reputation_random_content << "\n";
}

// Fig 6: distinct peers sending START-UPLOAD to each strategy group.
// Paper shape: same ordering as Fig 5 (random-content above no-content),
// at roughly two thirds of the HELLO peer counts.
void fig06(const ScenarioResult& result) {
  const auto random_series =
      peers_by_strategy(result, logbook::QueryType::start_upload, true);
  const auto none_series =
      peers_by_strategy(result, logbook::QueryType::start_upload, false);
  const auto hello_random =
      peers_by_strategy(result, logbook::QueryType::hello, true);
  print_by_day("Fig 6: distinct peers sending START-UPLOAD, by strategy",
               "random_content", random_series.cumulative, "no_content",
               none_series.cumulative);

  const double rc = static_cast<double>(random_series.total);
  const double nc = static_cast<double>(none_series.total);
  const double hello_rc = static_cast<double>(hello_random.total);
  std::cout << "final: random-content " << rc << ", no-content " << nc
            << " (paper: ~57k vs ~46k)\n";
  std::cout << "START-UPLOAD/HELLO peer ratio (random group): "
            << (hello_rc > 0 ? rc / hello_rc : 0) << " (paper: roughly 2/3)\n";
}

// Fig 7: cumulative REQUEST-PART messages received by each strategy group.
// Paper shape: random-content ends at ~1.9M messages, no-content at ~1.5M;
// the gap opens because peers give up on silent providers sooner, while
// random content keeps them requesting until a part fails verification.
void fig07(const ScenarioResult& result, double scale) {
  const auto days = static_cast<std::size_t>(result.days);
  const auto rc = analysis::cumulative_messages_by_day(
      result.merged, logbook::QueryType::request_part, days,
      scenario::strategy_filter(result, true));
  const auto nc = analysis::cumulative_messages_by_day(
      result.merged, logbook::QueryType::request_part, days,
      scenario::strategy_filter(result, false));
  print_by_day("Fig 7: cumulative REQUEST-PART messages, by strategy",
               "random_content", rc, "no_content", nc);

  const double rc_total = final_value(rc);
  const double nc_total = final_value(nc);
  paper_vs_measured("random-content REQUEST-PART total", 1.9e6, rc_total,
                    scale);
  paper_vs_measured("no-content REQUEST-PART total", 1.5e6, nc_total, scale);
  std::cout << "ratio random/none: " << (nc_total > 0 ? rc_total / nc_total : 0)
            << " (paper: ~1.27)\n";
}

/// Cumulative messages of `type` per day from peer `top`, for one strategy
/// group (Figs 8-9).
std::vector<std::uint64_t> top_peer_by_strategy(const ScenarioResult& result,
                                                std::uint64_t top,
                                                logbook::QueryType type,
                                                bool random_content) {
  return analysis::peer_messages_by_day(
      result.merged, top, type, static_cast<std::size_t>(result.days),
      scenario::strategy_filter(result, random_content));
}

// Fig 8: cumulative START-UPLOAD messages received from the single most
// active peer, per strategy group.
// Paper shape: step-like growth with idle plateaus; the random-content
// group receives ~1.5x the queries of the no-content group (~6k vs ~4k)
// because unanswered queries are re-sent at a lower rate.
void fig08(const ScenarioResult& result, std::optional<std::uint64_t> top) {
  if (!top) {
    std::cout << "no records; nothing to plot\n";
    return;
  }
  const auto rc = top_peer_by_strategy(result, *top,
                                       logbook::QueryType::start_upload, true);
  const auto nc = top_peer_by_strategy(result, *top,
                                       logbook::QueryType::start_upload, false);
  print_by_day("Fig 8: START-UPLOAD from the most active peer, by strategy",
               "random_content", rc, "no_content", nc);

  const double rc_total = final_value(rc);
  const double nc_total = final_value(nc);
  std::cout << "top peer (stage-2 id " << *top << "): random-content "
            << rc_total << ", no-content " << nc_total << ", ratio "
            << (nc_total > 0 ? rc_total / nc_total : 0)
            << " (paper: ~6k vs ~4k, ratio ~1.5; plateaus = idle periods)\n";
}

/// Coefficient of variation of day-over-day increments — the smoothness
/// check the paper makes visually (Fig 9).
double increment_cv(const std::vector<std::uint64_t>& cumulative) {
  std::vector<double> inc;
  for (std::size_t d = 1; d < cumulative.size(); ++d) {
    inc.push_back(static_cast<double>(cumulative[d] - cumulative[d - 1]));
  }
  if (inc.empty()) return 0;
  double mean = 0;
  for (auto v : inc) mean += v;
  mean /= static_cast<double>(inc.size());
  if (mean <= 0) return 0;
  double var = 0;
  for (auto v : inc) var += (v - mean) * (v - mean);
  var /= static_cast<double>(inc.size());
  return std::sqrt(var) / mean;
}

// Fig 9: cumulative REQUEST-PART messages from the same peer.
// Paper shape: ~12k (random-content) vs ~8k (no-content); the no-content
// curve is smoother because the time between queries is the constant client
// timeout, while random-content transfer times vary.
void fig09(const ScenarioResult& result, std::optional<std::uint64_t> top) {
  if (!top) {
    std::cout << "no records; nothing to plot\n";
    return;
  }
  const auto rc = top_peer_by_strategy(result, *top,
                                       logbook::QueryType::request_part, true);
  const auto nc = top_peer_by_strategy(result, *top,
                                       logbook::QueryType::request_part, false);
  print_by_day("Fig 9: REQUEST-PART from the most active peer, by strategy",
               "random_content", rc, "no_content", nc);

  const double rc_total = final_value(rc);
  const double nc_total = final_value(nc);
  std::cout << "totals: random-content " << rc_total << ", no-content "
            << nc_total << " (paper: ~12k vs ~8k)\n";
  std::cout << "smoothness (cv of daily increments): no-content "
            << increment_cv(nc) << " vs random-content " << increment_cv(rc)
            << " (paper: no-content smoother, i.e. lower cv)\n";
}

// Fig 10: distinct peers observed as a function of the number n of
// honeypots involved (100 random n-subsets of the 24 honeypots).
// Paper shape: concave but far from saturated at n=24; a single honeypot
// observes between ~13k and ~37k of the ~110k total.
void fig10(const ScenarioResult& result, analysis::ThreadPool& pool) {
  const auto sets =
      analysis::peer_sets_by_honeypot(result.merged, result.honeypots);
  const auto curve = print_subset_curve(
      "Fig 10: distinct peers vs number of honeypots "
      "(100 random subsets per n)",
      "honeypots", sets, sets.size(), pool);

  if (!curve.size()) return;
  std::cout << "single honeypot: min " << curve.min[0] << ", avg "
            << curve.avg[0] << ", max " << curve.max[0]
            << " (paper: 13k / ~25k / 37k at scale 1)\n";
  std::cout << "all " << curve.size() << ": " << curve.avg.back()
            << " (paper: 110,049); marginal gain of the 24th honeypot: "
            << (curve.size() > 1
                    ? curve.avg.back() - curve.avg[curve.size() - 2]
                    : 0)
            << " peers (paper: still significant)\n";
}

// Figs 11-12 read the greedy log. Per-file demand is a network property and
// is NOT scaled; only the harvested-list size scales. Compare absolute
// values at --paper; at lower scales the 100-file sample covers a larger
// fraction of a smaller list, which inflates overlap and compresses the
// popular/random contrast.
constexpr std::size_t kFileCurveRows = 34;

// Fig 11: distinct peers vs number of advertised files, for 100 randomly
// chosen files. Paper shape: near-linear growth; on average each new file
// brings ~1,000 new peers.
void fig11(const ScenarioResult& result, analysis::ThreadPool& pool) {
  Rng pick(4242);
  std::vector<FileId> chosen;
  const std::size_t n_files =
      std::min<std::size_t>(100, result.advertised_ids.size());
  for (auto idx : pick.sample_indices(result.advertised_ids.size(), n_files)) {
    chosen.push_back(result.advertised_ids[idx]);
  }
  const auto curve = print_subset_curve(
      "Fig 11: distinct peers vs number of advertised files "
      "(random-files set)",
      "files", analysis::peer_sets_by_file(result.merged, chosen),
      kFileCurveRows, pool);

  if (curve.size() > 1) {
    const double per_file = curve.avg.back() / static_cast<double>(curve.size());
    paper_vs_measured("peers at 100 random files", 100000, curve.avg.back(),
                      1.0);
    std::cout << "new peers per added file: " << per_file
              << " (paper: ~1,000 at scale 1)\n";
  }
}

// Fig 12: the same for the 100 files queried by the most peers.
// Paper shape: near-linear; ~2,700 peers per file on average; the most
// popular single file was queried by 13,373 peers, while some files drew
// only 2.
void fig12(const ScenarioResult& result, analysis::ThreadPool& pool) {
  const auto popularity = analysis::file_popularity(result.merged);
  const std::size_t n_files = std::min<std::size_t>(100, popularity.size());
  std::vector<FileId> chosen;
  chosen.reserve(n_files);
  for (std::size_t i = 0; i < n_files; ++i) {
    chosen.push_back(popularity[i].file);
  }
  const auto curve = print_subset_curve(
      "Fig 12: distinct peers vs number of advertised files "
      "(popular-files set)",
      "files", analysis::peer_sets_by_file(result.merged, chosen),
      kFileCurveRows, pool);

  if (!popularity.empty() && curve.size() > 1) {
    paper_vs_measured("peers at 100 popular files", 270000, curve.avg.back(),
                      1.0);
    paper_vs_measured("most popular file's peers", 13373,
                      static_cast<double>(popularity.front().peers), 1.0);
    std::cout << "least-queried advertised file: " << popularity.back().peers
              << " peers (paper: some files saw only 2)\n";
    std::cout << "new peers per added file: "
              << curve.avg.back() / static_cast<double>(curve.size())
              << " (paper: ~2,700 at scale 1)\n";
  }
}

/// Runs the distributed campaign and prints everything drawn from it;
/// returns its distinct-peer count for the Table I recap.
std::uint64_t report_distributed(const bench::Options& opt,
                                 analysis::ThreadPool& pool) {
  const auto config = bench::distributed_config(opt);
  std::cout << "running distributed measurement: scale=" << config.scale
            << " honeypots=" << config.honeypots << " days=" << config.days
            << "\n";
  const auto result =
      scenario::run_distributed(config, opt.quiet ? nullptr : &std::cout);
  print_table1_column("Table I -- distributed measurement", result);
  fig02(result, opt.scale);
  fig04(result);
  fig05(result);
  fig06(result);
  fig07(result, opt.scale);
  const auto top = analysis::most_active_peer(result.merged);
  fig08(result, top);
  fig09(result, top);
  fig10(result, pool);
  return result.distinct_peers;
}

/// Runs the greedy campaign and prints everything drawn from it; returns its
/// distinct-peer count for the Table I recap.
std::uint64_t report_greedy(const bench::Options& opt,
                            analysis::ThreadPool& pool) {
  const auto config = bench::greedy_config(opt);
  std::cout << "running greedy measurement: scale=" << config.scale
            << " days=" << config.days << "\n";
  const auto result =
      scenario::run_greedy(config, opt.quiet ? nullptr : &std::cout);
  print_table1_column("Table I -- greedy measurement", result);
  fig03(result, opt.scale);
  fig11(result, pool);
  fig12(result, pool);
  return result.distinct_peers;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, 0.1);
  analysis::ThreadPool pool;
  const auto distributed_peers = report_distributed(opt, pool);
  const auto greedy_peers = report_greedy(opt, pool);

  std::cout << "paper (scale 1.0): distributed 110,049 peers / 28,007 files / "
               "9 TB; greedy 871,445 peers / 267,047 files / 90 TB\n";
  paper_vs_measured("distributed distinct peers", 110049,
                    static_cast<double>(distributed_peers), opt.scale);
  paper_vs_measured("greedy distinct peers", 871445,
                    static_cast<double>(greedy_peers), opt.scale);
  return 0;
}
