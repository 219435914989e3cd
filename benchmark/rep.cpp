#include "rep.hpp"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/log_stats.hpp"
#include "analysis/report.hpp"
#include "analysis/subsets.hpp"
#include "analysis/thread_pool.hpp"
#include "logbook/log_io.hpp"
#include "scenario/scenario.hpp"

namespace edhp::bench {

// Pins are the outputs of each workload's default seed. A change that moves
// one changed what the campaign publishes or what a figure shows.
const std::array<Workload, 4> kWorkloads = {{
    {"distributed", 20081001, 0,
     {605356, 0xc8e8f17c44206be8ull, 0xfd433ab352b13f48ull},
     {6560, 0x914ab7e7d7a15ed4ull, 0x50efc54cd12a13d0ull}},
    // The default seed harvests 318 files (130 at the --smoke scale); a
    // collapsed harvest advertises only the 3 seed files.
    {"greedy", 20081101, 32,
     {1105048, 0x188cf94495bb6100ull, 0x7a5741ebff7cefddull},
     {287159, 0x51f95c7849bd2d2dull, 0xb8219c5b017fd614ull}},
    {"chaos", 20081001, 0,
     {42418, 0xb43a40b8234b5724ull, 0x373070f4233f58bfull},
     {11543, 0xac0146442afba3caull, 0xece1840e67e13b93ull}},
    {"paper_scale", 20081001, 0,
     {897162, 0xe441f3a230055673ull, 0xbe774bab96d46288ull},
     {9433, 0x5f15900c163fb68dull, 0xbc5be10a0b7d4a87ull}},
}};

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::array<LayerMetric, 46> kLayerMetrics = {{
    {"scenario.simulate_s", "s", false},
    {"scenario.publish_s", "s", false},
    {"sim.events", "count", true},
    {"sim.scheduled", "count", true},
    {"sim.cancelled", "count", true},
    {"sim.stale_cancels", "count", true},
    {"sim.cancel_ratio", "fraction", true},
    {"sim.peak_heap", "count", true},
    {"sim.recycle_rate", "fraction", true},
    {"sim.events_per_s", "1/s", false},
    {"net.messages_sent", "count", true},
    {"net.messages_delivered", "count", true},
    {"net.delivery_ratio", "fraction", true},
    {"net.messages_per_s", "1/s", false},
    {"net.datagrams_sent", "count", true},
    {"net.datagrams_dropped", "count", true},
    {"net.connects", "count", true},
    {"net.refusals", "count", true},
    {"net.aborted", "count", true},
    {"net.malformed", "count", true},
    {"net.peak_live_nodes", "count", true},
    {"net.nodes_retired", "count", true},
    {"peer.arrivals", "count", true},
    {"peer.peak_active", "count", true},
    {"peer.slab_slots", "count", true},
    {"honeypot.records_born", "count", true},
    {"honeypot.relaunches", "count", true},
    {"honeypot.retries", "count", true},
    {"defense.accepted", "count", true},
    {"defense.shed", "count", true},
    {"defense.rate_limited", "count", true},
    {"defense.reaped", "count", true},
    {"logbook.save_s", "s", false},
    {"logbook.load_s", "s", false},
    {"logbook.log_bytes", "B", true},
    {"logbook.records_published", "count", true},
    {"logbook.journal_entries", "count", true},
    {"logbook.journal_bytes", "B", true},
    {"logbook.chunks_accepted", "count", true},
    {"logbook.chunk_dup_ratio", "fraction", true},
    {"logbook.chunks_quarantined", "count", true},
    {"logbook.records_corrected", "count", true},
    {"analysis.figures_s", "s", false},
    {"analysis.subsets_s", "s", false},
    {"audit.accounted", "count", true},
    {"fault.injected", "count", true},
}};

namespace {

using scenario::ScenarioResult;

/// Timed calls of one rep, kept in memory and written with the report.
class Spans {
 public:
  template <class F>
  auto time(std::string name, F&& f) {
    const auto start = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      add(std::move(name), start, now_ns());
    } else {
      auto value = f();
      add(std::move(name), start, now_ns());
      return value;
    }
  }

  void add(std::string name, std::int64_t start, std::int64_t end) {
    spans_.push_back({std::move(name), start, end});
  }

  /// Summed duration in seconds of the spans whose name starts with `prefix`.
  [[nodiscard]] double seconds(std::string_view prefix) const {
    std::int64_t ns = 0;
    for (const auto& s : spans_) {
      if (s.name.starts_with(prefix)) ns += s.end - s.start;
    }
    return static_cast<double>(ns) / 1e9;
  }

  void write(std::ostream& out) const {
    for (const auto& s : spans_) {
      out << "span " << s.name << ' ' << s.start << ' ' << s.end << '\n';
    }
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
};

/// Progress sink that timestamps each newline the campaign writes (one per
/// simulated day) and never looks at the text.
class DayTicks : public std::streambuf {
 public:
  std::vector<std::int64_t> ticks;

 protected:
  int_type overflow(int_type c) override {
    if (c == '\n') ticks.push_back(now_ns());
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (std::memchr(s, '\n', static_cast<std::size_t>(n)) != nullptr) {
      ticks.push_back(now_ns());
    }
    return n;
  }
};

// Every chaos axis armed at once, as in the "+ manager churn + resource
// faults" case of bench_ablation_audit (which also drops the top peer; here
// it stays, as in the other distributed workloads).
void arm_every_chaos_axis(scenario::DistributedConfig& c) {
  c.chaos.enabled = true;
  c.chaos.host_mtbf = hours(18);
  c.chaos.uplink_mtbf = hours(16);
  c.chaos.server_mtbf = days(2);
  c.abuse.enabled = true;
  auto& b = c.chaos.byzantine;
  b.enabled = true;
  b.fabricate_mtbf = hours(12);
  b.stale_index_mtbf = hours(12);
  b.forge_list_mtba = hours(4);
  b.replay_hello_mtba = hours(4);
  c.chaos.clock_drift_mtbf = days(2);
  c.chaos.clock_step_mtbf = hours(12);
  c.chaos.clock_step_max = 60.0;
  c.chaos.disk_quota_bytes = 192 * 1024;
  c.chaos.mem_budget_records = 4096;
  c.chaos.manager_mtbf = days(1);
  c.chaos.disk_full_mtbf = hours(12);
  c.chaos.mem_pressure_mtbf = hours(12);
}

scenario::DistributedConfig distributed_config(const RepRequest& r) {
  scenario::DistributedConfig c;
  c.seed = r.seed;
  c.audit = true;
  const std::string_view name = r.workload->name;
  if (r.selftest) {
    // tests/chaos_corpus/selftest-drop.cfg: every 97th record vanishes
    // without a disposition, so the audited run must fail.
    c.seed = 20260808;
    c.scale = 0.02;
    c.days = 1;
    c.honeypots = 4;
    c.chaos.audit_selftest_drop = 97;
  } else if (name == "distributed") {
    c.scale = r.smoke ? 0.01 : 0.1;
    if (r.smoke) c.days = 2;
  } else if (name == "chaos") {
    c.scale = 0.02;
    c.days = r.smoke ? 2 : 16;
    arm_every_chaos_axis(c);
  } else {  // paper_scale
    c.scale = r.smoke ? 0.05 : 1.0;
    c.days = r.smoke ? 1 : 4;
  }
  return c;
}

scenario::GreedyConfig greedy_config(const RepRequest& r) {
  scenario::GreedyConfig c;
  c.seed = r.seed;
  c.audit = true;
  c.scale = r.smoke ? 0.01 : 0.1;
  if (r.smoke) c.days = 2;
  return c;
}

/// FNV-1a (64-bit words) over every published record field, as the
/// scenario golden tests compute it.
std::uint64_t fingerprint(const logbook::LogFile& log) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& rec : log.records) {
    std::uint64_t t_bits = 0;
    static_assert(sizeof(rec.timestamp) == 8);
    std::memcpy(&t_bits, &rec.timestamp, 8);
    mix(t_bits);
    mix(rec.peer);
    mix(rec.user);
    mix(static_cast<std::uint64_t>(rec.honeypot));
    mix(static_cast<std::uint64_t>(rec.type));
  }
  return h;
}

/// Every table column and figure series of a workload, in a fixed order.
class Figures {
 public:
  void add(std::string name, const std::vector<std::uint64_t>& values) {
    series_.push_back({std::move(name), {values.begin(), values.end()}});
  }
  void add(std::string name, std::vector<double> values) {
    series_.push_back({std::move(name), std::move(values)});
  }
  void add(std::string prefix, const analysis::SubsetCurve& curve) {
    add(prefix + ".avg", curve.avg);
    add(prefix + ".min", curve.min);
    add(prefix + ".max", curve.max);
  }

  /// FNV-1a over each series' name and the bits of its values.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    for (const auto& s : series_) {
      for (const char c : s.name) mix(static_cast<unsigned char>(c));
      mix(s.values.size());
      for (const double v : s.values) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
      }
    }
    return h;
  }

 private:
  std::vector<analysis::Series> series_;
};

void table1(Figures& figs, const ScenarioResult& r, std::size_t records) {
  figs.add("table1",
           std::vector<std::uint64_t>{r.honeypots,
                                      static_cast<std::uint64_t>(r.days),
                                      r.advertised_files, r.distinct_peers,
                                      r.observed.distinct, r.observed.bytes,
                                      records});
}

void add_distinct(Figures& figs, const std::string& name,
                  const analysis::DistinctSeries& s) {
  figs.add(name + ".cumulative", s.cumulative);
  figs.add(name + ".fresh", s.fresh);
}

/// Table I and Figs 2, 4-10 over a distributed campaign's stored dataset.
void distributed_figures(Figures& figs, Spans& spans,
                         const logbook::LogFile& log, const ScenarioResult& r,
                         analysis::ThreadPool& pool) {
  using logbook::QueryType;
  const auto days = static_cast<std::size_t>(r.days);
  const auto random = scenario::strategy_filter(r, true);
  const auto none = scenario::strategy_filter(r, false);
  spans.time("analysis.table1", [&] { table1(figs, r, log.records.size()); });
  spans.time("analysis.fig02", [&] {
    add_distinct(figs, "fig02",
                 analysis::distinct_peers_by_day(log, std::nullopt, days));
  });
  spans.time("analysis.fig04", [&] {
    figs.add("fig04", analysis::messages_by_hour(log, QueryType::hello, 168));
  });
  const std::pair<const char*, QueryType> by_strategy[] = {
      {"fig05", QueryType::hello}, {"fig06", QueryType::start_upload}};
  for (const auto& [fig, type] : by_strategy) {
    spans.time(std::string("analysis.") + fig, [&] {
      add_distinct(figs, std::string(fig) + ".random",
                   analysis::distinct_peers_by_day(log, type, days, random));
      add_distinct(figs, std::string(fig) + ".none",
                   analysis::distinct_peers_by_day(log, type, days, none));
    });
  }
  spans.time("analysis.fig07", [&] {
    figs.add("fig07.random", analysis::cumulative_messages_by_day(
                                 log, QueryType::request_part, days, random));
    figs.add("fig07.none", analysis::cumulative_messages_by_day(
                               log, QueryType::request_part, days, none));
  });
  const auto top =
      spans.time("analysis.top_peer", [&] { return analysis::most_active_peer(log); });
  if (top) {
    const std::pair<const char*, QueryType> top_peer[] = {
        {"fig08", QueryType::start_upload}, {"fig09", QueryType::request_part}};
    for (const auto& [fig, type] : top_peer) {
      spans.time(std::string("analysis.") + fig, [&] {
        figs.add(std::string(fig) + ".random",
                 analysis::peer_messages_by_day(log, *top, type, days, random));
        figs.add(std::string(fig) + ".none",
                 analysis::peer_messages_by_day(log, *top, type, days, none));
      });
    }
  }
  spans.time("analysis.subsets.fig10", [&] {
    const auto sets = analysis::peer_sets_by_honeypot(log, r.honeypots);
    figs.add("fig10",
             analysis::subset_union_curve(sets, 100, Rng(777), &pool));
  });
}

/// Table I and Figs 3, 11, 12 over the greedy campaign's stored dataset.
void greedy_figures(Figures& figs, Spans& spans, const logbook::LogFile& log,
                    const ScenarioResult& r, analysis::ThreadPool& pool) {
  const auto days = static_cast<std::size_t>(r.days);
  spans.time("analysis.table1", [&] { table1(figs, r, log.records.size()); });
  spans.time("analysis.fig03", [&] {
    add_distinct(figs, "fig03",
                 analysis::distinct_peers_by_day(log, std::nullopt, days));
  });
  spans.time("analysis.subsets.fig11", [&] {
    Rng pick(4242);
    const std::size_t n =
        std::min<std::size_t>(100, r.advertised_ids.size());
    std::vector<FileId> chosen;
    for (const auto idx : pick.sample_indices(r.advertised_ids.size(), n)) {
      chosen.push_back(r.advertised_ids[idx]);
    }
    const auto sets = analysis::peer_sets_by_file(log, chosen);
    figs.add("fig11",
             analysis::subset_union_curve(sets, 100, Rng(777), &pool));
  });
  spans.time("analysis.subsets.fig12", [&] {
    const auto popularity = analysis::file_popularity(log);
    std::vector<FileId> chosen;
    for (std::size_t i = 0; i < std::min<std::size_t>(100, popularity.size());
         ++i) {
      chosen.push_back(popularity[i].file);
    }
    const auto sets = analysis::peer_sets_by_file(log, chosen);
    figs.add("fig12",
             analysis::subset_union_curve(sets, 100, Rng(777), &pool));
  });
}

std::size_t pool_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<std::size_t>(std::clamp(cpus, 1, 4));
}

/// Lets this process run on every CPU of `cpus` ("0,1,2,3").
void set_affinity(std::string_view cpus) {
  const auto fail = [&] {
    return std::runtime_error("cannot set CPU affinity " + std::string(cpus));
  };
  cpu_set_t set;
  CPU_ZERO(&set);
  const char* p = cpus.data();
  const char* const end = p + cpus.size();
  while (true) {
    std::size_t cpu = CPU_SETSIZE;
    p = std::from_chars(p, end, cpu).ptr;
    if (cpu >= CPU_SETSIZE) throw fail();
    CPU_SET(cpu, &set);
    if (p == end) break;
    if (*p++ != ',') throw fail();
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0) throw fail();
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::uint64_t faults_injected(const fault::FaultStats& f) {
  return f.host_crashes + f.uplink_outages + f.server_restarts +
         f.latency_spikes + f.partition_episodes + f.manager_crashes +
         f.disk_full_episodes + f.disk_slow_episodes +
         f.mem_pressure_episodes + f.clock_drift_changes + f.clock_steps +
         f.clock_freezes;
}

}  // namespace

void run_rep(const RepRequest& request, std::ostream& out) {
  Spans spans;
  DayTicks ticks;
  std::ostream progress_stream(&ticks);
  std::ostream* progress = request.traced ? &progress_stream : nullptr;
  const bool greedy = !request.selftest && request.workload->name == "greedy";
  // Configs are built before the clock starts: their cost is set-up.
  const auto dconfig = distributed_config(request);
  const auto gconfig = greedy_config(request);

  const auto entry = now_ns();
  if (!request.cpus.empty()) set_affinity(request.cpus);
  ScenarioResult result =
      greedy ? scenario::run_greedy(gconfig, progress)
             : scenario::run_distributed(dconfig, progress);
  const auto returned = now_ns();
  spans.add(greedy ? "scenario.run_greedy" : "scenario.run_distributed",
            entry, returned);

  const std::uint64_t published = result.merged.records.size();
  const std::string path = "published.edhplog";
  spans.time("logbook.save", [&] {
    const logbook::LogFile log = std::move(result.merged);
    logbook::save(path, log);
  });
  const auto log = spans.time("logbook.load", [&] { return logbook::load(path); });
  if (log.records.size() != published) {
    throw std::runtime_error("loaded dataset lost records");
  }
  const std::uint64_t records_fp =
      spans.time("check.fingerprint", [&] { return fingerprint(log); });

  analysis::ThreadPool pool(pool_threads());
  Figures figs;
  const auto figures_start = now_ns();
  if (greedy) {
    greedy_figures(figs, spans, log, result, pool);
  } else {
    distributed_figures(figs, spans, log, result, pool);
  }
  const std::uint64_t figures_fp = figs.digest();
  const auto done = now_ns();
  spans.add("analysis.figures", figures_start, done);

  out.precision(17);
  out << "t_entry " << entry << "\nt_done " << done << "\nrecords "
      << published << "\nadvertised " << result.advertised_files << std::hex
      << "\nfingerprint " << records_fp
      << "\nfigures_fp " << figures_fp << std::dec << '\n';
  auto metric = [&out](std::string_view name, double value) {
    out << "metric " << name << ' ' << value << '\n';
  };
  const auto& e = result.engine;
  metric("sim.events", static_cast<double>(e.events_executed));
  metric("sim.scheduled", static_cast<double>(e.slot_acquisitions));
  metric("sim.cancelled", static_cast<double>(e.events_cancelled));
  metric("sim.stale_cancels", static_cast<double>(e.stale_cancels));
  metric("sim.cancel_ratio", ratio(e.events_cancelled, e.slot_acquisitions));
  metric("sim.peak_heap", static_cast<double>(e.peak_heap));
  metric("sim.recycle_rate", e.recycle_rate());
  const auto& n = result.net_totals;
  metric("net.messages_sent", static_cast<double>(n.messages_sent));
  metric("net.messages_delivered", static_cast<double>(n.messages_delivered));
  metric("net.delivery_ratio", ratio(n.messages_delivered, n.messages_sent));
  metric("net.datagrams_sent", static_cast<double>(n.datagrams_sent));
  metric("net.datagrams_dropped", static_cast<double>(n.datagrams_dropped));
  metric("net.connects", static_cast<double>(n.connects_initiated));
  metric("net.refusals", static_cast<double>(n.refusals));
  metric("net.aborted", static_cast<double>(n.connections_aborted));
  metric("net.malformed", static_cast<double>(n.malformed_packets));
  metric("net.peak_live_nodes", static_cast<double>(result.net_peak_live_nodes));
  metric("net.nodes_retired", static_cast<double>(result.net_nodes_retired));
  metric("peer.arrivals", static_cast<double>(result.population_arrivals));
  metric("peer.peak_active", static_cast<double>(result.population_peak_active));
  metric("peer.slab_slots", static_cast<double>(result.population_slab_slots));
  metric("honeypot.records_born", static_cast<double>(result.audit.records_born));
  metric("honeypot.relaunches", static_cast<double>(result.relaunches));
  metric("honeypot.retries",
         static_cast<double>(result.recovery.honeypot_retries));
  const auto& d = result.defense;
  metric("defense.accepted", static_cast<double>(d.accepted));
  metric("defense.shed", static_cast<double>(d.shed));
  metric("defense.rate_limited", static_cast<double>(d.rate_limited));
  metric("defense.reaped", static_cast<double>(d.reaped));
  const auto& rec = result.recovery;
  metric("logbook.log_bytes",
         static_cast<double>(std::filesystem::file_size(path)));
  metric("logbook.records_published", static_cast<double>(published));
  metric("logbook.journal_entries", static_cast<double>(rec.journal_entries));
  metric("logbook.journal_bytes", static_cast<double>(rec.journal_bytes));
  metric("logbook.chunks_accepted", static_cast<double>(rec.chunks_accepted));
  metric("logbook.chunk_dup_ratio",
         ratio(rec.chunks_duplicate, rec.chunks_accepted + rec.chunks_duplicate));
  metric("logbook.chunks_quarantined",
         static_cast<double>(rec.chunks_quarantined));
  metric("logbook.records_corrected",
         static_cast<double>(result.time_integrity.records_corrected));
  metric("audit.accounted", static_cast<double>(result.audit.accounted()));
  metric("fault.injected", static_cast<double>(faults_injected(result.faults)));
  if (!request.traced) return;

  // Timings come from traced reps only; the untraced ones give the
  // end-to-end numbers.
  if (ticks.ticks.empty()) throw std::runtime_error("campaign reported no day");
  const auto last_tick = ticks.ticks.back();
  const double simulate_s = static_cast<double>(last_tick - entry) / 1e9;
  spans.add("scenario.simulate", entry, last_tick);
  spans.add("scenario.publish", last_tick, returned);
  auto prev = entry;
  for (std::size_t i = 0; i < ticks.ticks.size(); ++i) {
    spans.add("scenario.day." + std::to_string(i + 1), prev, ticks.ticks[i]);
    out << "day " << static_cast<double>(ticks.ticks[i] - prev) / 1e9 << '\n';
    prev = ticks.ticks[i];
  }
  metric("scenario.simulate_s", simulate_s);
  metric("scenario.publish_s", static_cast<double>(returned - last_tick) / 1e9);
  metric("sim.events_per_s", static_cast<double>(e.events_executed) / simulate_s);
  metric("net.messages_per_s",
         static_cast<double>(n.messages_delivered) / simulate_s);
  metric("logbook.save_s", spans.seconds("logbook.save"));
  metric("logbook.load_s", spans.seconds("logbook.load"));
  metric("analysis.figures_s", spans.seconds("analysis.figures"));
  metric("analysis.subsets_s", spans.seconds("analysis.subsets."));
  spans.write(out);
}

}  // namespace edhp::bench
