// edhp_bench — the repository benchmark.
//
// Runs the paper's pipeline (campaign → published dataset → save → load →
// every table and figure) per workload, one repetition ("rep") per fresh
// child process in an empty scratch directory, and measures it from the
// outside: set-up, wall and CPU time, peak RSS and failed reps end to end;
// counts and outside-in spans per layer when traced. See README.md.
//
//   edhp_bench [--workload <name|all>] [--seed <n>] [--seconds <s>]
//              [--trace <0|1|file>] [--smoke] [--selftest]
//
// Each workload repeats reps until its time box (--seconds, default 55) is
// spent, with at least one rep per campaign seed; --smoke runs one rep, or
// one traced/untraced pair. The last line of standard output is one JSON
// object; the exit code is non-zero when any rep failed a check.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "rep.hpp"

namespace {

using namespace edhp::bench;
namespace fs = std::filesystem;

// Reps cycle over this many campaign seeds derived from the run's seed.
// Campaign size varies from seed to seed (greedy's per-file demand is
// lognormal: its published records move by ~±8%), so medians over a few
// seeds keep a run's numbers steady across seeds.
constexpr std::size_t kSeedsPerRun = 3;
/// Campaign seeds a run may try before a set-aside campaign counts as a
/// failed rep.
constexpr std::size_t kMaxCandidates = 32;
constexpr unsigned kRepTimeoutSeconds = 170;
const fs::path kScratchRoot = ".bench_out";

/// The run's `k`-th candidate campaign seed: the run's seed itself, then
/// seeds spaced by the splitmix64 increment, so runs of nearby seeds share
/// no campaign.
std::uint64_t campaign_seed(std::uint64_t seed, std::size_t k) {
  return seed + k * 0x9E3779B97F4A7C15ull;
}

struct Options {
  std::string workload = "all";
  std::optional<std::uint64_t> seed;
  double seconds = 55;  ///< time box per workload, as run_seconds
  std::string trace = "0";  ///< "0" off, "1" default file, else the file
  bool smoke = false;
  bool selftest = false;
  // Set only on the command line the parent gives a rep's child process.
  std::string child;
  std::string cpus;
  bool traced = false;
  bool selftest_rep = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    auto value = [&]() -> std::string {
      if (inline_value) return *inline_value;
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--selftest") {
      o.selftest = true;
    } else if (arg == "--child") {
      o.child = value();
    } else if (arg == "--cpus") {
      o.cpus = value();
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--selftest-rep") {
      o.selftest_rep = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload != "all" && find_workload(o.workload) == nullptr) {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  return o;
}

/// Shortest text that reads back as the same double.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << std::hex << v;
  return s.str();
}

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
};

/// Median and quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4).
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    s.median = s.q1 = s.q3 = v[0];
    return s;
  }
  const auto ld = static_cast<long>(v.size());
  auto cut = [&](long i) {
    long j = std::clamp(i * (ld + 1) / 4, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.median = cut(2);
  s.q3 = cut(3);
  return s;
}

/// Value at quantile q (0..1) by linear interpolation.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

struct Rep {
  std::uint64_t seed = 0;  ///< campaign seed
  bool ok = false;
  bool traced = false;
  std::string error;
  std::int64_t forked = 0;  ///< now_ns() stamps: fork, campaign call, wait4
  std::int64_t entry = 0;
  std::int64_t reaped = 0;
  double setup_s = 0, wall_s = 0, cpu_s = 0, peak_rss_mib = 0;
  std::uint64_t records = 0, advertised = 0, fingerprint = 0, figures_fp = 0;
  std::map<std::string, double> metrics;
  std::vector<double> days;
  std::vector<Span> spans;
};

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

void read_report(const fs::path& file, Rep& rep) {
  std::ifstream in(file);
  std::int64_t done = 0;
  std::string key;
  while (in >> key) {
    if (key == "t_entry") {
      in >> rep.entry;
    } else if (key == "t_done") {
      in >> done;
    } else if (key == "records") {
      in >> rep.records;
    } else if (key == "advertised") {
      in >> rep.advertised;
    } else if (key == "fingerprint") {
      in >> std::hex >> rep.fingerprint >> std::dec;
    } else if (key == "figures_fp") {
      in >> std::hex >> rep.figures_fp >> std::dec;
    } else if (key == "metric") {
      std::string name;
      double v = 0;
      in >> name >> v;
      rep.metrics[name] = v;
    } else if (key == "day") {
      double v = 0;
      in >> v;
      rep.days.push_back(v);
    } else if (key == "span") {
      Span s;
      in >> s.name >> s.start >> s.end;
      rep.spans.push_back(std::move(s));
    } else {
      rep.error = "unknown report key " + key;
      return;
    }
  }
  if (rep.entry == 0 || done == 0) {
    rep.error = "incomplete report";
    return;
  }
  rep.setup_s = static_cast<double>(rep.entry - rep.forked) / 1e9;
  rep.wall_s = static_cast<double>(done - rep.entry) / 1e9;
  rep.ok = true;
}

/// Pins this process to the CPU it runs on and returns the CPUs it was
/// allowed before, as "0,1,2,3". A rep inherits the pin, so its fork and
/// exec run on the CPU its waiting parent leaves idle instead of waking
/// another one, and set-up time carries less of the host's wake-up
/// latency. The rep takes back the returned CPUs when set-up is over.
std::string pin_to_current_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::system_error(errno, std::generic_category(), "sched_getaffinity");
  }
  std::string list;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (!list.empty()) list += ',';
    list += std::to_string(cpu);
  }
  const auto here = static_cast<std::size_t>(sched_getcpu());
  if (here < CPU_SETSIZE && CPU_ISSET(here, &allowed)) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(here, &one);
    // Best effort: if it fails, reps start unpinned and set-up is noisier.
    sched_setaffinity(0, sizeof one, &one);
  }
  return list;
}

/// Runs one rep in a fresh child process (this binary, re-executed) inside
/// a fresh scratch directory, which is removed afterwards.
Rep spawn_rep(const std::string& exe, const std::vector<std::string>& args,
              bool traced) {
  static int counter = 0;
  const fs::path dir = kScratchRoot / ("rep-" + std::to_string(getpid()) +
                                       "-" + std::to_string(++counter));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string dir_s = dir.string();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  Rep rep;
  rep.traced = traced;
  std::cout.flush();
  std::cerr.flush();
  const pid_t parent = getpid();
  rep.forked = now_ns();
  const pid_t pid = fork();
  if (pid < 0) throw std::system_error(errno, std::generic_category(), "fork");
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. The rep dies with
    // its parent, and the alarm (which survives exec) ends a hung rep.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) _exit(127);
    if (chdir(dir_s.c_str()) != 0) _exit(127);
    alarm(kRepTimeoutSeconds);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      throw std::system_error(errno, std::generic_category(), "wait4");
    }
  }
  rep.reaped = now_ns();
  rep.cpu_s = seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
  rep.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  if (WIFSIGNALED(status)) {
    rep.error = "killed by signal " + std::to_string(WTERMSIG(status));
  } else if (WEXITSTATUS(status) != 0) {
    rep.error = "exit code " + std::to_string(WEXITSTATUS(status));
  } else {
    read_report(dir / "report.txt", rep);
  }
  fs::remove_all(dir);
  return rep;
}

/// Chrome trace-event JSON of every traced rep, written when the run ends.
class TraceWriter {
 public:
  void add(const std::string& label, const Rep& rep) {
    if (origin_ == 0) origin_ = rep.forked;
    const int pid = ++pid_;
    out_ << (first_ ? "" : ",\n") << R"({"name":"process_name","ph":"M","pid":)"
         << pid << R"(,"args":{"name":")" << label << "\"}}";
    first_ = false;
    event(pid, {"rep", rep.forked, rep.reaped});
    event(pid, {"setup", rep.forked, rep.entry});
    for (const auto& s : rep.spans) event(pid, s);
  }

  void write(const fs::path& path) const {
    if (path.has_parent_path()) fs::create_directories(path.parent_path());
    std::ofstream f(path);
    f << "{\"traceEvents\":[\n" << out_.str() << "\n]}\n";
    if (!f) throw std::runtime_error("cannot write trace " + path.string());
  }

 private:
  void event(int pid, const Span& s) {
    out_ << ",\n"
         << R"({"name":")" << s.name << R"(","ph":"X","pid":)" << pid
         << R"(,"tid":1,"ts":)" << num(static_cast<double>(s.start - origin_) / 1e3)
         << R"(,"dur":)" << num(static_cast<double>(s.end - s.start) / 1e3) << '}';
  }

  std::ostringstream out_;
  std::int64_t origin_ = 0;
  int pid_ = 0;
  bool first_ = true;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;  ///< quartiles and sample counts, human output only
};

/// One workload's reps and what they measured.
struct WorkloadRun {
  std::string name;
  std::uint64_t seed = 0;
  int attempted = 0;
  int failed = 0;
  int set_aside = 0;  ///< campaigns that were not the workload
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
};

Metric timing(std::string name, std::string unit, const std::vector<double>& v) {
  const auto s = summarize(v);
  return {std::move(name), std::move(unit), s.median,
          "q1 " + num(s.q1) + " q3 " + num(s.q3) + " n " + std::to_string(s.n)};
}

class Runner {
 public:
  Runner(Options options, std::string exe, std::string cpus)
      : o_(std::move(options)), exe_(std::move(exe)), cpus_(std::move(cpus)) {}

  WorkloadRun run(const Workload& w) {
    WorkloadRun run;
    run.name = std::string(w.name);
    run.seed = o_.seed.value_or(w.seed);
    // When tracing, every campaign seed runs as a traced rep followed by an
    // untraced one: both see the same machine state and the same campaign,
    // and the untraced ones give the end-to-end numbers.
    const std::size_t per_seed = o_.trace != "0" ? 2 : 1;
    std::vector<Rep> reps;
    const auto start = now_ns();
    auto more = [&] {
      const std::size_t done = reps.size();
      if (done % per_seed != 0) return true;  // finish the pair
      if (o_.smoke) return done == 0;
      if (done < kSeedsPerRun * per_seed) return true;
      const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
      const double next = elapsed * static_cast<double>(per_seed) /
                          static_cast<double>(done);
      return elapsed + next <= o_.seconds;
    };
    // The campaign seeds the reps cycle over. A campaign that is not the
    // workload (Workload::min_advertised) is set aside, and its seed gives
    // way to the next candidate; the traced rep of a pair runs first, so an
    // untraced rep never meets a set-aside campaign.
    std::array<std::uint64_t, kSeedsPerRun> seeds{};
    std::size_t candidates = 0;
    for (auto& s : seeds) s = campaign_seed(run.seed, candidates++);
    while (more()) {
      const bool traced = per_seed == 2 && reps.size() % 2 == 0;
      std::uint64_t& seed = seeds[reps.size() / per_seed % kSeedsPerRun];
      std::vector<std::string> args = {"--child=" + run.name,
                                       "--seed=" + std::to_string(seed),
                                       "--cpus=" + cpus_};
      if (o_.smoke) args.emplace_back("--smoke");
      if (traced) args.emplace_back("--traced");
      Rep rep = spawn_rep(exe_, args, traced);
      rep.seed = seed;
      if (rep.ok && rep.advertised < w.min_advertised) {
        std::cerr << run.name << " campaign seed " << seed
                  << " set aside: it advertised " << rep.advertised
                  << " files\n";
        if (candidates < kMaxCandidates) {
          ++run.set_aside;
          seed = campaign_seed(run.seed, candidates++);
          continue;
        }
        rep.ok = false;
        rep.error = "no candidate campaign seed is the workload";
      }
      if (!rep.ok) {
        std::cerr << run.name << " rep " << reps.size() + 1
                  << " FAILED: " << rep.error << "\n";
      }
      reps.push_back(std::move(rep));
    }
    check(w, reps);
    run.attempted = static_cast<int>(reps.size());
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (!reps[i].ok) {
        ++run.failed;
      } else if (reps[i].traced) {
        trace_.add(run.name + " rep " + std::to_string(i + 1), reps[i]);
      }
    }
    summarize_run(run, reps);
    return run;
  }

  /// One small rep whose honeypots silently drop records: the audit must
  /// fail it. Returns whether it failed.
  bool selftest() {
    Rep rep = spawn_rep(exe_,
                        {"--child=" + std::string(kWorkloads[0].name),
                         "--seed=0", "--cpus=" + cpus_, "--selftest-rep"},
                        false);
    return !rep.ok;
  }

  void write_trace() const {
    if (o_.trace == "0") return;
    const fs::path path =
        o_.trace != "1"
            ? fs::path(o_.trace)
            : kScratchRoot / ("trace-" + o_.workload + "-seed" +
                              (o_.seed ? std::to_string(*o_.seed) : "default") +
                              ".json");
    trace_.write(path);
    std::cout << "trace written to " << path.string() << "\n";
  }

 private:
  /// Marks as failed every rep that misses the pinned outputs (the default
  /// seed) or disagrees with the first successful rep of its campaign seed.
  void check(const Workload& w, std::vector<Rep>& reps) const {
    const Pin& pin = o_.smoke ? w.smoke_pin : w.pin;
    std::map<std::uint64_t, const Rep*> first;
    for (auto& rep : reps) {
      if (!rep.ok) continue;
      const Rep*& ref = first[rep.seed];
      if (rep.seed == w.seed &&
          (rep.records != pin.records || rep.fingerprint != pin.fingerprint ||
           rep.figures_fp != pin.figures)) {
        rep.ok = false;
        rep.error = "mismatch with the pinned outputs: records " +
                    std::to_string(rep.records) + " fingerprint " +
                    hex(rep.fingerprint) + " figures_fp " + hex(rep.figures_fp);
      } else if (ref == nullptr) {
        ref = &rep;
      } else if (rep.records != ref->records ||
                 rep.fingerprint != ref->fingerprint ||
                 rep.figures_fp != ref->figures_fp ||
                 !same_exact_metrics(rep, *ref)) {
        rep.ok = false;
        rep.error = "disagrees with an earlier rep of the same seed";
      }
      if (!rep.ok) std::cerr << w.name << " rep FAILED: " << rep.error << "\n";
    }
  }

  static bool same_exact_metrics(const Rep& a, const Rep& b) {
    for (const auto& m : kLayerMetrics) {
      if (!m.exact) continue;
      const std::string name(m.name);
      if (a.metrics.at(name) != b.metrics.at(name)) return false;
    }
    return true;
  }

  static void summarize_run(WorkloadRun& run, const std::vector<Rep>& reps) {
    std::vector<double> setup, wall, cpu, rss, days, overhead;
    const Rep* ref = nullptr;  // counts are reported for the first campaign
    bool tracing = false;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const Rep& rep = reps[i];
      if (!rep.ok) continue;
      if (ref == nullptr) ref = &rep;
      if (rep.traced) {
        tracing = true;
        days.insert(days.end(), rep.days.begin(), rep.days.end());
        // The untraced rep that follows ran the same campaign.
        if (i + 1 < reps.size() && reps[i + 1].ok) {
          overhead.push_back(rep.wall_s / reps[i + 1].wall_s - 1.0);
        }
        continue;
      }
      setup.push_back(rep.setup_s);
      wall.push_back(rep.wall_s);
      cpu.push_back(rep.cpu_s);
      rss.push_back(rep.peak_rss_mib);
    }
    if (!wall.empty()) {
      run.end_to_end = {timing("setup_s", "s", setup),
                        timing("wall_s", "s", wall),
                        timing("cpu_s", "s", cpu),
                        timing("peak_rss_mib", "MiB", rss)};
    }
    run.end_to_end.push_back(
        {"error_rate", "fraction",
         static_cast<double>(run.failed) / static_cast<double>(run.attempted),
         std::to_string(run.failed) + " of " + std::to_string(run.attempted) +
             " reps failed"});
    if (ref == nullptr) return;
    run.end_to_end.push_back({"records", "count",
                              static_cast<double>(ref->records),
                              "fingerprint " + hex(ref->fingerprint) +
                                  " figures_fp " + hex(ref->figures_fp)});
    if (!tracing) return;

    for (const auto& m : kLayerMetrics) {
      const std::string name(m.name);
      const std::string unit(m.unit);
      if (m.exact) {
        run.layers.push_back({name, unit, ref->metrics.at(name), ""});
      } else {
        std::vector<double> v;
        for (const auto& rep : reps) {
          if (rep.ok && rep.traced) v.push_back(rep.metrics.at(name));
        }
        run.layers.push_back(timing(name, unit, v));
      }
    }
    // A day percentile is meaningful when at least ten samples lie beyond it.
    for (const auto& [name, q] : {std::pair{"scenario.day_p50_s", 0.5},
                                  std::pair{"scenario.day_p90_s", 0.9}}) {
      const auto beyond = static_cast<std::size_t>(
          static_cast<double>(days.size()) * (1.0 - q));
      run.layers.push_back({name, "s", quantile(days, q),
                            "n " + std::to_string(days.size()) + ", " +
                                std::to_string(beyond) + " beyond"});
    }
    if (!overhead.empty()) {
      auto m = timing("trace_overhead_frac", "fraction", overhead);
      m.note += " traced/untraced wall_s pairs of one campaign seed";
      run.layers.push_back(std::move(m));
    }
  }

  Options o_;
  std::string exe_;
  std::string cpus_;  ///< what the parent was allowed before pinning itself
  TraceWriter trace_;
};

void print_human(const WorkloadRun& run) {
  std::cout << "== " << run.name << "  seed " << run.seed << "  reps "
            << run.attempted << "  failed " << run.failed << "  set aside "
            << run.set_aside << "\n";
  for (const auto* group : {&run.end_to_end, &run.layers}) {
    for (const auto& m : *group) {
      std::cout << run.name << '.' << m.name << ' ' << num(m.value) << ' '
                << m.unit;
      if (!m.note.empty()) std::cout << "  [" << m.note << ']';
      std::cout << '\n';
    }
  }
}

/// The result line: end-to-end metrics untraced, per-layer metrics traced.
void print_json(const std::vector<WorkloadRun>& runs, bool traced,
                int attempted, int failed) {
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& run : runs) {
    const auto& metrics = traced ? run.layers : run.end_to_end;
    for (const auto& m : metrics) {
      if (!traced && (m.name == "error_rate" || m.name == "records")) continue;
      const std::string key =
          runs.size() == 1 ? m.name : run.name + "." + m.name;
      std::cout << (first ? "" : ", ") << '"' << key << "\": {\"value\": "
                << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
  }
  std::cout << "}}" << std::endl;
}

int child_main(const Options& o) {
  RepRequest request;
  request.workload = find_workload(o.child);
  if (request.workload == nullptr || !o.seed) {
    throw std::invalid_argument("a rep needs a known workload and a seed");
  }
  request.seed = *o.seed;
  request.smoke = o.smoke;
  request.traced = o.traced;
  request.selftest = o.selftest_rep;
  request.cpus = o.cpus;
  std::ofstream out("report.txt");
  run_rep(request, out);
  out.close();
  if (!out) throw std::runtime_error("cannot write report.txt");
  return 0;
}

int parent_main(const Options& o) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  Runner runner(o, exe, pin_to_current_cpu());
  std::vector<WorkloadRun> runs;
  int attempted = 0, failed = 0;
  for (const auto& w : kWorkloads) {
    if (o.workload != "all" && o.workload != w.name) continue;
    runs.push_back(runner.run(w));
    print_human(runs.back());
    attempted += runs.back().attempted;
    failed += runs.back().failed;
  }
  if (o.selftest) {
    ++attempted;
    if (runner.selftest()) {
      ++failed;
      std::cout << "selftest rep failed its audit, as it must\n";
    } else {
      std::cout << "selftest rep PASSED: the audit missed a silent loss\n";
    }
  }
  runner.write_trace();
  std::error_code ignored;
  fs::remove(kScratchRoot, ignored);  // only if empty
  print_json(runs, o.trace != "0", attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "edhp_bench: " << e.what()
              << "\nusage: edhp_bench [--workload <distributed|greedy|chaos|"
                 "paper_scale|all>] [--seed <n>] [--seconds <s>] "
                 "[--trace <0|1|file>] [--smoke] [--selftest]\n";
    return 2;
  }
  try {
    return o.child.empty() ? parent_main(o) : child_main(o);
  } catch (const std::exception& e) {
    std::cerr << "edhp_bench" << (o.child.empty() ? "" : " rep") << ": "
              << e.what() << "\n";
    return 1;
  }
}
