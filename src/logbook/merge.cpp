#include "logbook/merge.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace edhp::logbook {
namespace {

/// Whether key (ta, ha) orders strictly before key (tb, hb).
bool before(Time ta, std::uint16_t ha, Time tb, std::uint16_t hb) {
  if (ta != tb) return ta < tb;
  return ha < hb;
}

/// The merged header and the unified name table: every log's names are
/// interned in input order. Returns, per log, the map from its name refs
/// to the merged table's.
std::vector<std::vector<std::uint16_t>> unify(
    std::span<const LogFile* const> logs, LogFile& merged) {
  merged.header.honeypot = 0xFFFF;
  merged.header.honeypot_name = "merged";
  std::vector<std::vector<std::uint16_t>> remaps;
  if (logs.empty()) return remaps;

  const LogHeader& first = logs.front()->header;
  merged.header.peer_kind = first.peer_kind;
  merged.header.server_name = first.server_name;
  merged.header.server_ip = first.server_ip;
  merged.header.server_port = first.server_port;
  remaps.reserve(logs.size());
  for (const LogFile* log : logs) {
    if (log->header.peer_kind != merged.header.peer_kind) {
      throw std::invalid_argument(
          "merge_logs: cannot mix stage-1 and stage-2 logs");
    }
    if (log->header.server_ip != merged.header.server_ip) {
      // Honeypots on different servers: no single server identity.
      merged.header.server_name.clear();
      merged.header.server_ip = 0;
      merged.header.server_port = 0;
    }
    auto& remap = remaps.emplace_back(log->names.size());
    for (std::size_t i = 0; i < log->names.size(); ++i) {
      remap[i] = merged.intern(log->names[i]);
    }
  }
  return remaps;
}

/// The stable k-way merge both entry points share. `time(l, i)` is the
/// ordering time of record i of log l (and the timestamp it is published
/// with); the key is (time, honeypot). When `excluded` is non-null, tainted
/// records are skipped and counted there.
template <typename TimeOf>
LogFile merge_runs(std::span<const LogFile* const> logs,
                   std::uint64_t* excluded, const TimeOf& time) {
  LogFile merged;
  const auto remaps = unify(logs, merged);
  const auto skip = [excluded](const LogRecord& r) {
    return excluded != nullptr && r.tainted();
  };

  // Natural runs, in input order: maximal stretches of kept records whose
  // key never decreases. Run order breaks ties, so popping the smallest
  // (key, run) yields exactly the stable sort of the concatenation.
  struct Run {
    std::size_t log;
    std::size_t next;  ///< index of the run's head record
    std::size_t end;
  };
  std::vector<Run> runs;
  std::uint64_t skipped = 0;
  std::size_t kept = 0;
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const auto& records = logs[l]->records;
    for (std::size_t i = 0; i < records.size();) {
      if (skip(records[i])) {
        ++skipped;
        ++i;
        continue;
      }
      const std::size_t begin = i++;
      while (i < records.size() && !skip(records[i]) &&
             !before(time(l, i), records[i].honeypot, time(l, i - 1),
                     records[i - 1].honeypot)) {
        ++i;
      }
      runs.push_back({l, begin, i});
      kept += i - begin;
    }
  }
  if (excluded != nullptr) *excluded = skipped;

  // A heap of run heads, smallest (time, honeypot, run) on top.
  struct Head {
    Time time;
    std::uint16_t honeypot;
    std::size_t run;
  };
  const auto after = [](const Head& a, const Head& b) {
    if (before(a.time, a.honeypot, b.time, b.honeypot)) return false;
    if (before(b.time, b.honeypot, a.time, a.honeypot)) return true;
    return a.run > b.run;
  };
  const auto head_of = [&](std::size_t run) {
    const Run& r = runs[run];
    return Head{time(r.log, r.next), logs[r.log]->records[r.next].honeypot,
                run};
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heap(after);
  for (std::size_t run = 0; run < runs.size(); ++run) heap.push(head_of(run));

  merged.records.reserve(kept);
  while (!heap.empty()) {
    const Head top = heap.top();
    heap.pop();
    Run& run = runs[top.run];
    LogRecord r = logs[run.log]->records[run.next];
    r.timestamp = top.time;
    r.name_ref = remaps[run.log][r.name_ref];
    merged.records.push_back(r);
    if (++run.next < run.end) heap.push(head_of(top.run));
  }
  return merged;
}

/// One honeypot's reconstructed clock: the monotone envelope of its
/// observed local readings paired with the manager's true times, plus the
/// boundary slopes used beyond the observed range.
struct ClockFit {
  std::vector<Time> local;  ///< monotone envelope, non-decreasing
  std::vector<Time> truth;  ///< strictly increasing observation times
  double slope_lo = 1.0;    ///< d(true)/d(local) before the first sighting
  double slope_hi = 1.0;    ///< ... after the last sighting
};

/// Map a (monotone-repaired) local reading onto the true timeline.
Time apply_fit(const ClockFit& fit, Time local, TimeIntegrityStats& stats) {
  const std::size_t n = fit.local.size();
  if (n == 1) {
    // A single sighting supports only a constant-offset model.
    ++stats.records_extrapolated;
    return local + (fit.truth[0] - fit.local[0]);
  }
  const auto it = std::upper_bound(fit.local.begin(), fit.local.end(), local);
  const auto idx = static_cast<std::size_t>(it - fit.local.begin());
  if (idx == 0) {
    ++stats.records_extrapolated;
    return fit.truth.front() + (local - fit.local.front()) * fit.slope_lo;
  }
  if (idx == n) {
    ++stats.records_extrapolated;
    return fit.truth.back() + (local - fit.local.back()) * fit.slope_hi;
  }
  const std::size_t i = idx - 1;
  const Time dl = fit.local[i + 1] - fit.local[i];
  if (dl <= 0) {
    // Flat (non-invertible) segment: a backwards step collapsed it. The
    // best defensible claim is "somewhere in this window"; pin to its
    // start so same-honeypot order still decides, and flag it.
    ++stats.records_ambiguous;
    return fit.truth[i];
  }
  ++stats.records_interpolated;
  return fit.truth[i] +
         (local - fit.local[i]) * (fit.truth[i + 1] - fit.truth[i]) / dl;
}

}  // namespace

std::vector<const LogFile*> borrow(std::span<const LogFile> logs) {
  std::vector<const LogFile*> out;
  out.reserve(logs.size());
  for (const LogFile& log : logs) out.push_back(&log);
  return out;
}

LogFile merge_logs(std::span<const LogFile* const> logs,
                   std::uint64_t* excluded) {
  return merge_runs(logs, excluded, [logs](std::size_t l, std::size_t i) {
    return logs[l]->records[i].timestamp;
  });
}

LogFile merge_logs_skew(std::span<const LogFile* const> logs,
                        std::span<const ClockObservation> observations,
                        TimeIntegrityStats* stats_out,
                        std::uint64_t* excluded) {
  TimeIntegrityStats stats;
  // --- Per-honeypot piecewise-linear clock reconstruction ----------------
  std::unordered_map<std::uint16_t, std::vector<ClockObservation>> by_hp;
  for (const auto& obs : observations) by_hp[obs.honeypot].push_back(obs);
  stats.observations_used = observations.size();

  std::unordered_map<std::uint16_t, ClockFit> fits;
  fits.reserve(by_hp.size());
  for (auto& [hp, obs] : by_hp) {
    std::stable_sort(obs.begin(), obs.end(),
                     [](const ClockObservation& a, const ClockObservation& b) {
                       return a.true_time < b.true_time;
                     });
    ClockFit fit;
    fit.local.reserve(obs.size());
    fit.truth.reserve(obs.size());
    for (const auto& o : obs) {
      if (!fit.truth.empty() && o.true_time == fit.truth.back() &&
          o.local_time == fit.local.back()) {
        continue;  // heartbeat and chunk cut landing on the same instant
      }
      Time env = o.local_time;
      if (!fit.local.empty() && env < fit.local.back()) {
        // The honeypot's clock regressed between sightings (backwards NTP
        // step). Keep the envelope monotone so the map stays invertible;
        // the collapsed span becomes a flagged flat segment.
        ++stats.observation_resets;
        env = fit.local.back();
      }
      fit.local.push_back(env);
      fit.truth.push_back(o.true_time);
    }
    if (fit.truth.size() >= 2) ++stats.honeypots_tracked;
    // Boundary slopes: reuse the nearest invertible segment's rate so a
    // drifting clock extrapolates with its measured drift, not 1:1.
    for (std::size_t j = 0; j + 1 < fit.local.size(); ++j) {
      if (fit.local[j + 1] > fit.local[j] && fit.truth[j + 1] > fit.truth[j]) {
        fit.slope_lo =
            (fit.truth[j + 1] - fit.truth[j]) / (fit.local[j + 1] - fit.local[j]);
        break;
      }
    }
    for (std::size_t j = fit.local.size(); j-- > 1;) {
      if (fit.local[j] > fit.local[j - 1] && fit.truth[j] > fit.truth[j - 1]) {
        fit.slope_hi =
            (fit.truth[j] - fit.truth[j - 1]) / (fit.local[j] - fit.local[j - 1]);
        break;
      }
    }
    fits.emplace(hp, std::move(fit));
  }

  // --- Rewrite timestamps in per-honeypot append order -------------------
  // Within a honeypot, append order (chunk (epoch, seq) order) is ground
  // truth: a raw local timestamp running backwards is a clock artifact,
  // never a real reordering, so it is lifted back to monotone before the
  // clock map is applied and the lift is counted. The pass walks the kept
  // records in input order, so a honeypot whose records span several logs
  // carries its state from one log into the next.
  struct HpState {
    bool has_prev = false;
    Time prev_raw = 0;
    Time prev_eff = 0;
    Time prev_corrected = 0;
  };
  std::unordered_map<std::uint16_t, HpState> state;
  std::vector<std::size_t> offset(logs.size() + 1, 0);
  for (std::size_t l = 0; l < logs.size(); ++l) {
    offset[l + 1] = offset[l] + logs[l]->records.size();
  }
  std::vector<Time> corrected_at(offset.back());
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const auto& records = logs[l]->records;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const LogRecord& r = records[i];
      if (excluded != nullptr && r.tainted()) continue;
      HpState& st = state[r.honeypot];
      const Time raw = r.timestamp;
      if (st.has_prev && raw < st.prev_raw) ++stats.monotonicity_violations;
      Time eff = raw;
      if (st.has_prev && eff < st.prev_eff) {
        eff = st.prev_eff;
        ++stats.order_restorations;
      }
      Time corrected = eff;
      const auto fit = fits.find(r.honeypot);
      if (fit != fits.end() && !fit->second.truth.empty()) {
        corrected = apply_fit(fit->second, eff, stats);
      }
      // The map is monotone in eff, so this clamp only absorbs
      // floating-point dust at segment boundaries; it can never silently
      // reorder.
      if (st.has_prev && corrected < st.prev_corrected) {
        corrected = st.prev_corrected;
      }
      if (corrected != raw) {
        ++stats.records_corrected;
        stats.max_abs_correction =
            std::max(stats.max_abs_correction, std::abs(corrected - raw));
      }
      st.prev_raw = raw;
      st.prev_eff = eff;
      st.prev_corrected = corrected;
      st.has_prev = true;
      corrected_at[offset[l] + i] = corrected;
    }
  }

  LogFile merged = merge_runs(
      logs, excluded, [&corrected_at, &offset](std::size_t l, std::size_t i) {
        return corrected_at[offset[l] + i];
      });
  if (stats_out != nullptr) *stats_out = stats;
  return merged;
}

}  // namespace edhp::logbook
