// edhp_inspect — operator CLI for honeypot log files.
//
// Subcommands:
//   stats <log...>            per-file and combined summary statistics
//   csv <log>                 dump a log as CSV to stdout
//   merge <out> <log...>      merge per-honeypot logs (stage-1) into one file
//   anonymize <in> <out>      apply stage-2 renumbering to a merged log
//   clients <log>             client-software mix of a stage-2 log
//   defense <log...>          triage hostile-marked traffic in campaign logs
//   journal <journal...>      audit a manager write-ahead journal
//   degrade <journal...>      triage overload/degradation episodes
//   integrity <journal...>    triage Byzantine-defense verdicts/quarantines
//   clock <journal...>        triage honeypot clock skew from observations
//   audit <repro.cfg...>      replay chaos repro(s), report the
//                             record-conservation ledger
//
// A `--json` flag anywhere on the command line switches the reporting modes
// (stats, defense, journal, degrade, integrity, clock, audit, clients) to one
// JSON object per input file on stdout — machine-readable for CI gates and
// dashboards.
//
// Logs are the binary format honeypots write (logbook::save/load). The
// pipeline an operator runs after a campaign:
//   edhp_inspect merge merged.edhplog hp-*.edhplog
//   edhp_inspect anonymize merged.edhplog published.edhplog
//   edhp_inspect stats published.edhplog
//   edhp_inspect defense published.edhplog
//
// Exit codes: 0 success, 1 I/O or decode error, 2 usage. `degrade` adds a
// triage contract on top: 0 = no degradation recorded, 3 = degradation
// recorded but every episode closed (fully declared loss), 4 = at least one
// honeypot still degraded at the end of the journal. `integrity` mirrors it:
// 0 = no Byzantine-defense activity, 3 = every quarantine was reinstated,
// 4 = a server is still quarantined when the journal ends. `clock` completes
// the family: 0 = no clock observations recorded, 3 = observations present
// and every honeypot's local clock ran monotonically through them, 4 = at
// least one honeypot's local clock was caught running backwards (a step the
// merge had to repair). `audit` extends it to the conservation ledger:
// 0 = balanced with nothing lost anywhere (born == merged + streamed),
// 3 = balanced but some records met an accounted loss disposition
// (shed/excluded/tail-lost/unflushed/quarantined — declared, bounded),
// 4 = the ledger does not balance (silent loss or double accounting: the
// bug class the auditor exists to catch).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <fstream>
#include <iterator>

#include "analysis/client_stats.hpp"
#include "analysis/log_stats.hpp"
#include "analysis/report.hpp"
#include "anonymize/renumber.hpp"
#include "audit/audit.hpp"
#include "audit/chaos_point.hpp"
#include "common/budget.hpp"
#include "fault/abuse.hpp"
#include "honeypot/journal_entries.hpp"
#include "logbook/journal.hpp"
#include "logbook/log_io.hpp"
#include "logbook/merge.hpp"
#include "logbook/spool.hpp"

#include "chaos_run.hpp"

using namespace edhp;

namespace {

namespace entry = honeypot::journal;

int usage() {
  std::cerr << "usage: edhp_inspect [--json] <stats|csv|merge|anonymize|clients|defense|journal|degrade|integrity|clock|audit> ...\n"
               "  stats <log...>\n"
               "  csv <log>\n"
               "  merge <out> <log...>\n"
               "  anonymize <in> <out>\n"
               "  clients <log>\n"
               "  defense <log...>\n"
               "  journal <journal...>\n"
               "  degrade <journal...>   exit 0: no degradation, 3: closed"
               " episodes, 4: still degraded\n"
               "  integrity <journal...> exit 0: no Byzantine activity,"
               " 3: quarantines all reinstated, 4: still quarantined\n"
               "  clock <journal...>     exit 0: no clock observations,"
               " 3: all clocks monotone, 4: backwards clock observed\n"
               "  audit <repro.cfg...>   exit 0: conserved with zero loss,"
               " 3: accounted loss only, 4: unaccounted loss\n"
               "  --json: reporting modes emit one JSON object per file\n";
  return 2;
}

/// One JSON string literal (quotes, backslashes and control bytes escaped).
std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// Report sink shared by every reporting mode: the human kv table, or one
/// JSON object line when `--json` was given. Row keys pass through verbatim
/// (leading indentation and all) so the two forms stay diffable.
void emit(const std::string& path,
          const std::vector<std::pair<std::string, std::string>>& rows,
          bool json) {
  if (!json) {
    analysis::print_kv(std::cout, path, rows);
    return;
  }
  std::string line = "{" + json_quote("path") + ":" + json_quote(path);
  for (const auto& [key, value] : rows) {
    std::string_view k = key;
    while (!k.empty() && k.front() == ' ') k.remove_prefix(1);
    line += ',';
    line += json_quote(k);
    line += ':';
    line += json_quote(value);
  }
  line += "}";
  std::cout << line << "\n";
}

/// Pass each entry of types `Only...` to `visitor`, decoded; returns how many
/// of them failed to decode (skipped: the tool must never crash on a field
/// journal, and damaged frames were already set aside by scan()).
template <typename... Only, typename Visitor>
std::uint64_t visit_entries(const logbook::Journal& journal,
                            Visitor&& visitor) {
  std::uint64_t undecodable = 0;
  for (const auto& e : journal.scan().entries) {
    try {
      entry::visit<Only...>(e, visitor);
    } catch (const DecodeError&) {
      ++undecodable;
    }
  }
  return undecodable;
}

/// Manager write-ahead-journal audit: frame counts per entry type, the
/// checkpoint the next recovery would replay from, and integrity findings
/// (quarantined frames, torn tail). Never throws on damage — damage is the
/// report.
void print_journal(const std::string& path, const logbook::Journal& journal,
                   bool json) {
  const auto scan = journal.scan();
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("bytes", analysis::with_commas(journal.size_bytes()));
  rows.emplace_back("entries", analysis::with_commas(scan.entries.size()));
  std::map<std::uint8_t, std::uint64_t> by_type;
  std::size_t last_checkpoint = scan.entries.size();
  for (std::size_t i = 0; i < scan.entries.size(); ++i) {
    ++by_type[scan.entries[i].type];
    if (scan.entries[i].type ==
        static_cast<std::uint8_t>(logbook::JournalEntryType::checkpoint)) {
      last_checkpoint = i;
    }
  }
  for (const auto& [type, count] : by_type) {
    rows.emplace_back(
        std::string("  ") +
            std::string(logbook::to_string(
                static_cast<logbook::JournalEntryType>(type))),
        analysis::with_commas(count));
  }
  rows.emplace_back("replay window",
                    last_checkpoint < scan.entries.size()
                        ? analysis::with_commas(scan.entries.size() -
                                                last_checkpoint) +
                              " entries from last checkpoint"
                        : "full journal (no checkpoint)");
  rows.emplace_back("quarantined", analysis::with_commas(scan.quarantined.size()));
  // Per-offset listing is capped like the SpoolStore's quarantine refs: an
  // adversarial stream cannot make the audit report itself unbounded.
  const std::size_t listed =
      std::min(scan.quarantined.size(), logbook::kQuarantineRefCap);
  for (std::size_t i = 0; i < listed; ++i) {
    rows.emplace_back("  bad checksum at offset",
                      analysis::with_commas(scan.quarantined[i].offset));
  }
  if (scan.quarantined.size() > listed) {
    rows.emplace_back(
        "  quarantine listing capped",
        "first " + analysis::with_commas(listed) + " of " +
            analysis::with_commas(scan.quarantined.size()) + " offsets");
  }
  rows.emplace_back("torn tail", scan.torn_tail
                                     ? analysis::with_commas(scan.torn_bytes) +
                                           " bytes (clean tail loss)"
                                     : std::string("none"));
  emit(path, rows, json);
}

/// Byzantine-defense triage over the manager journal's probe_verdict /
/// server_quarantine / server_reinstate entries: per-server verdict ledger
/// and quarantine history. Exit-code contract mirrors `degrade`: 0 = no
/// Byzantine-defense activity, 3 = quarantines happened and every one was
/// reinstated, 4 = a server is still quarantined when the journal ends.
int print_integrity(const std::string& path, const logbook::Journal& journal,
                    bool json) {
  struct PerServer {
    std::uint64_t confirmed = 0;
    std::uint64_t missed = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t reinstates = 0;
    std::uint64_t displaced = 0;  ///< honeypot slots moved by quarantines
    bool quarantined = false;     ///< quarantined and never reinstated
  };
  std::map<std::string, PerServer> servers;
  std::uint64_t verdicts = 0;
  const auto undecodable = visit_entries<
      entry::ProbeVerdict, entry::ServerQuarantine, entry::ServerReinstate>(
      journal, entry::Overloaded{
                   [&](const entry::ProbeVerdict& v) {
                     auto& s = servers[v.server];
                     ++verdicts;
                     ++(v.confirmed ? s.confirmed : s.missed);
                   },
                   [&](const entry::ServerQuarantine& q) {
                     auto& s = servers[q.server_name];
                     ++s.quarantines;
                     s.quarantined = true;
                     s.displaced += q.displaced.size();
                   },
                   [&](const entry::ServerReinstate& r) {
                     auto& s = servers[r.server_name];
                     ++s.reinstates;
                     s.quarantined = false;
                   }});

  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("probe verdicts", analysis::with_commas(verdicts));
  std::uint64_t total_quarantines = 0;
  bool any_open = false;
  for (const auto& [name, s] : servers) {
    any_open = any_open || s.quarantined;
    total_quarantines += s.quarantines;
    std::string detail = analysis::with_commas(s.confirmed) + " confirmed, " +
                         analysis::with_commas(s.missed) + " missed";
    if (s.quarantines > 0) {
      detail += "; quarantined x" + analysis::with_commas(s.quarantines) +
                " (" + analysis::with_commas(s.displaced) +
                " slots displaced), reinstated x" +
                analysis::with_commas(s.reinstates);
    }
    if (s.quarantined) {
      detail += "; STILL QUARANTINED";
    }
    rows.emplace_back("  server " + name, detail);
  }
  rows.emplace_back("quarantines", analysis::with_commas(total_quarantines));
  if (undecodable > 0) {
    rows.emplace_back("undecodable integrity entries",
                      analysis::with_commas(undecodable));
  }
  const bool quiet = verdicts == 0 && total_quarantines == 0;
  rows.emplace_back("verdict", quiet      ? "no Byzantine-defense activity"
                               : any_open ? "quarantined at end of journal"
                                          : "all quarantines reinstated");
  emit(path, rows, json);
  if (quiet) return 0;
  return any_open ? 4 : 3;
}

/// Clock-skew triage over the manager journal's clock_observation entries
/// (checkpoint-embedded observation sections are deliberately ignored: the
/// live entries are a superset until a checkpoint compacts them, and a
/// post-checkpoint journal replays them back into manager memory anyway).
/// Per honeypot: how many sightings exist, the drift the end-to-end span
/// implies, the worst absolute offset from true time, and whether the local
/// clock was ever caught running backwards between consecutive sightings.
/// Exit: 0 = no observations, 3 = observations and every clock monotone,
/// 4 = at least one backwards step observed.
int print_clock(const std::string& path, const logbook::Journal& journal,
                bool json) {
  struct PerHoneypot {
    std::uint64_t observations = 0;
    logbook::ClockObservation first, last;
    double max_abs_offset = 0;
    std::uint64_t backwards = 0;  ///< local regressions between sightings
  };
  std::map<std::uint16_t, PerHoneypot> fleet;
  const auto undecodable = visit_entries<entry::ClockObservation>(
      journal, [&](const entry::ClockObservation& c) {
        const auto& o = c.observation;
        auto& hp = fleet[o.honeypot];
        if (hp.observations == 0) {
          hp.first = o;
        } else if (o.local_time < hp.last.local_time) {
          ++hp.backwards;
        }
        hp.last = o;
        hp.max_abs_offset =
            std::max(hp.max_abs_offset, std::abs(o.local_time - o.true_time));
        ++hp.observations;
      });

  std::vector<std::pair<std::string, std::string>> rows;
  std::uint64_t observations = 0;
  std::uint64_t backwards = 0;
  for (const auto& [id, hp] : fleet) {
    observations += hp.observations;
    backwards += hp.backwards;
    const double span = hp.last.true_time - hp.first.true_time;
    const double drift_ppm =
        span > 0 ? ((hp.last.local_time - hp.first.local_time) - span) /
                       span * 1e6
                 : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s obs, drift %+.1f ppm, max offset %.3f s%s",
                  analysis::with_commas(hp.observations).c_str(), drift_ppm,
                  hp.max_abs_offset,
                  hp.backwards > 0 ? ", BACKWARDS CLOCK" : "");
    rows.emplace_back("  hp " + std::to_string(id), buf);
  }
  rows.emplace_back("clock observations", analysis::with_commas(observations));
  rows.emplace_back("honeypots tracked", analysis::with_commas(fleet.size()));
  rows.emplace_back("backwards steps observed", analysis::with_commas(backwards));
  if (undecodable > 0) {
    rows.emplace_back("undecodable clock entries",
                      analysis::with_commas(undecodable));
  }
  rows.emplace_back("verdict", observations == 0 ? "no clock observations"
                               : backwards > 0   ? "backwards clock observed"
                                                 : "all clocks monotone");
  emit(path, rows, json);
  if (observations == 0) return 0;
  return backwards > 0 ? 4 : 3;
}

/// Overload triage over the manager journal's degrade_enter/degrade_exit
/// entries. Returns the per-journal triage verdict: 0 = no degradation, 3 =
/// every episode closed (loss fully declared), 4 = a honeypot was still
/// degraded when the journal ends. Damaged frames are skipped by scan();
/// undecodable payloads of the right type are counted but otherwise ignored
/// (the tool must never crash on a field journal).
int print_degrade(const std::string& path, const logbook::Journal& journal,
                  bool json) {
  struct PerHoneypot {
    std::uint64_t enters = 0;
    std::map<budget::DegradeReason, std::uint64_t> reasons;
    entry::DegradeEnter last_enter;  ///< spool state at the latest enter
    entry::DegradeExit last_exit;    ///< cumulative totals at the latest exit
    bool open = false;  ///< entered degraded mode and never left
  };
  std::map<std::uint16_t, PerHoneypot> fleet;
  const auto undecodable =
      visit_entries<entry::DegradeEnter, entry::DegradeExit>(
          journal, entry::Overloaded{
                       [&](const entry::DegradeEnter& d) {
                         auto& hp = fleet[d.honeypot];
                         ++hp.enters;
                         ++hp.reasons[d.reason];
                         hp.last_enter = d;
                         hp.open = true;
                       },
                       [&](const entry::DegradeExit& d) {
                         auto& hp = fleet[d.honeypot];
                         hp.last_exit = d;
                         hp.open = false;
                       }});

  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("degraded honeypots", analysis::with_commas(fleet.size()));
  std::uint64_t total_shed = 0;
  bool any_open = false;
  for (const auto& [id, hp] : fleet) {
    any_open = any_open || hp.open;
    total_shed += hp.last_exit.records_shed;
    std::string detail = analysis::with_commas(hp.enters) + " episodes";
    for (const auto& [reason, count] : hp.reasons) {
      detail += ", " + std::string(budget::to_string(reason)) + " x" +
                analysis::with_commas(count);
    }
    const auto& totals = hp.last_exit;
    detail += "; shed " + analysis::with_commas(totals.records_shed) +
              ", compacted " + analysis::with_commas(totals.chunks_compacted) +
              " chunks, backpressure " +
              analysis::with_commas(totals.backpressure_cuts) + " cuts";
    if (hp.open) {
      detail += "; STILL DEGRADED (resident " +
                analysis::with_commas(hp.last_enter.resident_bytes) +
                " B, tail " +
                analysis::with_commas(hp.last_enter.unspooled_tail) + ")";
    }
    rows.emplace_back("  hp " + std::to_string(id), detail);
  }
  rows.emplace_back("records shed (declared)", analysis::with_commas(total_shed));
  if (undecodable > 0) {
    rows.emplace_back("undecodable degrade entries",
                      analysis::with_commas(undecodable));
  }
  rows.emplace_back("verdict", fleet.empty()  ? "no degradation recorded"
                               : any_open     ? "degraded at end of journal"
                                              : "all episodes closed");
  emit(path, rows, json);
  if (fleet.empty()) return 0;
  return any_open ? 4 : 3;
}

/// Hostile-traffic triage: attackers in the abuse model carry a fixed
/// truncated user hash (fault::kAbuseUserWord), so their records can be
/// separated from the measurement after the fact. Reports, per log, how much
/// of the record stream the defenses let through from hostile sessions and
/// what the benign measurement actually kept.
void print_defense(const std::string& path, const logbook::LogFile& log,
                   bool json) {
  std::uint64_t hostile = 0;
  std::array<std::uint64_t, 3> hostile_by_type{};
  double first_hostile = -1, last_hostile = -1;
  for (const auto& r : log.records) {
    if (r.user != fault::kAbuseUserWord) continue;
    ++hostile;
    ++hostile_by_type[static_cast<std::size_t>(r.type)];
    if (first_hostile < 0) first_hostile = r.timestamp;
    last_hostile = r.timestamp;
  }
  const std::uint64_t benign = log.records.size() - hostile;
  std::vector<std::pair<std::string, std::string>> rows = {
      {"records", analysis::with_commas(log.records.size())},
      {"benign", analysis::with_commas(benign)},
      {"hostile-marked", analysis::with_commas(hostile)},
  };
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f%%",
                log.records.empty()
                    ? 0.0
                    : 100.0 * static_cast<double>(hostile) /
                          static_cast<double>(log.records.size()));
  rows.emplace_back("hostile share", buf);
  rows.emplace_back("hostile HELLO", analysis::with_commas(hostile_by_type[0]));
  rows.emplace_back("hostile START-UPLOAD",
                    analysis::with_commas(hostile_by_type[1]));
  rows.emplace_back("hostile REQUEST-PART",
                    analysis::with_commas(hostile_by_type[2]));
  if (first_hostile >= 0) {
    rows.emplace_back("hostile span", std::to_string((last_hostile - first_hostile) / kDay) + " days");
  }
  emit(path, rows, json);
}

void print_stats(const std::string& path, const logbook::LogFile& log,
                 bool json) {
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("honeypot", log.header.honeypot == 0xFFFF
                                    ? "merged"
                                    : std::to_string(log.header.honeypot));
  rows.emplace_back("strategy", log.header.strategy.empty() ? "-"
                                                            : log.header.strategy);
  rows.emplace_back("server", log.header.server_name.empty()
                                  ? "-"
                                  : log.header.server_name);
  rows.emplace_back("anonymisation",
                    log.header.peer_kind == logbook::PeerIdKind::stage1_hash
                        ? "stage-1 (salted hashes)"
                        : "stage-2 (dense integers)");
  rows.emplace_back("records", analysis::with_commas(log.records.size()));
  std::array<std::uint64_t, 3> by_type{};
  double first = -1, last = -1;
  for (const auto& r : log.records) {
    ++by_type[static_cast<std::size_t>(r.type)];
    if (first < 0) first = r.timestamp;
    last = r.timestamp;
  }
  rows.emplace_back("HELLO", analysis::with_commas(by_type[0]));
  rows.emplace_back("START-UPLOAD", analysis::with_commas(by_type[1]));
  rows.emplace_back("REQUEST-PART", analysis::with_commas(by_type[2]));
  // Provenance-tainted records only ever appear in raw per-honeypot logs:
  // the manager's merge excludes them from anything it publishes.
  std::uint64_t tainted = 0;
  for (const auto& r : log.records) {
    if (r.tainted()) ++tainted;
  }
  if (tainted > 0) {
    rows.emplace_back("provenance-tainted", analysis::with_commas(tainted));
  }
  if (first >= 0) {
    rows.emplace_back("span",
                      std::to_string((last - first) / kDay) + " days");
  }
  if (log.header.peer_kind == logbook::PeerIdKind::stage2_index) {
    rows.emplace_back("distinct peers",
                      analysis::with_commas(analysis::distinct_peers(log)));
    const auto ids = analysis::high_id_share(log);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", 100 * ids.fraction_high());
    rows.emplace_back("HighID peers", buf);
  }
  emit(path, rows, json);
}

/// Record-conservation triage: replay a committed chaos repro and report
/// the ledger. Verdict: 0 = balanced and nothing met a loss disposition,
/// 3 = balanced with accounted loss only, 4 = unbalanced (silent loss or
/// double accounting). `expect=imbalance` repros that do imbalance still
/// exit 4 — the verdict reports the ledger, the expectation lives in the
/// fuzzer's replay mode and the regression tests.
int print_audit(const std::string& path, bool json) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot read " + path);
  }
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  const audit::ReproConfig repro = audit::parse_repro(text);
  const audit::AuditStats a = tools::run_repro(repro);
  const std::uint64_t lost = a.accounted() - a.records_streamed;
  int verdict = 0;
  if (!a.balanced()) {
    verdict = 4;
  } else if (lost > 0) {
    verdict = 3;
  }
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("knobs", std::to_string(repro.point.knobs.size()));
  rows.emplace_back("expected", repro.expect_imbalance ? "imbalance"
                                                       : "balanced");
  rows.emplace_back("born", analysis::with_commas(a.records_born));
  rows.emplace_back("merged", analysis::with_commas(a.records_merged));
  rows.emplace_back("shed", analysis::with_commas(a.records_shed));
  rows.emplace_back("excluded", analysis::with_commas(a.records_excluded));
  rows.emplace_back("lost tail", analysis::with_commas(a.records_lost_tail));
  rows.emplace_back("unflushed", analysis::with_commas(a.records_unflushed));
  rows.emplace_back("quarantined",
                    analysis::with_commas(a.records_quarantined));
  rows.emplace_back("streamed", analysis::with_commas(a.records_streamed));
  rows.emplace_back("unaccounted", std::to_string(a.unaccounted()));
  rows.emplace_back("verdict", verdict == 0   ? "balanced"
                               : verdict == 3 ? "accounted loss"
                                              : "UNACCOUNTED LOSS");
  emit(path, rows, json);
  return verdict;
}

}  // namespace

int main(int argc, char** argv) {
  // `--json` may appear anywhere; strip it before positional parsing.
  bool json = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      json = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.size() < 2) return usage();
  const std::string& cmd = args[0];
  try {
    if (cmd == "stats") {
      for (std::size_t i = 1; i < args.size(); ++i) {
        print_stats(args[i], logbook::load(args[i]), json);
      }
      return 0;
    }
    if (cmd == "csv") {
      logbook::write_csv(std::cout, logbook::load(args[1]));
      return 0;
    }
    if (cmd == "merge") {
      if (args.size() < 3) return usage();
      std::vector<logbook::LogFile> logs;
      for (std::size_t i = 2; i < args.size(); ++i) {
        logs.push_back(logbook::load(args[i]));
      }
      const auto merged = logbook::merge_logs(logbook::borrow(logs));
      logbook::save(args[1], merged);
      std::cout << "merged " << logs.size() << " logs ("
                << analysis::with_commas(merged.records.size())
                << " records) into " << args[1] << "\n";
      return 0;
    }
    if (cmd == "anonymize") {
      if (args.size() < 3) return usage();
      auto log = logbook::load(args[1]);
      const auto distinct = anonymize::renumber_peers(log);
      logbook::save(args[2], log);
      std::cout << "stage-2 applied: " << analysis::with_commas(distinct)
                << " distinct peers -> " << args[2] << "\n";
      return 0;
    }
    if (cmd == "defense" || cmd == "--defense") {
      for (std::size_t i = 1; i < args.size(); ++i) {
        print_defense(args[i], logbook::load(args[i]), json);
      }
      return 0;
    }
    if (cmd == "journal") {
      for (std::size_t i = 1; i < args.size(); ++i) {
        print_journal(args[i], logbook::Journal::load(args[i]), json);
      }
      return 0;
    }
    if (cmd == "degrade") {
      int verdict = 0;
      for (std::size_t i = 1; i < args.size(); ++i) {
        verdict = std::max(verdict, print_degrade(
                                        args[i],
                                        logbook::Journal::load(args[i]), json));
      }
      return verdict;
    }
    if (cmd == "integrity") {
      int verdict = 0;
      for (std::size_t i = 1; i < args.size(); ++i) {
        verdict = std::max(
            verdict,
            print_integrity(args[i], logbook::Journal::load(args[i]), json));
      }
      return verdict;
    }
    if (cmd == "clock") {
      int verdict = 0;
      for (std::size_t i = 1; i < args.size(); ++i) {
        verdict = std::max(
            verdict,
            print_clock(args[i], logbook::Journal::load(args[i]), json));
      }
      return verdict;
    }
    if (cmd == "audit") {
      int verdict = 0;
      for (std::size_t i = 1; i < args.size(); ++i) {
        verdict = std::max(verdict, print_audit(args[i], json));
      }
      return verdict;
    }
    if (cmd == "clients") {
      const auto log = logbook::load(args[1]);
      const auto mix = analysis::client_mix(log);
      if (json) {
        std::string line = "{" + json_quote("kinds") + ":" +
                           std::to_string(mix.size()) + "," +
                           json_quote("clients") + ":[";
        for (std::size_t i = 0; i < mix.size(); ++i) {
          const auto& c = mix[i];
          if (i > 0) line += ",";
          line += "{" + json_quote("name") + ":" +
                  json_quote(c.name.empty() ? "(no name tag)" : c.name) + "," +
                  json_quote("share") + ":" + std::to_string(c.share) + "," +
                  json_quote("peers") + ":" + std::to_string(c.peers) + "}";
        }
        line += "]}";
        std::cout << line << "\n";
        return 0;
      }
      std::cout << "client software mix (" << mix.size() << " kinds):\n";
      for (const auto& c : mix) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%5.1f%%", 100 * c.share);
        std::cout << "  " << buf << "  "
                  << (c.name.empty() ? "(no name tag)" : c.name) << "  ("
                  << analysis::with_commas(c.peers) << " peers)\n";
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
