// Smoke tests for the edhp_inspect operator CLI: every mode exercised end to
// end against freshly written fixture files, asserting exit codes and the
// key lines of output. The binary path comes from the build system via
// EDHP_INSPECT_BIN (same pattern as the fuzz corpus dir).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/bytes.hpp"
#include "fault/abuse.hpp"
#include "logbook/journal.hpp"
#include "logbook/log_io.hpp"
#include "scratch_dir.hpp"

namespace edhp {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

class InspectCliTest : public ::testing::Test {
 protected:
  ScratchDir scratch;  // this test's own fixtures and output capture
  const std::filesystem::path& dir = scratch.path();

  std::string log_path, journal_path;

  /// Run the inspect binary with `args`, capturing stdout+stderr.
  RunResult run_inspect(const std::string& args) const {
    const auto out_path = scratch.file("inspect_out.txt");
    const std::string cmd = std::string(EDHP_INSPECT_BIN) + " " + args +
                            " > " + out_path + " 2>&1";
    const int raw = std::system(cmd.c_str());
    RunResult r;
#ifdef WEXITSTATUS
    r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
    r.exit_code = raw;
#endif
    std::ifstream f(out_path);
    std::stringstream ss;
    ss << f.rdbuf();
    r.output = ss.str();
    std::remove(out_path.c_str());
    return r;
  }

  void SetUp() override {
    log_path = (dir / "campaign.edhplog").string();
    journal_path = (dir / "manager.edhpjrn").string();

    // A small stage-1 log: two benign records and one hostile-marked one.
    logbook::LogFile log;
    log.header.honeypot = 7;
    log.header.strategy = "no-content";
    log.header.server_name = "srv";
    log.names = {"", "bait.avi"};
    for (int i = 0; i < 2; ++i) {
      logbook::LogRecord r;
      r.timestamp = 100.0 + i;
      r.peer = 1000 + static_cast<std::uint64_t>(i);
      r.user = 42;
      r.honeypot = 7;
      r.name_ref = 1;
      log.records.push_back(r);
    }
    logbook::LogRecord hostile;
    hostile.timestamp = 200.0;
    hostile.peer = 3000;
    hostile.user = fault::kAbuseUserWord;
    hostile.honeypot = 7;
    log.records.push_back(hostile);
    logbook::save(log_path, log);

    // A journal with a few typed entries.
    logbook::Journal journal;
    const std::vector<std::uint8_t> payload{1, 2, 3};
    journal.append(logbook::JournalEntryType::launch, payload);
    journal.append(logbook::JournalEntryType::advertise, payload);
    journal.append(logbook::JournalEntryType::checkpoint, payload);
    journal.append(logbook::JournalEntryType::chunk_stored, payload);
    journal.save(journal_path);
  }
};

TEST_F(InspectCliTest, NoArgumentsPrintsUsage) {
  const auto r = run_inspect("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  EXPECT_NE(r.output.find("journal"), std::string::npos);
}

TEST_F(InspectCliTest, StatsMode) {
  const auto r = run_inspect("stats " + log_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("records"), std::string::npos);
  EXPECT_NE(r.output.find("3"), std::string::npos);
  EXPECT_NE(r.output.find("stage-1"), std::string::npos);
}

TEST_F(InspectCliTest, DefenseMode) {
  const auto r = run_inspect("defense " + log_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("hostile-marked"), std::string::npos);
  EXPECT_NE(r.output.find("benign"), std::string::npos);
  // 1 of 3 records is hostile.
  EXPECT_NE(r.output.find("33.333%"), std::string::npos);
}

TEST_F(InspectCliTest, JournalMode) {
  const auto r = run_inspect("journal " + journal_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("entries"), std::string::npos);
  EXPECT_NE(r.output.find("launch"), std::string::npos);
  EXPECT_NE(r.output.find("checkpoint"), std::string::npos);
  EXPECT_NE(r.output.find("chunk_stored"), std::string::npos);
  EXPECT_NE(r.output.find("torn tail"), std::string::npos);
  EXPECT_NE(r.output.find("none"), std::string::npos);
  EXPECT_NE(r.output.find("quarantined"), std::string::npos);
}

TEST_F(InspectCliTest, JournalModeReportsTornTail) {
  // Truncate the journal file mid-frame: the audit reports clean tail loss
  // and still exits 0 (damage is the report, not an error).
  std::filesystem::resize_file(journal_path,
                               std::filesystem::file_size(journal_path) - 2);
  const auto r = run_inspect("journal " + journal_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("clean tail loss"), std::string::npos);
}

TEST_F(InspectCliTest, JournalModeRejectsBadMagic) {
  const auto bad = (dir / "not_a_journal.edhpjrn").string();
  {
    std::ofstream f(bad, std::ios::binary);
    f << "this is not a journal file";
  }
  const auto r = run_inspect("journal " + bad);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST_F(InspectCliTest, MergeAndAnonymizePipeline) {
  const auto merged = (dir / "merged.edhplog").string();
  const auto published = (dir / "published.edhplog").string();
  auto r = run_inspect("merge " + merged + " " + log_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("merged 1 logs"), std::string::npos);
  r = run_inspect("anonymize " + merged + " " + published);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("stage-2 applied"), std::string::npos);
  r = run_inspect("stats " + published);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("stage-2"), std::string::npos);
}

TEST_F(InspectCliTest, JournalModeCapsQuarantineListing) {
  // 70 one-byte-payload frames, every payload byte flipped after framing:
  // all 70 quarantine, but the audit lists only the first kQuarantineRefCap
  // offsets and reports the overflow.
  logbook::Journal j;
  const std::vector<std::uint8_t> payload{0x55};
  for (int i = 0; i < 70; ++i) {
    j.append(logbook::JournalEntryType::relaunch, payload);
  }
  auto bytes = j.bytes();
  const std::size_t frame = bytes.size() / 70;
  for (std::size_t f = 0; f < 70; ++f) {
    bytes[f * frame + frame - 1] ^= 0xFF;  // last byte = the payload
  }
  const auto path = (dir / "rotted.edhpjrn").string();
  logbook::Journal::from_bytes(std::move(bytes)).save(path);

  const auto r = run_inspect("journal " + path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("quarantine listing capped"), std::string::npos);
  EXPECT_NE(r.output.find("first 64 of 70"), std::string::npos);
}

// --- degrade triage mode ----------------------------------------------------

/// Append a degrade_enter entry for honeypot `hp` (reason 4 = disk_quota).
void append_degrade_enter(logbook::Journal& j, std::uint16_t hp) {
  ByteWriter w;
  w.u16(hp);
  w.u8(4);          // DegradeReason::disk_quota
  w.u64(100'000);   // resident spool bytes at the transition
  w.u64(250);       // unspooled tail records
  j.append(logbook::JournalEntryType::degrade_enter, w.view());
}

/// Append a degrade_exit entry with cumulative shed/compaction counters.
void append_degrade_exit(logbook::Journal& j, std::uint16_t hp,
                         std::uint64_t shed) {
  ByteWriter w;
  w.u16(hp);
  w.u64(shed);  // records_shed
  w.u64(3);     // chunks_compacted
  w.u64(2);     // backpressure_cuts
  j.append(logbook::JournalEntryType::degrade_exit, w.view());
}

TEST_F(InspectCliTest, DegradeModeNoDegradationExitsZero) {
  const auto r = run_inspect("degrade " + journal_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("no degradation recorded"), std::string::npos);
}

TEST_F(InspectCliTest, DegradeModeClosedEpisodesExitThree) {
  const auto path = (dir / "degraded.edhpjrn").string();
  logbook::Journal j;
  append_degrade_enter(j, 3);
  append_degrade_exit(j, 3, 17);
  append_degrade_enter(j, 5);
  append_degrade_exit(j, 5, 4);
  j.save(path);
  const auto r = run_inspect("degrade " + path);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("all episodes closed"), std::string::npos);
  EXPECT_NE(r.output.find("hp 3"), std::string::npos);
  EXPECT_NE(r.output.find("hp 5"), std::string::npos);
  EXPECT_NE(r.output.find("disk_quota"), std::string::npos);
  // 17 + 4 shed records, fully declared.
  EXPECT_NE(r.output.find("21"), std::string::npos);
}

TEST_F(InspectCliTest, DegradeModeOpenEpisodeExitsFour) {
  const auto path = (dir / "still_degraded.edhpjrn").string();
  logbook::Journal j;
  append_degrade_enter(j, 9);
  j.save(path);
  const auto r = run_inspect("degrade " + path);
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find("STILL DEGRADED"), std::string::npos);
  EXPECT_NE(r.output.find("degraded at end of journal"), std::string::npos);
}

TEST_F(InspectCliTest, MissingFileFailsCleanly) {
  const auto r = run_inspect("stats " + (dir / "nope.edhplog").string());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

// --- integrity triage mode ---------------------------------------------------

/// Append a probe_verdict entry: honeypot `hp` probing `server`.
void append_probe_verdict(logbook::Journal& j, std::uint16_t hp,
                          bool confirmed, const std::string& server) {
  ByteWriter w;
  w.u16(hp);
  w.u8(confirmed ? 1 : 0);
  w.str16(server);
  j.append(logbook::JournalEntryType::probe_verdict, w.view());
}

/// Append a server_quarantine entry displacing `displaced` slots.
void append_quarantine(logbook::Journal& j, const std::string& server,
                       const std::vector<std::uint32_t>& displaced) {
  ByteWriter w;
  w.str16(server);
  w.u64(1);          // original ServerRef: node id
  w.str16(server);   //   name
  w.u16(4661);       //   port
  w.u64(0);          // reinstate deadline (double bits)
  w.u32(static_cast<std::uint32_t>(displaced.size()));
  for (const auto index : displaced) w.u32(index);
  j.append(logbook::JournalEntryType::server_quarantine, w.view());
}

void append_reinstate(logbook::Journal& j, const std::string& server) {
  ByteWriter w;
  w.str16(server);
  j.append(logbook::JournalEntryType::server_reinstate, w.view());
}

TEST_F(InspectCliTest, IntegrityModeQuietJournalExitsZero) {
  const auto r = run_inspect("integrity " + journal_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("no Byzantine-defense activity"), std::string::npos);
}

TEST_F(InspectCliTest, IntegrityModeReinstatedQuarantineExitsThree) {
  const auto path = (dir / "byzantine.edhpjrn").string();
  logbook::Journal j;
  append_probe_verdict(j, 0, true, "srv-a");
  append_probe_verdict(j, 1, false, "srv-a");
  append_probe_verdict(j, 1, false, "srv-a");
  append_quarantine(j, "srv-a", {1, 2, 3});
  append_reinstate(j, "srv-a");
  j.save(path);
  const auto r = run_inspect("integrity " + path);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("server srv-a"), std::string::npos);
  EXPECT_NE(r.output.find("1 confirmed, 2 missed"), std::string::npos);
  EXPECT_NE(r.output.find("3 slots displaced"), std::string::npos);
  EXPECT_NE(r.output.find("all quarantines reinstated"), std::string::npos);
}

TEST_F(InspectCliTest, IntegrityModeOpenQuarantineExitsFour) {
  const auto path = (dir / "still_lying.edhpjrn").string();
  logbook::Journal j;
  append_probe_verdict(j, 2, false, "srv-b");
  append_quarantine(j, "srv-b", {0});
  j.save(path);
  const auto r = run_inspect("integrity " + path);
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find("STILL QUARANTINED"), std::string::npos);
  EXPECT_NE(r.output.find("quarantined at end of journal"), std::string::npos);
}

// --- clock triage mode -------------------------------------------------------

/// Append a clock_observation entry: honeypot `hp` read `local` at true
/// time `true_time` (the manager's type-18 wire shape).
void append_clock_obs(logbook::Journal& j, std::uint16_t hp, double true_time,
                      double local) {
  ByteWriter w;
  w.u16(hp);
  w.u64(std::bit_cast<std::uint64_t>(true_time));
  w.u64(std::bit_cast<std::uint64_t>(local));
  j.append(logbook::JournalEntryType::clock_observation, w.view());
}

TEST_F(InspectCliTest, ClockModeNoObservationsExitsZero) {
  const auto r = run_inspect("clock " + journal_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("no clock observations"), std::string::npos);
}

TEST_F(InspectCliTest, ClockModeMonotoneClocksExitThree) {
  const auto path = (dir / "skewed.edhpjrn").string();
  logbook::Journal j;
  // hp 2 runs +1000 ppm fast; hp 6 is 30 s behind but steady. Monotone both.
  append_clock_obs(j, 2, 1000.0, 1000.0);
  append_clock_obs(j, 2, 2000.0, 2001.0);
  append_clock_obs(j, 6, 1000.0, 970.0);
  append_clock_obs(j, 6, 2000.0, 1970.0);
  j.save(path);
  const auto r = run_inspect("clock " + path);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("all clocks monotone"), std::string::npos);
  EXPECT_NE(r.output.find("hp 2"), std::string::npos);
  EXPECT_NE(r.output.find("+1000.0 ppm"), std::string::npos);
  EXPECT_NE(r.output.find("hp 6"), std::string::npos);
  EXPECT_NE(r.output.find("30.000 s"), std::string::npos);
}

TEST_F(InspectCliTest, ClockModeBackwardsClockExitsFour) {
  const auto path = (dir / "backwards.edhpjrn").string();
  logbook::Journal j;
  append_clock_obs(j, 4, 1000.0, 1000.0);
  append_clock_obs(j, 4, 2000.0, 900.0);  // local regressed between sightings
  append_clock_obs(j, 4, 3000.0, 1900.0);
  j.save(path);
  const auto r = run_inspect("clock " + path);
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find("BACKWARDS CLOCK"), std::string::npos);
  EXPECT_NE(r.output.find("backwards clock observed"), std::string::npos);
}

TEST_F(InspectCliTest, ClockModeJsonEmitsVerdictLine) {
  const auto path = (dir / "skewed_json.edhpjrn").string();
  logbook::Journal j;
  append_clock_obs(j, 1, 100.0, 100.0);
  append_clock_obs(j, 1, 200.0, 199.0);
  j.save(path);
  const auto r = run_inspect("--json clock " + path);
  EXPECT_EQ(r.exit_code, 3);  // exit-code contract survives --json
  EXPECT_EQ(r.output.front(), '{');
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1);
  EXPECT_NE(r.output.find("\"verdict\":\"all clocks monotone\""),
            std::string::npos);
  EXPECT_NE(r.output.find("\"clock observations\":\"2\""), std::string::npos);
}

// --- audit triage mode -------------------------------------------------------

/// Write a chaos-repro file and return its path.
std::string write_cfg(const std::filesystem::path& dir, const std::string& name,
                      const std::string& body) {
  const auto path = (dir / name).string();
  std::ofstream f(path);
  f << body;
  return path;
}

TEST_F(InspectCliTest, AuditModeBalancedRunExitsZero) {
  const auto cfg = write_cfg(dir, "balanced.cfg",
                             "seed=11\nscale=0.01\ndays=0.5\nhoneypots=2\n"
                             "expect=balanced\n");
  const auto r = run_inspect("audit " + cfg);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("verdict"), std::string::npos);
  EXPECT_NE(r.output.find("balanced"), std::string::npos);
  EXPECT_NE(r.output.find("unaccounted  0"), std::string::npos);
}

TEST_F(InspectCliTest, AuditModeAccountedLossExitsThree) {
  // Host churn destroys an unspooled tail: real loss, but every record of
  // it lands in the lost_tail disposition — accounted, exit 3.
  const auto cfg = write_cfg(dir, "churn.cfg",
                             "seed=97031\nscale=0.02\ndays=1\nhoneypots=4\n"
                             "expect=balanced\nknob host_mtbf=7200\n");
  const auto r = run_inspect("audit " + cfg);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("accounted loss"), std::string::npos);
}

TEST_F(InspectCliTest, AuditModeUnaccountedLossExitsFour) {
  const auto cfg = write_cfg(dir, "silent.cfg",
                             "seed=11\nscale=0.01\ndays=0.5\nhoneypots=2\n"
                             "expect=imbalance\nknob audit_selftest_drop=50\n");
  const auto r = run_inspect("audit " + cfg);
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find("UNACCOUNTED LOSS"), std::string::npos);
}

TEST_F(InspectCliTest, AuditModeJsonEmitsVerdictLine) {
  const auto cfg = write_cfg(dir, "balanced_json.cfg",
                             "seed=11\nscale=0.01\ndays=0.5\nhoneypots=2\n"
                             "expect=balanced\n");
  const auto r = run_inspect("--json audit " + cfg);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.front(), '{');
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1);
  EXPECT_NE(r.output.find("\"verdict\":\"balanced\""), std::string::npos);
  EXPECT_NE(r.output.find("\"unaccounted\":\"0\""), std::string::npos);
}

TEST_F(InspectCliTest, AuditModeRejectsMalformedRepro) {
  const auto cfg = write_cfg(dir, "garbage.cfg", "this is not a repro\n");
  const auto r = run_inspect("audit " + cfg);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

// --- --json output -----------------------------------------------------------

TEST_F(InspectCliTest, JsonFlagEmitsOneObjectPerFile) {
  const auto r = run_inspect("--json stats " + log_path);
  EXPECT_EQ(r.exit_code, 0);
  // One line, object-shaped, carrying the path and the records row.
  EXPECT_EQ(r.output.front(), '{');
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1);
  EXPECT_NE(r.output.find("\"path\":"), std::string::npos);
  EXPECT_NE(r.output.find("\"records\":\"3\""), std::string::npos);
}

TEST_F(InspectCliTest, JsonFlagWorksForJournalAndIntegrityModes) {
  auto r = run_inspect("journal --json " + journal_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.front(), '{');
  EXPECT_NE(r.output.find("\"entries\":\"4\""), std::string::npos);

  const auto path = (dir / "byzantine_json.edhpjrn").string();
  logbook::Journal j;
  append_probe_verdict(j, 0, false, "srv-c");
  append_quarantine(j, "srv-c", {7});
  j.save(path);
  r = run_inspect("--json integrity " + path);
  EXPECT_EQ(r.exit_code, 4);  // exit-code contract survives --json
  EXPECT_EQ(r.output.front(), '{');
  EXPECT_NE(r.output.find("\"verdict\":\"quarantined at end of journal\""),
            std::string::npos);
}

}  // namespace
}  // namespace edhp
