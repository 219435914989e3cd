// Record-conservation audit ledger: the balance equation holds under any
// composition of chaos axes, an injected silent loss is a hard failure,
// the off-path is a bit-identical no-op, the SpoolStore classification
// seams count every record exactly once, the repro parser rejects any
// incomplete number by naming its line, and every committed chaos repro in
// tests/chaos_corpus/ replays to its recorded verdict forever.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "audit/audit.hpp"
#include "audit/chaos_point.hpp"
#include "campaign_goldens.hpp"
#include "logbook/spool.hpp"
#include "scenario/scenario.hpp"

namespace edhp::audit {
namespace {

using scenario::fingerprint;

scenario::DistributedConfig small_config() {
  scenario::DistributedConfig config;
  config.scale = 0.02;
  config.days = 1;
  config.honeypots = 4;
  config.with_top_peer = false;
  return config;
}

// --- The tentpole claim: conservation under composed chaos ----------------

// Byzantine lies + clock steps + a spool quota + manager crashes in ONE
// paper-sized (24-honeypot) run. Each axis was proven zero-silent-loss in
// its own PR; this holds the composition to the same standard: the ledger
// must balance, and crash-destroyed evidence must stay under 1%.
TEST(AuditLedger, CombinedAxesBalanceWithHighRetention) {
  scenario::DistributedConfig config;
  config.scale = 0.02;
  config.days = 2;
  config.honeypots = 24;
  config.with_top_peer = false;
  config.audit = true;
  config.chaos.enabled = true;
  config.chaos.manager_mtbf = hours(12);
  config.chaos.clock_step_mtbf = hours(8);
  config.chaos.clock_step_max = 90;
  config.chaos.disk_quota_bytes = 192 * 1024;
  auto& b = config.chaos.byzantine;
  b.enabled = true;
  b.fabricate_mtbf = hours(8);
  b.forge_list_mtba = hours(3);

  const auto r = scenario::run_distributed(config);

  // Every axis genuinely fired.
  EXPECT_GE(r.faults.manager_crashes, 1u);
  EXPECT_GE(r.faults.clock_steps, 1u);
  EXPECT_GT(r.byzantine.forged_lists_sent, 0u);
  EXPECT_GT(r.integrity.records_excluded, 0u);

  // The ledger balances (run_distributed would have thrown otherwise, but
  // assert the published stats too) and names real dispositions.
  EXPECT_TRUE(r.audit.enabled);
  EXPECT_TRUE(r.audit.balanced()) << r.audit.breakdown();
  EXPECT_EQ(r.audit.records_merged, r.merged.records.size());
  EXPECT_EQ(r.audit.records_excluded, r.integrity.records_excluded);
  EXPECT_GT(r.audit.records_born, r.audit.records_merged);

  // Evidence retention: crashes may destroy an unspooled tail, but the
  // spool pipeline keeps it under 1% of everything ever stamped.
  EXPECT_GE(r.recovery.retained_fraction, 0.99);
  EXPECT_LT(r.audit.records_lost_tail, r.audit.records_born / 100 + 1);
}

// --- Hard failure on injected imbalance -----------------------------------

// The self-test backdoor destroys every Nth record after all accounting
// points — the exact silent-loss bug class the ledger exists to catch. An
// audited run must throw; an unaudited run must still expose the deficit.
TEST(AuditLedger, InjectedSilentLossFailsAuditedRun) {
  auto config = small_config();
  config.chaos.audit_selftest_drop = 97;

  config.audit = false;
  const auto r = scenario::run_distributed(config);
  EXPECT_FALSE(r.audit.enabled);
  EXPECT_FALSE(r.audit.balanced());
  EXPECT_GT(r.audit.unaccounted(), 0) << r.audit.breakdown();

  config.audit = true;
  EXPECT_THROW((void)scenario::run_distributed(config), ImbalanceError);
}

TEST(AuditLedger, ImbalanceErrorCarriesTheLedger) {
  auto config = small_config();
  config.chaos.audit_selftest_drop = 97;
  config.audit = true;
  try {
    (void)scenario::run_distributed(config);
    FAIL() << "imbalanced audited run did not throw";
  } catch (const ImbalanceError& e) {
    EXPECT_GT(e.stats().unaccounted(), 0);
    EXPECT_NE(std::string(e.what()).find("unaccounted"), std::string::npos);
  }
}

// --- Zero-cost off-path ----------------------------------------------------

// Auditing must not perturb the measurement: same config with audit on and
// off yields the bit-identical dataset, and the ledger itself is identical
// except for the `enabled` flag.
TEST(AuditLedger, AuditFlagIsBitIdenticalNoOp) {
  auto config = small_config();
  config.chaos.enabled = true;
  config.chaos.host_mtbf = hours(18);
  const auto off = scenario::run_distributed(config);
  config.audit = true;
  const auto on = scenario::run_distributed(config);

  EXPECT_EQ(on.merged.records.size(), off.merged.records.size());
  EXPECT_EQ(fingerprint(on.merged), fingerprint(off.merged));
  EXPECT_FALSE(off.audit.enabled);
  EXPECT_TRUE(on.audit.enabled);
  EXPECT_EQ(on.audit.records_born, off.audit.records_born);
  EXPECT_EQ(on.audit.records_merged, off.audit.records_merged);
  EXPECT_EQ(on.audit.accounted(), off.audit.accounted());
  EXPECT_TRUE(off.audit.balanced()) << off.audit.breakdown();
}

TEST(AuditLedger, GreedyCampaignBalancesAudited) {
  scenario::GreedyConfig config;
  config.scale = 0.02;
  config.days = 2;
  config.audit = true;
  config.chaos.enabled = true;
  config.chaos.host_mtbf = hours(12);
  const auto r = scenario::run_greedy(config);
  EXPECT_TRUE(r.audit.balanced()) << r.audit.breakdown();
  EXPECT_EQ(r.audit.records_merged, r.merged.records.size());
}

// --- Classification seams (ISSUE 10 satellite 6) ---------------------------

logbook::LogChunk make_chunk(std::uint16_t hp, std::uint64_t seq,
                             std::size_t records) {
  logbook::LogChunk chunk;
  chunk.honeypot = hp;
  chunk.seq = seq;
  chunk.epoch = 1;
  for (std::size_t i = 0; i < records; ++i) {
    logbook::LogRecord r;
    r.timestamp = 10.0 * static_cast<double>(seq) + static_cast<double>(i);
    r.peer = 1000 + i;
    r.user = 2000 + i;
    r.honeypot = hp;
    chunk.records.push_back(r);
  }
  chunk.checksum = logbook::chunk_checksum(chunk);
  return chunk;
}

// Quarantine is a state, not a disposition: an intact re-send of the same
// (honeypot, seq) reclassifies the records as stored, so they must leave
// the quarantined tally — else the ledger would double-count them.
TEST(AuditSeams, QuarantineThenIntactResendReclassifiesOnce) {
  logbook::SpoolStore store;
  auto chunk = make_chunk(1, 0, 5);
  auto bad = chunk;
  bad.checksum ^= 1;
  ASSERT_EQ(store.ingest(bad), logbook::SpoolStore::Ingest::quarantined);
  EXPECT_EQ(store.records_quarantined_resident(), 5u);

  // A second corrupt copy of the SAME pending sequence adds a chunk
  // quarantine but no new resident records.
  ASSERT_EQ(store.ingest(bad), logbook::SpoolStore::Ingest::quarantined);
  EXPECT_EQ(store.chunks_quarantined(), 2u);
  EXPECT_EQ(store.records_quarantined_resident(), 5u);

  // The intact re-send wins: records become stored, residency drops to 0.
  ASSERT_EQ(store.ingest(chunk), logbook::SpoolStore::Ingest::stored);
  EXPECT_EQ(store.records_quarantined_resident(), 0u);
  EXPECT_EQ(store.records_stored(), 5u);
  EXPECT_EQ(store.reassemble(1).records.size(), 5u);
}

// A corrupt re-send of an ALREADY-stored sequence is counted as a chunk
// quarantine (triage signal) but contributes zero resident records: the
// evidence is durable regardless, and counting it would fabricate a
// disposition for records already classified as merged.
TEST(AuditSeams, CorruptResendOfStoredSeqAddsNoResidentRecords) {
  logbook::SpoolStore store;
  auto chunk = make_chunk(2, 7, 4);
  ASSERT_EQ(store.ingest(chunk), logbook::SpoolStore::Ingest::stored);
  auto bad = chunk;
  bad.checksum ^= 1;
  ASSERT_EQ(store.ingest(bad), logbook::SpoolStore::Ingest::quarantined);
  EXPECT_EQ(store.chunks_quarantined(), 1u);
  EXPECT_EQ(store.records_quarantined_resident(), 0u);
  EXPECT_EQ(store.records_stored(), 4u);
}

// Beyond the per-sequence tracking cap the records are still counted (the
// documented overflow, never silent), they just can no longer be
// reclassified by a winning re-send.
TEST(AuditSeams, QuarantineResidencySurvivesTheRefCap) {
  logbook::SpoolStore store;
  const std::size_t total = logbook::kQuarantineRefCap + 8;
  for (std::size_t seq = 0; seq < total; ++seq) {
    auto bad = make_chunk(3, seq, 2);
    bad.checksum ^= 1;
    ASSERT_EQ(store.ingest(bad), logbook::SpoolStore::Ingest::quarantined);
  }
  EXPECT_EQ(store.records_quarantined_resident(), 2 * total);
  // A winning re-send of a tracked sequence still reclassifies...
  ASSERT_EQ(store.ingest(make_chunk(3, 0, 2)),
            logbook::SpoolStore::Ingest::stored);
  EXPECT_EQ(store.records_quarantined_resident(), 2 * total - 2);
  // ...an untracked one stores the records but cannot erase its pending
  // count (the capped, documented overestimate — conservative, not lossy).
  ASSERT_EQ(store.ingest(make_chunk(3, total - 1, 2)),
            logbook::SpoolStore::Ingest::stored);
  EXPECT_EQ(store.records_quarantined_resident(), 2 * total - 2);
}

// --- Chaos-point plumbing ---------------------------------------------------

TEST(ChaosPoint, ReproRoundTripsThroughSerialize) {
  ReproConfig repro;
  repro.seed = 424242;
  repro.scale = 0.03;
  repro.days = 1.5;
  repro.honeypots = 5;
  repro.expect_imbalance = true;
  repro.point.knobs.emplace_back(
      static_cast<std::size_t>(knob_index("host_mtbf")), 21600.0);
  repro.point.knobs.emplace_back(
      static_cast<std::size_t>(knob_index("link_dup")), 0.01);
  const auto parsed = parse_repro(serialize(repro));
  EXPECT_EQ(parsed.seed, repro.seed);
  EXPECT_EQ(parsed.scale, repro.scale);
  EXPECT_EQ(parsed.days, repro.days);
  EXPECT_EQ(parsed.honeypots, repro.honeypots);
  EXPECT_EQ(parsed.expect_imbalance, repro.expect_imbalance);
  ASSERT_EQ(parsed.point.knobs.size(), repro.point.knobs.size());
  EXPECT_EQ(parsed.point.knobs, repro.point.knobs);
}

TEST(ChaosPoint, RegistryNamesAreUniqueAndIndexed) {
  const auto registry = knob_registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(knob_index(registry[i].name), static_cast<int>(i))
        << registry[i].name;
    // Flag-style knobs (e.g. *_off / *_no_*) pin lo == hi.
    EXPECT_LE(registry[i].lo, registry[i].hi) << registry[i].name;
  }
  EXPECT_EQ(knob_index("no_such_knob"), -1);
}

TEST(ChaosPoint, SampledKnobsRespectTheirBounds) {
  Rng rng(7);
  const auto registry = knob_registry();
  for (int round = 0; round < 50; ++round) {
    const auto point = sample_point(rng);
    for (const auto& [index, value] : point.knobs) {
      ASSERT_LT(index, registry.size());
      EXPECT_GE(value, registry[index].lo) << registry[index].name;
      EXPECT_LE(value, registry[index].hi) << registry[index].name;
    }
  }
}

// --- Repro parser: complete numbers only -----------------------------------

// Repro files reach edhp_inspect and edhp_chaosfuzz --replay from disk, so a
// malformed number must be an error naming its line, never a silent prefix
// ("2x" as 2) or a wrapped sign ("-1" as 2^64 - 1).
class ReproParse : public ::testing::TestWithParam<std::string> {};

TEST_P(ReproParse, MalformedNumberThrowsNamingTheLine) {
  const std::string line = GetParam();
  const std::string text = "# repro\nexpect=balanced\n" + line + "\n";
  try {
    (void)parse_repro(text);
    ADD_FAILURE() << "accepted: " << line;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Lines, ReproParse,
                         ::testing::Values("seed=abc", "honeypots=abc",
                                           "seed=-1", "honeypots=-1",
                                           "days=2x", "scale=0.02junk",
                                           "knob host_mtbf=5x",
                                           "knob host_mtbf=nan",
                                           "knob abuse_intensity=nan",
                                           "days=nan", "scale=inf",
                                           "knob host_mtbf=-inf",
                                           "knob session_ceiling=-5",
                                           "knob session_ceiling=2.5",
                                           "knob session_ceiling=4294967296",
                                           "knob manager_no_recovery=2"));

TEST(ReproParseAccepts, EveryCompleteNumberForm) {
  const auto repro = parse_repro(
      "seed=18446744073709551615\nscale=2e-2\ndays=1.5\nhoneypots=6\n"
      "knob host_mtbf=21600\nknob link_dup=1e-3\n");
  EXPECT_EQ(repro.seed, 18446744073709551615ull);
  EXPECT_EQ(repro.scale, 0.02);
  EXPECT_EQ(repro.days, 1.5);
  EXPECT_EQ(repro.honeypots, 6u);
  ASSERT_EQ(repro.point.knobs.size(), 2u);
  EXPECT_EQ(repro.point.knobs[0].second, 21600.0);
  EXPECT_EQ(repro.point.knobs[1].second, 0.001);
}

// --- Committed corpus replay ------------------------------------------------

/// Mirror of tools/chaos_run.hpp::repro_config — the replay contract the
/// fuzzer, the inspector, and this regression test all share.
scenario::DistributedConfig corpus_config(const ReproConfig& repro) {
  scenario::DistributedConfig config;
  config.scale = repro.scale;
  config.seed = repro.seed;
  config.days = repro.days;
  config.honeypots = repro.honeypots;
  config.with_top_peer = false;
  apply(repro.point, config.chaos, config.abuse);
  return config;
}

// Every repro the fuzzer ever shrank and committed replays to its recorded
// verdict: `expect=imbalance` files must still trip the ledger (if one
// reports balanced, the auditor has grown a hole), `expect=balanced` files
// must still hold conservation under their composed knobs.
TEST(ChaosCorpus, EveryCommittedReproReplaysToItsVerdict) {
  const std::filesystem::path dir = EDHP_CHAOS_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cfg") continue;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file) << entry.path();
    const std::string text((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
    const ReproConfig repro = parse_repro(text);
    const auto result = scenario::run_distributed(corpus_config(repro));
    EXPECT_EQ(!result.audit.balanced(), repro.expect_imbalance)
        << entry.path() << ": " << result.audit.breakdown();
    ++replayed;
  }
  EXPECT_GE(replayed, 2u) << "committed corpus went missing";
}

}  // namespace
}  // namespace edhp::audit
