// The control-plane write-ahead journal: framing, torn-tail semantics,
// checksum quarantine, file persistence, and the spool-chunk integrity path
// that shares its checksum.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "logbook/journal.hpp"
#include "logbook/spool.hpp"
#include "scratch_dir.hpp"

namespace edhp::logbook {
namespace {

std::vector<std::uint8_t> payload(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> out;
  for (const int b : bytes) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

Journal sample_journal() {
  Journal j;
  j.append(JournalEntryType::launch, payload({1, 2, 3}));
  j.append(JournalEntryType::advertise, payload({}));
  j.append(JournalEntryType::chunk_stored, payload({9, 9, 9, 9, 9}));
  j.append(JournalEntryType::checkpoint, payload({42}));
  j.append(JournalEntryType::recovered, payload({7, 7}));
  return j;
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a({}), 14695981039346656037ull);
  const std::uint8_t a = 'a';
  EXPECT_EQ(fnv1a(std::span(&a, 1)), 0xaf63dc4c8601ec8cull);
}

TEST(Journal, RoundTripsEntriesInOrder) {
  const Journal j = sample_journal();
  EXPECT_EQ(j.entries_appended(), 5u);
  const auto scan = j.scan();
  ASSERT_EQ(scan.entries.size(), 5u);
  EXPECT_TRUE(scan.quarantined.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.entries[0].type,
            static_cast<std::uint8_t>(JournalEntryType::launch));
  EXPECT_EQ(scan.entries[0].payload, payload({1, 2, 3}));
  EXPECT_EQ(scan.entries[1].payload, payload({}));
  EXPECT_EQ(scan.entries[3].type,
            static_cast<std::uint8_t>(JournalEntryType::checkpoint));
  EXPECT_EQ(scan.entries[4].payload, payload({7, 7}));
}

TEST(Journal, EmptyJournalScansClean) {
  const Journal j;
  const auto scan = j.scan();
  EXPECT_TRUE(scan.entries.empty());
  EXPECT_TRUE(scan.quarantined.empty());
  EXPECT_FALSE(scan.torn_tail);
}

// The satellite regression: EVERY strict prefix of a valid journal must scan
// without throwing, yield exactly the entries whose frames survived whole,
// and flag a torn tail iff the cut landed inside a frame.
TEST(Journal, ByteByByteTruncationSweep) {
  const Journal j = sample_journal();
  const auto full = j.scan();

  // Frame boundaries, from the intact scan.
  std::vector<std::size_t> boundaries;
  for (const auto& e : full.entries) boundaries.push_back(e.offset);
  boundaries.push_back(j.size_bytes());

  for (std::size_t cut = 0; cut < j.size_bytes(); ++cut) {
    std::vector<std::uint8_t> bytes(j.bytes().begin(),
                                    j.bytes().begin() + static_cast<long>(cut));
    JournalScan scan;
    ASSERT_NO_THROW(scan = scan_journal(bytes)) << "cut at " << cut;

    // How many whole frames fit below the cut?
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    ASSERT_EQ(scan.entries.size(), whole) << "cut at " << cut;
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(scan.entries[i].payload, full.entries[i].payload)
          << "cut at " << cut << " entry " << i;
    }
    const bool inside_frame = cut != boundaries[whole];
    EXPECT_EQ(scan.torn_tail, inside_frame) << "cut at " << cut;
    if (inside_frame) {
      EXPECT_EQ(scan.torn_bytes, cut - boundaries[whole]) << "cut at " << cut;
    } else {
      EXPECT_EQ(scan.torn_bytes, 0u) << "cut at " << cut;
    }
    EXPECT_TRUE(scan.quarantined.empty()) << "cut at " << cut;
  }
}

// Same sweep with the journal ending in a clock-observation frame — the
// shape a crash leaves when the manager dies right after harvesting a clock
// sighting from a spool cut. Entries before the tear must survive, and the
// final observation must parse whole or vanish whole, never half.
TEST(Journal, TruncationSweepEndingInClockObservation) {
  Journal j;
  j.append(JournalEntryType::launch, payload({1, 2, 3}));
  j.append(JournalEntryType::chunk_stored, payload({9, 9}));
  // u16 honeypot + u64 true-time bits + u64 local-time bits, the type-18
  // wire shape the manager writes.
  std::vector<std::uint8_t> obs(2 + 8 + 8);
  obs[0] = 4;  // honeypot 4
  const auto true_bits = std::bit_cast<std::uint64_t>(1234.5);
  const auto local_bits = std::bit_cast<std::uint64_t>(1204.25);
  for (int i = 0; i < 8; ++i) {
    obs[2 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(true_bits >> (8 * i));
    obs[10 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(local_bits >> (8 * i));
  }
  j.append(JournalEntryType::clock_observation, obs);

  const auto full = j.scan();
  ASSERT_EQ(full.entries.size(), 3u);
  const std::size_t obs_offset = full.entries[2].offset;
  for (std::size_t cut = 0; cut < j.size_bytes(); ++cut) {
    std::vector<std::uint8_t> bytes(j.bytes().begin(),
                                    j.bytes().begin() + static_cast<long>(cut));
    JournalScan scan;
    ASSERT_NO_THROW(scan = scan_journal(bytes)) << "cut at " << cut;
    if (cut <= obs_offset) {
      // The observation frame is gone entirely; earlier entries intact.
      EXPECT_LE(scan.entries.size(), 2u) << "cut at " << cut;
      for (std::size_t i = 0; i < scan.entries.size(); ++i) {
        EXPECT_EQ(scan.entries[i].payload, full.entries[i].payload);
      }
    } else {
      // Mid-observation tear: never a partial type-18 payload.
      ASSERT_EQ(scan.entries.size(), 2u) << "cut at " << cut;
      EXPECT_TRUE(scan.torn_tail) << "cut at " << cut;
    }
  }
  // And the intact frame round-trips the observation bit-exactly.
  EXPECT_EQ(full.entries[2].type,
            static_cast<std::uint8_t>(JournalEntryType::clock_observation));
  EXPECT_EQ(full.entries[2].payload, obs);
}

// A complete frame whose payload was corrupted is quarantined — skipped,
// reported with its offset — and scanning continues with later frames.
TEST(Journal, MidStreamCorruptionIsQuarantinedNotFatal) {
  const Journal j = sample_journal();
  const auto full = j.scan();
  auto bytes = j.bytes();

  // Flip one payload byte of the middle (non-empty) entry.
  const auto& victim = full.entries[2];
  const std::size_t header = 1 + 4 + 8;
  bytes[victim.offset + header] ^= 0xFF;

  const auto scan = scan_journal(bytes);
  ASSERT_EQ(scan.quarantined.size(), 1u);
  EXPECT_EQ(scan.quarantined[0].offset, victim.offset);
  EXPECT_EQ(scan.quarantined[0].type, victim.type);
  ASSERT_EQ(scan.entries.size(), full.entries.size() - 1);
  // Entries after the corrupt frame still decode.
  EXPECT_EQ(scan.entries.back().payload, full.entries.back().payload);
  EXPECT_FALSE(scan.torn_tail);
}

TEST(Journal, SaveLoadRoundTrip) {
  const ScratchDir scratch;
  const auto path = scratch.file("rt.edhpjrn");
  const Journal j = sample_journal();
  j.save(path);
  const Journal loaded = Journal::load(path);
  EXPECT_EQ(loaded.bytes(), j.bytes());
  EXPECT_EQ(loaded.entries_appended(), j.entries_appended());
}

TEST(Journal, LoadRejectsBadMagicAndMissingFile) {
  const ScratchDir scratch;
  const auto path = scratch.file("bad.edhpjrn");
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTAJRNL plus some trailing garbage";
  }
  EXPECT_THROW((void)Journal::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW((void)Journal::load(path), std::runtime_error);
}

TEST(Journal, LoadToleratesTornTailInFile) {
  const ScratchDir scratch;
  const auto path = scratch.file("torn.edhpjrn");
  const Journal j = sample_journal();
  j.save(path);
  // Truncate the file mid-frame (drop the last 3 bytes).
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  const Journal loaded = Journal::load(path);
  const auto scan = loaded.scan();
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.entries.size(), sample_journal().scan().entries.size() - 1);
}

// --- Spool-chunk integrity (shares fnv1a with the journal) -----------------

LogChunk make_chunk(std::uint16_t hp, std::uint64_t seq) {
  LogChunk chunk;
  chunk.honeypot = hp;
  chunk.seq = seq;
  chunk.epoch = 1;
  chunk.name_base = 0;
  chunk.names = {"", "file.avi"};
  LogRecord r;
  r.timestamp = 123.456 + static_cast<double>(seq);
  r.peer = 77;
  r.user = 88;
  r.honeypot = hp;
  r.name_ref = 1;
  chunk.records.push_back(r);
  chunk.checksum = chunk_checksum(chunk);
  return chunk;
}

TEST(SpoolIntegrity, ChecksumCoversNamesAndRecords) {
  auto chunk = make_chunk(3, 0);
  const auto base = chunk.checksum;
  chunk.records[0].peer ^= 1;
  EXPECT_NE(chunk_checksum(chunk), base);
  chunk.records[0].peer ^= 1;
  chunk.names[1] = "other.avi";
  EXPECT_NE(chunk_checksum(chunk), base);
  chunk.names[1] = "file.avi";
  EXPECT_EQ(chunk_checksum(chunk), base);
}

TEST(SpoolIntegrity, CorruptChunkIsQuarantinedNeverStored) {
  SpoolStore store;
  auto good = make_chunk(1, 0);
  EXPECT_EQ(store.ingest(good), SpoolStore::Ingest::stored);

  auto bad = make_chunk(1, 1);
  bad.records[0].user ^= 0xDEAD;  // corrupt after stamping
  EXPECT_EQ(store.ingest(bad), SpoolStore::Ingest::quarantined);
  EXPECT_EQ(store.chunks_quarantined(), 1u);
  ASSERT_EQ(store.quarantine().size(), 1u);
  EXPECT_EQ(store.quarantine()[0].honeypot, 1u);
  EXPECT_EQ(store.quarantine()[0].seq, 1u);
  // The quarantined chunk contributed nothing to the dataset.
  EXPECT_EQ(store.records_stored(), 1u);
  EXPECT_EQ(store.next_seq(1), 1u);

  // A clean re-send of the same sequence is accepted normally.
  EXPECT_EQ(store.ingest(make_chunk(1, 1)), SpoolStore::Ingest::stored);
  EXPECT_EQ(store.next_seq(1), 2u);
}

// A corruptor hurling endless distinct bad chunks must not balloon manager
// memory: refs are kept for the FIRST kQuarantineRefCap quarantines, the
// counter keeps the true total, and the overflow is reported.
TEST(SpoolIntegrity, QuarantineRefsAreCappedButStillCounted) {
  SpoolStore store;
  const std::uint64_t total = kQuarantineRefCap + 40;
  for (std::uint64_t i = 0; i < total; ++i) {
    auto bad = make_chunk(1, i);
    bad.records[0].user ^= 0xDEAD;
    ASSERT_EQ(store.ingest(bad), SpoolStore::Ingest::quarantined);
  }
  EXPECT_EQ(store.chunks_quarantined(), total);
  ASSERT_EQ(store.quarantine().size(), kQuarantineRefCap);
  EXPECT_EQ(store.quarantine_dropped(), total - kQuarantineRefCap);
  EXPECT_EQ(store.quarantine().front().seq, 0u);
  EXPECT_EQ(store.quarantine().back().seq, kQuarantineRefCap - 1);
  EXPECT_EQ(store.records_stored(), 0u);
}

TEST(SpoolCost, DeterministicAcrossPlatformsAndGrowsWithPayload) {
  // The cost is the serialized wire footprint, not sizeof(): fixed frame
  // header (22) + checksum (8), 2 + len per name, 56 per packed record.
  LogChunk empty;
  EXPECT_EQ(chunk_cost_bytes(empty), 30u);
  const auto chunk = make_chunk(1, 0);  // names "" + "file.avi", one record
  EXPECT_EQ(chunk_cost_bytes(chunk), 30u + 2 + (2 + 8) + 56);
  auto more = chunk;
  more.records.push_back(chunk.records[0]);
  EXPECT_EQ(chunk_cost_bytes(more), chunk_cost_bytes(chunk) + 56);
}

TEST(SpoolIntegrity, DuplicateStillDetected) {
  SpoolStore store;
  EXPECT_EQ(store.ingest(make_chunk(2, 0)), SpoolStore::Ingest::stored);
  EXPECT_EQ(store.ingest(make_chunk(2, 0)), SpoolStore::Ingest::duplicate);
}

TEST(SpoolIntegrity, ZeroedChecksumIsStillVerified) {
  // A zero checksum exempts nothing: a corrupted chunk whose checksum was
  // zeroed as well is quarantined like any other mismatch.
  SpoolStore store;
  auto zeroed = make_chunk(2, 1);
  zeroed.records[0].user ^= 0xBEEF;
  zeroed.checksum = 0;
  EXPECT_EQ(store.ingest(zeroed), SpoolStore::Ingest::quarantined);
  EXPECT_EQ(store.chunks_quarantined(), 1u);
  EXPECT_EQ(store.records_stored(), 0u);
}

}  // namespace
}  // namespace edhp::logbook
