// Log records, binary/CSV serialization, and multi-log merging.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "logbook/journal.hpp"
#include "logbook/log_io.hpp"
#include "logbook/merge.hpp"
#include "scratch_dir.hpp"

namespace edhp::logbook {
namespace {

LogRecord rec(double t, std::uint16_t hp, QueryType type, std::uint64_t peer,
              std::uint16_t name_ref = 0, bool with_file = false) {
  LogRecord r;
  r.timestamp = t;
  r.honeypot = hp;
  r.type = type;
  r.peer = peer;
  r.user = peer * 31;
  r.name_ref = name_ref;
  r.peer_port = 4662;
  r.client_version = 0x31;
  r.flags = kFlagHighId;
  if (with_file) {
    r.file = FileId::from_words(7, 8);
    r.flags |= kFlagHasFile;
  }
  return r;
}

LogFile sample_log(std::uint16_t hp) {
  LogFile log;
  log.header.honeypot = hp;
  log.header.honeypot_name = "hp-" + std::to_string(hp);
  log.header.strategy = "no-content";
  log.header.server_name = "server";
  log.header.server_ip = 0xC0A80001;
  log.header.server_port = 4661;
  const auto ref = log.intern("eMule 0.49b");
  log.records.push_back(rec(1.5, hp, QueryType::hello, 100 + hp, ref));
  log.records.push_back(rec(2.5, hp, QueryType::start_upload, 100 + hp, ref, true));
  log.records.push_back(rec(9.0, hp, QueryType::request_part, 200, 0, true));
  return log;
}

TEST(LogFile, InternReturnsStableIndices) {
  LogFile log;
  EXPECT_EQ(log.names.size(), 1u);  // index 0 = ""
  const auto a = log.intern("eMule");
  const auto b = log.intern("aMule");
  EXPECT_EQ(log.intern("eMule"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(log.names[a], "eMule");
  EXPECT_EQ(log.intern(""), 0);
}

TEST(LogRecord, FlagAccessors) {
  LogRecord r;
  EXPECT_FALSE(r.high_id());
  EXPECT_FALSE(r.has_file());
  r.flags = kFlagHighId | kFlagHasFile;
  EXPECT_TRUE(r.high_id());
  EXPECT_TRUE(r.has_file());
}

TEST(LogIo, BinaryRoundTrip) {
  const auto log = sample_log(3);
  std::stringstream buffer;
  write_binary(buffer, log);
  const auto back = read_binary(buffer);
  EXPECT_EQ(back, log);
}

TEST(LogIo, BinaryRoundTripEmptyLog) {
  LogFile log;
  log.header.honeypot_name = "empty";
  std::stringstream buffer;
  write_binary(buffer, log);
  EXPECT_EQ(read_binary(buffer), log);
}

TEST(LogIo, BinaryBytesArePinned) {
  // The on-disk format is frozen: a log of 3000 records, more than one
  // write block, must serialize to exactly these bytes.
  LogFile log = sample_log(7);
  const auto ref = log.intern("aMule 2.1.3");
  for (std::uint32_t i = 0; i < 3000; ++i) {
    LogRecord r = rec(0.25 * i + 1e-3, static_cast<std::uint16_t>(i % 5),
                      static_cast<QueryType>(i % 3), 0x9E3779B97F4A7C15ull * i,
                      i % 2 == 0 ? ref : 0, i % 4 != 0);
    r.peer_port = static_cast<std::uint16_t>(4000 + i);
    r.client_version = i * 7919;
    log.records.push_back(r);
  }
  std::stringstream buffer;
  write_binary(buffer, log);
  const std::string bytes = buffer.str();
  EXPECT_EQ(bytes.size(), 168'314u);
  EXPECT_EQ(fnv1a({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                   bytes.size()}),
            0x2e42db2944524dcfull);
}

TEST(LogIo, BadMagicRejected) {
  std::stringstream buffer("NOTALOG0xxxxxxxxxxxxxxxx");
  EXPECT_THROW((void)read_binary(buffer), DecodeError);
}

TEST(LogIo, TruncatedStreamRejected) {
  const auto log = sample_log(1);
  std::stringstream buffer;
  write_binary(buffer, log);
  std::string data = buffer.str();
  for (const std::size_t keep : {data.size() - 1, data.size() / 2, 9ul}) {
    std::stringstream cut(data.substr(0, keep));
    EXPECT_THROW((void)read_binary(cut), DecodeError) << "keep=" << keep;
  }
}

TEST(LogIo, CsvHasHeaderAndRows) {
  const auto log = sample_log(3);
  std::stringstream out;
  write_csv(out, log);
  std::string line;
  std::getline(out, line);
  EXPECT_NE(line.find("timestamp"), std::string::npos);
  std::size_t rows = 0;
  while (std::getline(out, line)) ++rows;
  EXPECT_EQ(rows, log.records.size());
}

/// An empty log whose record-count field (its last eight bytes) claims
/// `count` records.
std::string empty_log_claiming(std::uint64_t count) {
  std::stringstream buffer;
  write_binary(buffer, LogFile{});
  std::string bytes = buffer.str();
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>(count >> (8 * i));
  }
  return bytes;
}

class CraftedRecordCount : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CraftedRecordCount, FailsAsDecodeError) {
  // A count the input cannot hold must not reach the allocator: it fails
  // as DecodeError from a stream and from a file alike.
  const std::string bytes = empty_log_claiming(GetParam());
  std::stringstream in(bytes);
  EXPECT_THROW((void)read_binary(in), DecodeError);

  const ScratchDir scratch;
  const std::string path = scratch.file("crafted.edhplog");
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW((void)load(path), DecodeError);
}

INSTANTIATE_TEST_SUITE_P(
    Counts, CraftedRecordCount,
    ::testing::Values(~0ull, 1ull << 40, 1ull << 26),
    [](const ::testing::TestParamInfo<std::uint64_t>& count) {
      return count.param == ~0ull
                 ? std::string("u64_max")
                 : "two_pow_" + std::to_string(std::bit_width(count.param) - 1);
    });

TEST(LogIo, SaveAndLoadFile) {
  const auto log = sample_log(5);
  const ScratchDir scratch;
  const std::string path = scratch.file("log.bin");
  save(path, log);
  EXPECT_EQ(load(path), log);
  EXPECT_THROW((void)load(path + ".does-not-exist"), std::runtime_error);
}

TEST(Merge, OrdersByTimestampAcrossLogs) {
  std::vector<LogFile> logs{sample_log(0), sample_log(1)};
  logs[1].records[0].timestamp = 0.5;  // earliest overall
  const auto merged = merge_logs(borrow(logs));
  ASSERT_EQ(merged.records.size(), 6u);
  for (std::size_t i = 1; i < merged.records.size(); ++i) {
    EXPECT_LE(merged.records[i - 1].timestamp, merged.records[i].timestamp);
  }
  EXPECT_EQ(merged.records.front().honeypot, 1);
  EXPECT_EQ(merged.header.honeypot, 0xFFFF);
}

TEST(Merge, TieBreaksByHoneypot) {
  std::vector<LogFile> logs{sample_log(1), sample_log(0)};
  const auto merged = merge_logs(borrow(logs));
  // Records at t=1.5 from hp 0 and hp 1: hp 0 must come first.
  EXPECT_EQ(merged.records[0].honeypot, 0);
  EXPECT_EQ(merged.records[1].honeypot, 1);
}

TEST(Merge, UnifiesNameTables) {
  LogFile a = sample_log(0);
  LogFile b;
  b.header = a.header;
  b.header.honeypot = 1;
  const auto ref = b.intern("Shareaza 2.3");
  b.records.push_back(rec(0.1, 1, QueryType::hello, 9, ref));

  std::vector<LogFile> logs{a, b};
  const auto merged = merge_logs(borrow(logs));
  // Every record's name resolves to the right string.
  const auto& first = merged.records.front();
  EXPECT_EQ(merged.names[first.name_ref], "Shareaza 2.3");
  bool found_emule = false;
  for (const auto& r : merged.records) {
    if (merged.names[r.name_ref] == "eMule 0.49b") found_emule = true;
  }
  EXPECT_TRUE(found_emule);
}

TEST(Merge, PreservesServerIdentityWhenShared) {
  std::vector<LogFile> logs{sample_log(0), sample_log(1)};
  const auto merged = merge_logs(borrow(logs));
  EXPECT_EQ(merged.header.server_ip, 0xC0A80001u);
  EXPECT_EQ(merged.header.server_name, "server");
}

TEST(Merge, ClearsServerIdentityWhenMixed) {
  std::vector<LogFile> logs{sample_log(0), sample_log(1)};
  logs[1].header.server_ip = 0x08080808;
  const auto merged = merge_logs(borrow(logs));
  EXPECT_EQ(merged.header.server_ip, 0u);
  EXPECT_TRUE(merged.header.server_name.empty());
}

TEST(Merge, RejectsMixedAnonymisationStages) {
  std::vector<LogFile> logs{sample_log(0), sample_log(1)};
  logs[1].header.peer_kind = PeerIdKind::stage2_index;
  EXPECT_THROW((void)merge_logs(borrow(logs)), std::invalid_argument);
}

TEST(Merge, EmptyInputYieldsEmptyLog) {
  const auto merged = merge_logs({});
  EXPECT_TRUE(merged.records.empty());
  EXPECT_EQ(merged.header.honeypot, 0xFFFF);
}

// --- The merge against the sort it replaced --------------------------------

/// The published order by definition: the kept records of every log,
/// concatenated in input order with their names re-interned, then
/// stable-sorted by (timestamp, honeypot).
LogFile reference_merge(const std::vector<LogFile>& logs, bool exclude,
                        std::uint64_t& excluded) {
  LogFile merged;
  merged.header.honeypot = 0xFFFF;
  merged.header.honeypot_name = "merged";
  if (!logs.empty()) {
    merged.header.server_name = logs.front().header.server_name;
    merged.header.server_ip = logs.front().header.server_ip;
    merged.header.server_port = logs.front().header.server_port;
  }
  excluded = 0;
  for (const auto& log : logs) {
    std::vector<std::uint16_t> remap;
    for (const auto& name : log.names) remap.push_back(merged.intern(name));
    for (LogRecord r : log.records) {
      if (exclude && r.tainted()) {
        ++excluded;
        continue;
      }
      r.name_ref = remap[r.name_ref];
      merged.records.push_back(r);
    }
  }
  std::stable_sort(merged.records.begin(), merged.records.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     if (a.timestamp != b.timestamp) {
                       return a.timestamp < b.timestamp;
                     }
                     return a.honeypot < b.honeypot;
                   });
  return merged;
}

/// A log shaped to trip a k-way merge: few distinct timestamps (ties within
/// and across logs), stretches that run backwards, tainted records in
/// between, a honeypot id drawn from three (so logs share one), sometimes
/// no records, and a name table interned in its own order.
LogFile adversarial_log(Rng& rng, std::uint64_t& serial) {
  static const char* const kNames[] = {"eMule 0.49b", "aMule 2.1.3",
                                       "Shareaza 2.3", "MLDonkey", "lphant"};
  LogFile log;
  log.header.honeypot = static_cast<std::uint16_t>(rng.below(3));
  log.header.server_name = "server";
  log.header.server_ip = 0xC0A80001;
  for (std::uint64_t i = rng.below(4); i < 5; ++i) {
    log.intern(kNames[(i + log.header.honeypot) % 5]);
  }
  const auto n = rng.below(4) == 0 ? 0 : rng.below(60);
  double t = static_cast<double>(rng.below(5));
  for (std::uint64_t i = 0; i < n; ++i) {
    switch (rng.below(3)) {
      case 0: break;                                           // tie
      case 1: t += static_cast<double>(rng.below(3)); break;   // forward
      default: t -= static_cast<double>(rng.below(4)); break;  // backwards
    }
    LogRecord r = rec(t, log.header.honeypot,
                      static_cast<QueryType>(rng.below(3)), rng.below(20),
                      static_cast<std::uint16_t>(rng.below(log.names.size())));
    r.user = serial++;  // makes every record distinguishable
    if (rng.below(5) == 0) r.flags |= kFlagProvForged;
    log.records.push_back(r);
  }
  return log;
}

TEST(Merge, MatchesStableSortOfTheConcatenation) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::uint64_t serial = 0;
    std::vector<LogFile> logs(1 + rng.below(6));
    for (auto& log : logs) log = adversarial_log(rng, serial);

    std::uint64_t expected_excluded = 0;
    const auto all = reference_merge(logs, false, expected_excluded);
    const auto merged = merge_logs(borrow(logs));
    EXPECT_EQ(merged, all);

    const auto kept = reference_merge(logs, true, expected_excluded);
    std::uint64_t excluded = 99;
    const auto published = merge_logs(borrow(logs), &excluded);
    EXPECT_EQ(published, kept);
    EXPECT_EQ(excluded, expected_excluded);
  }
}

}  // namespace
}  // namespace edhp::logbook
