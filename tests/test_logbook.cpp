// Log records, binary/CSV serialization, and multi-log merging.

#include <gtest/gtest.h>

#include <sstream>

#include "common/bytes.hpp"
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
  const auto merged = merge_logs(logs);
  ASSERT_EQ(merged.records.size(), 6u);
  for (std::size_t i = 1; i < merged.records.size(); ++i) {
    EXPECT_LE(merged.records[i - 1].timestamp, merged.records[i].timestamp);
  }
  EXPECT_EQ(merged.records.front().honeypot, 1);
  EXPECT_EQ(merged.header.honeypot, 0xFFFF);
}

TEST(Merge, TieBreaksByHoneypot) {
  std::vector<LogFile> logs{sample_log(1), sample_log(0)};
  const auto merged = merge_logs(logs);
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
  const auto merged = merge_logs(logs);
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
  const auto merged = merge_logs(logs);
  EXPECT_EQ(merged.header.server_ip, 0xC0A80001u);
  EXPECT_EQ(merged.header.server_name, "server");
}

TEST(Merge, ClearsServerIdentityWhenMixed) {
  std::vector<LogFile> logs{sample_log(0), sample_log(1)};
  logs[1].header.server_ip = 0x08080808;
  const auto merged = merge_logs(logs);
  EXPECT_EQ(merged.header.server_ip, 0u);
  EXPECT_TRUE(merged.header.server_name.empty());
}

TEST(Merge, RejectsMixedAnonymisationStages) {
  std::vector<LogFile> logs{sample_log(0), sample_log(1)};
  logs[1].header.peer_kind = PeerIdKind::stage2_index;
  EXPECT_THROW((void)merge_logs(logs), std::invalid_argument);
}

TEST(Merge, EmptyInputYieldsEmptyLog) {
  const auto merged = merge_logs({});
  EXPECT_TRUE(merged.records.empty());
  EXPECT_EQ(merged.header.honeypot, 0xFFFF);
}

}  // namespace
}  // namespace edhp::logbook
