// The manager journal's entry codec: every entry type round-trips, decoding
// rejects every truncation, and an element count the payload cannot hold is
// refused before anything is allocated. Journal files reach edhp_inspect
// from disk, so this suite also runs in the ASan fuzz loop.

#include <gtest/gtest.h>

#include <type_traits>

#include "common/bytes.hpp"
#include "honeypot/journal_entries.hpp"

namespace edhp::honeypot::journal {
namespace {

ServerRef server(net::NodeId node, std::string name) {
  return ServerRef{node, std::move(name), 4661};
}

AdvertisedFile file(std::uint64_t word, std::string name) {
  return AdvertisedFile{FileId::from_words(word, word + 1), std::move(name),
                        static_cast<std::uint32_t>(1000 * word)};
}

ServerQuarantine quarantine() {
  return {"liar", server(9, "liar"), 7200.5, {0, 3, 5}};
}

/// A populated entry of each type (every field away from its default).
template <typename Entry>
Entry sample();

template <>
Checkpoint sample<Checkpoint>() {
  Checkpoint c;
  c.relaunches = 7;
  c.next_backup = 3;
  c.escalations = 2;
  c.heartbeat_escalations = 1;
  c.re_advertise_repairs = 4;
  c.manager_recoveries = 5;
  c.manager_downtime = 3600.25;
  c.orphans_readopted = 6;
  c.started = true;
  c.backups = {server(4, "backup-a"), server(5, "backup-b")};
  c.fleet = {{0, 11, server(1, "srv"), 2, {file(1, "a.avi"), file(2, "b.avi")}},
             {1, 12, server(4, "backup-a"), 0, {}}};
  c.ack_frontier = {{0, 17}, {1, 4}};
  c.servers_quarantined = 2;
  c.servers_reinstated = 1;
  c.health = {{"liar", {1.75, 9, 3}}, {"srv", {0.0, 0, 12}}};
  c.quarantines = {quarantine()};
  c.clock_obs = {{0, 600.0, 600.5}, {1, 1200.0, 1199.0}};
  return c;
}
template <>
Launch sample<Launch>() {
  return {3, 77, server(1, "srv")};
}
template <>
Reassign sample<Reassign>() {
  return {2, server(4, "backup-a")};
}
template <>
Advertise sample<Advertise>() {
  return {1, {file(1, "a.avi"), file(3, "")}};
}
template <>
Backups sample<Backups>() {
  return {{server(4, "backup-a"), server(5, "backup-b")}};
}
template <>
Start sample<Start>() {
  return {};
}
template <>
Stop sample<Stop>() {
  return {};
}
template <>
Relaunch sample<Relaunch>() {
  return {4};
}
template <>
Escalate sample<Escalate>() {
  return {5, EscalateReason::heartbeat, true};
}
template <>
Repair sample<Repair>() {
  return {6};
}
template <>
ChunkStored sample<ChunkStored>() {
  return {2, 3, 41, 250};
}
template <>
Recovered sample<Recovered>() {
  return {1800.5, 24};
}
template <>
DegradeEnter sample<DegradeEnter>() {
  return {7, budget::DegradeReason::disk_quota, 100'000, 250};
}
template <>
DegradeExit sample<DegradeExit>() {
  return {7, 17, 3, 2};
}
template <>
ProbeVerdict sample<ProbeVerdict>() {
  return {8, true, "srv"};
}
template <>
ServerQuarantine sample<ServerQuarantine>() {
  return quarantine();
}
template <>
ServerReinstate sample<ServerReinstate>() {
  return {"liar"};
}
template <>
ClockObservation sample<ClockObservation>() {
  return {{9, 86400.0, 86412.5}};
}

/// Call `f(std::type_identity<E>{})` for every entry type E.
template <typename F>
void for_each_type(F&& f) {
  [&]<typename... E>(EntryList<E...>) {
    (f(std::type_identity<E>{}), ...);
  }(AllEntries{});
}

TEST(JournalEntries, DecodeInvertsEncodeForEveryType) {
  for_each_type([](auto type) {
    using E = typename decltype(type)::type;
    const E entry = sample<E>();
    EXPECT_EQ(decode<E>(encode(entry)), entry) << to_string(E::kType);
  });
}

TEST(JournalEntries, ReencodingADecodedPayloadReproducesItsBytes) {
  for_each_type([](auto type) {
    using E = typename decltype(type)::type;
    const auto payload = encode(sample<E>());
    EXPECT_EQ(encode(decode<E>(payload)), payload) << to_string(E::kType);
  });
}

TEST(JournalEntries, VisitDispatchesOnTheFrameType) {
  for_each_type([](auto type) {
    using E = typename decltype(type)::type;
    const logbook::JournalEntry frame{static_cast<std::uint8_t>(E::kType),
                                      encode(sample<E>()), 0};
    int calls = 0;
    EXPECT_TRUE(visit(frame, [&](const auto& entry) {
      ++calls;
      if constexpr (std::is_same_v<std::decay_t<decltype(entry)>, E>) {
        EXPECT_EQ(entry, sample<E>());
      } else {
        ADD_FAILURE() << "wrong type for " << to_string(E::kType);
      }
    }));
    EXPECT_EQ(calls, 1);
    // A filtered visit ignores every other type without decoding it.
    EXPECT_EQ(visit<Launch>(frame, [](const auto&) {}),
              E::kType == JournalEntryType::launch);
  });
  EXPECT_FALSE(visit(logbook::JournalEntry{99, {1, 2, 3}, 0},
                     [](const auto&) { ADD_FAILURE(); }));
}

TEST(JournalEntries, EveryStrictPrefixThrows) {
  for_each_type([](auto type) {
    using E = typename decltype(type)::type;
    if constexpr (!std::is_same_v<E, Checkpoint>) {
      const auto payload = encode(sample<E>());
      for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        EXPECT_THROW((void)decode<E>({payload.data(), cut}), DecodeError)
            << to_string(E::kType) << " cut at " << cut;
      }
    }
  });
}

// The Byzantine and clock sections were appended to the checkpoint format
// later: exactly the two prefixes that end before them decode (with those
// sections empty), as frames written before the sections existed must.
TEST(JournalEntries, CheckpointPrefixesDecodeOnlyAtSectionBoundaries) {
  const Checkpoint full = sample<Checkpoint>();
  Checkpoint without_clock = full;
  without_clock.clock_obs.clear();
  Checkpoint without_sections = without_clock;
  without_sections.servers_quarantined = 0;
  without_sections.servers_reinstated = 0;
  without_sections.health.clear();
  without_sections.quarantines.clear();

  const auto payload = encode(full);
  std::vector<Checkpoint> decoded;
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    try {
      decoded.push_back(decode<Checkpoint>({payload.data(), cut}));
    } catch (const DecodeError&) {
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], without_sections);
  EXPECT_EQ(decoded[1], without_clock);
}

TEST(JournalEntries, ImpossibleElementCountThrowsBeforeAllocating) {
  // An advertise frame claiming 0xFFFFFFFF files, with 14 bytes behind it.
  ByteWriter w;
  w.u32(0);            // slot index
  w.u32(0xFFFFFFFFu);  // file count
  for (int i = 0; i < 14; ++i) w.u8(0);
  EXPECT_THROW((void)decode<Advertise>(w.view()), DecodeError);

  // A count one past what the payload holds (22 bytes per file at least)
  // is refused; the exact count decodes.
  auto payload = encode(sample<Advertise>());
  payload[4] = 3;
  EXPECT_THROW((void)decode<Advertise>(payload), DecodeError);
  payload[4] = 2;
  EXPECT_EQ(decode<Advertise>(payload), sample<Advertise>());

  // Maps are bounded the same way.
  ByteWriter frontier;
  for (int i = 0; i < 8 * 8 + 1; ++i) frontier.u8(0);  // counters, started
  frontier.u32(0);                                     // backups
  frontier.u32(0);                                     // fleet
  frontier.u32(0x10000000u);                           // ack frontier
  frontier.u16(1);
  frontier.u64(2);
  EXPECT_THROW((void)decode<Checkpoint>(frontier.view()), DecodeError);
}

}  // namespace
}  // namespace edhp::honeypot::journal
