// Message codecs: parameterized round-trip over every message type, wire
// header layout, channel dispatch, malformed-packet rejection, and a
// randomized property sweep.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "common/rng.hpp"
#include "proto/messages.hpp"

// Counts this binary's heap allocations while a test has counting on (see
// allocations_of below); everything else allocates as usual.
namespace {
bool g_count_allocations = false;
std::size_t g_allocations = 0;
}  // namespace

// Out of line, so the compiler does not pair an inlined free() with the
// allocation expression at each call site.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace edhp::proto {
namespace {

UserId user(std::uint64_t n) { return UserId::from_words(n, ~n); }
FileId file(std::uint64_t n) { return FileId::from_words(n * 3, n * 7 + 1); }

PublishedFile pub(std::uint64_t n) {
  PublishedFile f;
  f.file = file(n);
  f.client_id = static_cast<std::uint32_t>(0x1000000 + n);
  f.port = static_cast<std::uint16_t>(4662 + n);
  f.name = "file-" + std::to_string(n) + ".avi";
  f.size = static_cast<std::uint32_t>(1000 + n * 12345);
  return f;
}

std::vector<Tag> hello_tags() {
  return {Tag::string_tag(kTagName, "edhp-peer"), Tag::u32_tag(kTagVersion, 0x3C)};
}

// --- Parameterized round-trip across all message kinds --------------------

// gtest prints each case's parameter into its ctest name. Printed whole, a
// case would show its name's run-time address and the message's raw bytes
// (heap pointers, padding), and the name would change from run to run, so a
// case prints as its name alone.
struct Case {
  std::string name;
  Channel channel;
  AnyMessage msg;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class RoundTrip : public ::testing::TestWithParam<Case> {};

TEST_P(RoundTrip, EncodeDecodeIdentity) {
  const auto& [name, channel, msg] = GetParam();
  const auto wire = encode(msg);
  const AnyMessage back = decode(channel, wire);
  EXPECT_EQ(back, msg) << name;
  EXPECT_EQ(name_of(back), name_of(msg));
}

TEST_P(RoundTrip, HeaderLayout) {
  const auto& [name, channel, msg] = GetParam();
  (void)name;
  (void)channel;
  const auto wire = encode(msg);
  ASSERT_GE(wire.size(), 6u);
  EXPECT_EQ(wire[0], kProtoEDonkey);
  const std::uint32_t len = static_cast<std::uint32_t>(wire[1]) |
                            (static_cast<std::uint32_t>(wire[2]) << 8) |
                            (static_cast<std::uint32_t>(wire[3]) << 16) |
                            (static_cast<std::uint32_t>(wire[4]) << 24);
  EXPECT_EQ(len, wire.size() - 5);
  EXPECT_EQ(wire[5], opcode_of(msg));
}

TEST_P(RoundTrip, TruncationAlwaysRejected) {
  const auto& [name, channel, msg] = GetParam();
  (void)name;
  const auto wire = encode(msg);
  // Chopping any suffix must throw, never crash or mis-decode. (The length
  // field makes every truncation detectable.)
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    EXPECT_THROW(
        (void)decode(channel, std::span<const std::uint8_t>(wire.data(), keep)),
        DecodeError)
        << name << " truncated to " << keep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMessages, RoundTrip,
    ::testing::Values(
        Case{"login", Channel::client_server,
             LoginRequest{user(1), 0, 4662,
                          {Tag::string_tag(kTagName, "hp-01"),
                           Tag::u32_tag(kTagVersion, 60),
                           Tag::u32_tag(kTagPort, 4662)}}},
        Case{"id_change", Channel::client_server, IdChange{0xC0A80001, 0}},
        Case{"id_change_lowid", Channel::client_server, IdChange{4242, 1}},
        Case{"offer_none", Channel::client_server, OfferFiles{{}}},
        Case{"offer_some", Channel::client_server,
             OfferFiles{{pub(1), pub(2), pub(3), pub(4)}}},
        Case{"get_sources", Channel::client_server, GetSources{file(9)}},
        Case{"found_none", Channel::client_server, FoundSources{file(9), {}}},
        Case{"found_some", Channel::client_server,
             FoundSources{file(9),
                          {SourceEntry{0x05060708, 4662},
                           SourceEntry{123, 4672}}}},
        Case{"search", Channel::client_server, SearchRequest{"linux iso"}},
        Case{"search_result", Channel::client_server, SearchResult{{pub(7)}}},
        Case{"server_message", Channel::client_server,
             ServerMessage{"server full"}},
        Case{"hello", Channel::client_client,
             Hello{user(2), 0x0A000001, 4662, hello_tags(), 0x51234567, 4661}},
        Case{"hello_answer", Channel::client_client,
             HelloAnswer{user(3), 77, 4662, hello_tags(), 0x51234567, 4661}},
        Case{"start_upload", Channel::client_client, StartUpload{file(5)}},
        Case{"accept_upload", Channel::client_client, AcceptUpload{}},
        Case{"queue_rank", Channel::client_client, QueueRank{42}},
        Case{"request_parts", Channel::client_client,
             RequestParts{file(5),
                          {0u, 184320u, 368640u},
                          {184320u, 368640u, 552960u}}},
        Case{"sending_part", Channel::client_client,
             SendingPart{file(5), 0, 5, {1, 2, 3, 4, 5}}},
        Case{"sending_part_empty", Channel::client_client,
             SendingPart{file(5), 10, 10, {}}},
        Case{"cancel", Channel::client_client, CancelTransfer{}},
        Case{"ask_shared", Channel::client_client, AskSharedFiles{}},
        Case{"ask_shared_answer", Channel::client_client,
             AskSharedFilesAnswer{{pub(1), pub(2)}}}),
    [](const auto& inf) { return inf.param.name; });

// --- Channel dispatch ------------------------------------------------------

TEST(Decode, OpcodeIsContextual) {
  // 0x01 is LOGIN-REQUEST on a server link but HELLO on a peer link.
  LoginRequest login{user(1), 0, 4662, {}};
  const auto wire = encode(AnyMessage{login});
  EXPECT_EQ(wire[5], kOpLoginRequest);
  EXPECT_EQ(kOpLoginRequest, kOpHello);
  EXPECT_TRUE(
      std::holds_alternative<LoginRequest>(decode(Channel::client_server, wire)));
  // On the client channel the LOGIN payload is not a valid HELLO (it lacks
  // the hash-size byte), so decoding must fail rather than mis-parse.
  EXPECT_THROW((void)decode(Channel::client_client, wire), DecodeError);
}

TEST(Decode, ClientOpcodeRejectedOnServerChannel) {
  const auto wire = encode(AnyMessage{StartUpload{file(1)}});
  EXPECT_THROW((void)decode(Channel::client_server, wire), DecodeError);
}

// --- Malformed packets -----------------------------------------------------

TEST(Decode, BadMarkerRejected) {
  auto wire = encode(AnyMessage{AcceptUpload{}});
  wire[0] = 0xE5;
  EXPECT_THROW((void)decode(Channel::client_client, wire), DecodeError);
}

TEST(Decode, LengthMismatchRejected) {
  auto wire = encode(AnyMessage{QueueRank{1}});
  wire[1] = static_cast<std::uint8_t>(wire[1] + 1);
  EXPECT_THROW((void)decode(Channel::client_client, wire), DecodeError);
}

TEST(Decode, TrailingBytesRejected) {
  auto wire = encode(AnyMessage{AcceptUpload{}});
  wire.push_back(0xAA);
  wire[1] = static_cast<std::uint8_t>(wire[1] + 1);  // keep length consistent
  EXPECT_THROW((void)decode(Channel::client_client, wire), DecodeError);
}

TEST(Decode, UnknownOpcodeRejected) {
  auto wire = encode(AnyMessage{AcceptUpload{}});
  wire[5] = 0xEE;
  EXPECT_THROW((void)decode(Channel::client_client, wire), DecodeError);
}

TEST(Decode, SendingPartBackwardRangeRejected) {
  SendingPart m{file(1), 100, 50, {}};
  const auto wire = encode(AnyMessage{m});
  EXPECT_THROW((void)decode(Channel::client_client, wire), DecodeError);
}

TEST(Decode, EmptyPacketRejected) {
  // Header claiming zero-length payload has no opcode.
  std::vector<std::uint8_t> wire{kProtoEDonkey, 0, 0, 0, 0};
  EXPECT_THROW((void)decode(Channel::client_client, wire), DecodeError);
}

// --- Allocations per encode ------------------------------------------------

template <typename F>
std::size_t allocations_of(F&& f) {
  g_allocations = 0;
  g_count_allocations = true;
  f();
  g_count_allocations = false;
  return g_allocations;
}

TEST(Encode, OnePacketIsOneAllocation) {
  // A peer's shared-file answer at the peers' mean cache size, with names
  // too long for the small-string buffer, and a HELLO-ANSWER that does not
  // fit a 64-byte first guess: each packet is sized once and written in
  // place, so the packet buffer is the only allocation.
  AskSharedFilesAnswer answer;
  for (std::uint64_t i = 0; i < 60; ++i) {
    PublishedFile f = pub(i);
    f.name = "Some.Shared.Video.File.Part" + std::to_string(i) + ".avi";
    answer.files.push_back(std::move(f));
  }
  const HelloAnswer hello{user(3), 77, 4662,
                          {Tag::string_tag(kTagName, "edhp honeypot 2008-10"),
                           Tag::u32_tag(kTagVersion, 0x3C)},
                          0x51234567, 4661};
  std::vector<std::uint8_t> wire;
  EXPECT_EQ(allocations_of([&] { wire = encode(answer); }), 1u);
  EXPECT_EQ(decode(Channel::client_client, wire), AnyMessage{answer});
  EXPECT_EQ(allocations_of([&] { wire = encode(hello); }), 1u);
  EXPECT_GT(wire.size(), 64u);
  EXPECT_EQ(decode(Channel::client_client, wire), AnyMessage{hello});
}

// --- Randomized property sweep ---------------------------------------------

TEST(Property, RandomOfferFilesRoundTrip) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    OfferFiles offer;
    const auto n = rng.below(20);
    for (std::uint64_t i = 0; i < n; ++i) {
      PublishedFile f;
      f.file = FileId::from_words(rng(), rng());
      f.client_id = static_cast<std::uint32_t>(rng());
      f.port = static_cast<std::uint16_t>(rng());
      const auto name_len = rng.below(64);
      for (std::uint64_t c = 0; c < name_len; ++c) {
        f.name.push_back(static_cast<char>('!' + rng.below(90)));
      }
      f.size = static_cast<std::uint32_t>(rng());
      offer.files.push_back(std::move(f));
    }
    const AnyMessage msg{offer};
    EXPECT_EQ(decode(Channel::client_server, encode(msg)), msg);
  }
}

TEST(Property, RandomByteSoupNeverCrashes) {
  Rng rng(77);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    for (auto ch : {Channel::client_server, Channel::client_client}) {
      try {
        (void)decode(ch, junk);
      } catch (const DecodeError&) {
        // expected for almost all inputs
      }
    }
  }
}

}  // namespace
}  // namespace edhp::proto
