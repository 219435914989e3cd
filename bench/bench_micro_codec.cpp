// Microbenchmarks: eDonkey wire codecs and hashing.
//
// Design-choice ablation: DESIGN.md commits to encoding every simulated
// message to real wire bytes. These benches show codec cost stays in the
// tens-of-nanoseconds to low-microseconds range, negligible next to event
// dispatch, so byte-accurate simulation is affordable.

#include <benchmark/benchmark.h>

#include "common/md4.hpp"
#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "proto/filehash.hpp"
#include "proto/messages.hpp"

namespace {

using namespace edhp;
using namespace edhp::proto;

Hello make_hello() {
  Hello h;
  h.user = UserId::from_words(1, 2);
  h.client_id = 0xC0A80102;
  h.port = 4662;
  h.tags = {Tag::string_tag(kTagName, "eMule 0.49b"),
            Tag::u32_tag(kTagVersion, 0x31)};
  h.server_ip = 0x55667788;
  h.server_port = 4661;
  return h;
}

OfferFiles make_offer(std::size_t n) {
  OfferFiles offer;
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    PublishedFile f;
    f.file = FileId::from_words(rng(), rng());
    f.client_id = static_cast<std::uint32_t>(rng());
    f.port = 4662;
    f.name = "some.shared.file." + std::to_string(i) + ".avi";
    f.size = static_cast<std::uint32_t>(rng());
    offer.files.push_back(std::move(f));
  }
  return offer;
}

void BM_EncodeHello(benchmark::State& state) {
  const AnyMessage msg{make_hello()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(msg));
  }
}
BENCHMARK(BM_EncodeHello);

void BM_DecodeHello(benchmark::State& state) {
  const auto wire = encode(AnyMessage{make_hello()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode(Channel::client_client, wire));
  }
}
BENCHMARK(BM_DecodeHello);

void BM_EncodeRequestParts(benchmark::State& state) {
  RequestParts rp;
  rp.file = FileId::from_words(3, 4);
  rp.begin = {0, 184320, 368640};
  rp.end = {184320, 368640, 552960};
  const AnyMessage msg{rp};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(msg));
  }
}
BENCHMARK(BM_EncodeRequestParts);

void BM_EncodeOfferFiles(benchmark::State& state) {
  const AnyMessage msg{make_offer(static_cast<std::size_t>(state.range(0)))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(msg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeOfferFiles)->Arg(4)->Arg(64)->Arg(1024);

// Typed encoders, called the way the senders call them: the message is kept
// between sends and encoded in place. A peer's shared-file answer at the
// peers' mean cache size (60 entries), the honeypot's HELLO-ANSWER and one
// SENDING-PART block with its 32-byte random sample.
void BM_EncodeSharedFilesAnswer(benchmark::State& state) {
  const AskSharedFilesAnswer answer{make_offer(60).files};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(answer));
  }
  state.SetItemsProcessed(state.iterations() * 60);
}
BENCHMARK(BM_EncodeSharedFilesAnswer);

void BM_EncodeHelloAnswer(benchmark::State& state) {
  const Hello h = make_hello();
  const HelloAnswer answer{h.user, h.client_id, h.port, h.tags, h.server_ip,
                           h.server_port};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(answer));
  }
}
BENCHMARK(BM_EncodeHelloAnswer);

void BM_EncodeSendingPart(benchmark::State& state) {
  SendingPart part;
  part.file = FileId::from_words(3, 4);
  part.begin = 184320;
  part.end = 368640;
  part.data.assign(32, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(part));
  }
}
BENCHMARK(BM_EncodeSendingPart);

void BM_DecodeOfferFiles(benchmark::State& state) {
  const auto wire =
      encode(AnyMessage{make_offer(static_cast<std::size_t>(state.range(0)))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode(Channel::client_server, wire));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeOfferFiles)->Arg(4)->Arg(64)->Arg(1024);

void BM_Md4Throughput(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md4::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md4Throughput)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_Sha1IpAnonymisation(benchmark::State& state) {
  // Stage-1 anonymisation cost per logged query.
  std::string salt = "measurement-salt";
  std::uint32_t ip = 0;
  for (auto _ : state) {
    Sha1 h;
    h.update(salt);
    const std::uint8_t be[4] = {
        static_cast<std::uint8_t>(ip >> 24), static_cast<std::uint8_t>(ip >> 16),
        static_cast<std::uint8_t>(ip >> 8), static_cast<std::uint8_t>(ip)};
    h.update(std::span<const std::uint8_t>(be, 4));
    benchmark::DoNotOptimize(h.finish());
    ++ip;
  }
}
BENCHMARK(BM_Sha1IpAnonymisation);

void BM_PartHashing(benchmark::State& state) {
  // Verifying one full eDonkey part (what detection costs a real client).
  std::vector<std::uint8_t> part(static_cast<std::size_t>(kPartSize));
  Rng rng(2);
  for (auto& b : part) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(part_hashes(part));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kPartSize));
}
BENCHMARK(BM_PartHashing);

}  // namespace

BENCHMARK_MAIN();
