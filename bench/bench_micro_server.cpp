// Microbenchmarks: directory-server index at greedy-measurement scale.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hpp"
#include "common/memstat.hpp"
#include "common/rng.hpp"
#include "server/index.hpp"

namespace {

using namespace edhp;
using namespace edhp::server;

std::vector<proto::PublishedFile> make_list(Rng& rng, std::size_t n) {
  std::vector<proto::PublishedFile> files;
  files.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    proto::PublishedFile f;
    f.file = FileId::from_words(rng(), rng());
    f.name = "file." + std::to_string(rng() % 100000) + ".avi";
    f.size = static_cast<std::uint32_t>(rng());
    files.push_back(std::move(f));
  }
  return files;
}

void BM_IndexOfferSmallLists(benchmark::State& state) {
  // Typical peers: replace a ~50-file list.
  Rng rng(1);
  FileIndex index;
  const auto list = make_list(rng, 50);
  SessionKey session = 1;
  for (auto _ : state) {
    index.set_shared_list(session++ % 1000, 0x2000000, 4662, list);
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_IndexOfferSmallLists);

void BM_IndexOfferGreedyList(benchmark::State& state) {
  // The greedy honeypot's keep-alive re-offers thousands of files.
  Rng rng(2);
  FileIndex index;
  const auto list = make_list(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    index.set_shared_list(1, 0x2000000, 4662, list);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexOfferGreedyList)->Arg(3175);

void BM_IndexSourceLookup(benchmark::State& state) {
  Rng rng(3);
  FileIndex index;
  // 200 providers of one hot file plus background noise.
  proto::PublishedFile hot;
  hot.file = FileId::from_words(42, 42);
  hot.name = "hot.file.avi";
  for (SessionKey s = 1; s <= 200; ++s) {
    auto list = make_list(rng, 20);
    list.push_back(hot);
    index.set_shared_list(s, static_cast<std::uint32_t>(0x2000000 + s), 4662,
                          list);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.sources(hot.file, 200));
  }
}
BENCHMARK(BM_IndexSourceLookup);

void BM_IndexKeywordSearch(benchmark::State& state) {
  Rng rng(4);
  FileIndex index;
  for (SessionKey s = 1; s <= 500; ++s) {
    index.set_shared_list(s, static_cast<std::uint32_t>(0x2000000 + s), 4662,
                          make_list(rng, 40));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.search("file 4242", 50));
  }
}
BENCHMARK(BM_IndexKeywordSearch);

void BM_IndexSessionChurn(benchmark::State& state) {
  // Connect-offer-disconnect cycles, the server's steady-state load.
  Rng rng(5);
  FileIndex index;
  const auto list = make_list(rng, 30);
  for (auto _ : state) {
    index.set_shared_list(7, 0x2000000, 4662, list);
    index.drop_session(7);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexSessionChurn);

// Headline index throughput for the BENCH_*.json trajectory: published-file
// offers indexed per second through typical 50-file list replacements.
double measure_offers_per_sec() {
  using clock = std::chrono::steady_clock;
  Rng rng(1);
  FileIndex index;
  const auto list = make_list(rng, 50);
  SessionKey session = 1;
  std::uint64_t offers = 0;
  const auto start = clock::now();
  do {
    for (int i = 0; i < 100; ++i) {
      index.set_shared_list(session++ % 1000, 0x2000000, 4662, list);
      offers += list.size();
    }
  } while (clock::now() - start < std::chrono::milliseconds(300));
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  return static_cast<double>(offers) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // One machine-readable line for the perf trajectory (BENCH_*.json). Its
  // peak RSS is read after the headline loop, so it covers that loop.
  const double events_per_sec = measure_offers_per_sec();
  edhp::bench::print_record("micro_server",
                            {{"events_per_sec", events_per_sec, 0},
                             {"peak_rss_bytes", edhp::peak_rss_bytes()}});
  return 0;
}
