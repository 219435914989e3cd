// Microbenchmarks: simulation kernel, RNG and network primitives — the
// per-event costs that bound full-measurement runtimes.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <memory>

#include "bench_common.hpp"
#include "common/memstat.hpp"
#include "net/network.hpp"
#include "sim/diurnal.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace edhp;

void BM_EventScheduleAndRun(benchmark::State& state) {
  // Schedule/execute cycles through a queue preloaded to the given depth.
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation s;
    std::uint64_t sink = 0;
    state.ResumeTiming();
    for (std::size_t i = 0; i < depth; ++i) {
      s.schedule_at(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1024)->Arg(65536);

void BM_TimerCancelChurn(benchmark::State& state) {
  // The downloader pattern: arm a timeout, cancel it when the answer lands.
  sim::Simulation s;
  for (auto _ : state) {
    auto h = s.schedule_at(s.now() + 1000.0, [] {});
    s.cancel(h);
    s.schedule_at(s.now() + 0.001, [] {});
    s.run_until(s.now() + 0.001);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerCancelChurn);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngPoissonSmallMean(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(2.2));
  }
}
BENCHMARK(BM_RngPoissonSmallMean);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 0.9);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(8000)->Arg(500000);

void BM_DiurnalFactor(benchmark::State& state) {
  const auto profile = sim::DiurnalProfile::european_2008();
  double t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.factor(t));
    t += 37.0;
  }
}
BENCHMARK(BM_DiurnalFactor);

void BM_NetworkMessageRoundtrip(benchmark::State& state) {
  // One message through the simulated transport (send + delivery event).
  sim::Simulation s;
  net::Network net(s);
  const auto a = net.add_node(true);
  const auto b = net.add_node(true);
  net::EndpointPtr client, server_side;
  std::uint64_t received = 0;
  net.listen(b, [&](net::EndpointPtr ep) {
    server_side = std::move(ep);
    server_side->on_message([&](net::Bytes) { ++received; });
  });
  net.connect(a, b, [&](net::EndpointPtr ep) { client = std::move(ep); });
  s.run();

  net::Bytes payload(64, 0xAB);
  for (auto _ : state) {
    client->send(payload);
    s.run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkMessageRoundtrip);

// Headline kernel throughput for the BENCH_*.json trajectory: 1024
// concurrent self-rescheduling chains (the keep-alive timer load of a full
// campaign), each hop costing one heap pop, one slab recycle and one
// schedule at realistic queue depth. The chain closure is a plain value
// type: with the move-only inline Action there is no shared_ptr<function>
// trampoline and no allocation per hop — the loop measures the kernel, not
// the allocator.
struct ChainHop {
  sim::Simulation* s;
  double period;
  void operator()() const { s->schedule_in(period, *this); }
};

double measure_events_per_sec() {
  using clock = std::chrono::steady_clock;
  sim::Simulation s;
  for (int i = 0; i < 1024; ++i) {
    const double period = 1.0 + static_cast<double>(i % 97);
    s.schedule_in(period, ChainHop{&s, period});
  }
  const auto start = clock::now();
  do {
    s.run_until(s.now() + 1000.0);
  } while (clock::now() - start < std::chrono::milliseconds(300));
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  return static_cast<double>(s.executed()) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // One machine-readable line for the perf trajectory (BENCH_*.json). Its
  // peak RSS is read after the headline loop, so it covers that loop.
  const double events_per_sec = measure_events_per_sec();
  edhp::bench::print_record("micro_sim",
                            {{"events_per_sec", events_per_sec, 0},
                             {"peak_rss_bytes", edhp::peak_rss_bytes()}});
  return 0;
}
