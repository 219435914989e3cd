// Population engine: arrival rates, decay, finite pools, diurnal
// modulation, peer reclamation, and peer exchange.

#include <gtest/gtest.h>

#include "honeypot/honeypot.hpp"
#include "peer/population.hpp"
#include "peer/source_cache.hpp"
#include "server/server.hpp"

namespace edhp::peer {
namespace {

class PopulationTest : public ::testing::Test {
 protected:
  // run() would never return while honeypot keep-alive timers are armed;
  // settle() drains a bounded window instead.
  void settle(double span = 180.0) { s.run_until(s.now() + span); }

  sim::Simulation s{31};
  net::Network net{s};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  sim::DiurnalProfile diurnal = sim::DiurnalProfile::flat();
  FileCatalog catalog{CatalogParams{200, 0.9, 0.05}, Rng(1)};
  BehaviorParams params;
  SharedBlacklist blacklist{1e-4};
  SourceCache cache;
  FileId file = FileId::from_words(0xF, 0xF);
  std::unique_ptr<honeypot::Honeypot> pot;

  void SetUp() override {
    server.start();
    params.sessions_mean = 1;          // single-session peers: fast tests
    params.session_gap_mean = hours(1);
    params.detect_after_timeouts = 1;
    params.timeouts_per_session = 1;
    params.request_timeout = 10;
    params.pex_prob = 0.0;

    honeypot::HoneypotConfig c;
    c.name = "hp";
    pot = std::make_unique<honeypot::Honeypot>(net, net.add_node(true), c);
    pot->connect_to_server(honeypot::ServerRef{server_node, "srv", 4661});
    settle();
    pot->advertise({honeypot::AdvertisedFile{file, "bait.avi", 1}});
    settle();
  }

  PeerContext context() {
    PeerContext ctx;
    ctx.net = &net;
    ctx.server_node = server_node;
    ctx.blacklist = &blacklist;
    ctx.catalog = &catalog;
    ctx.params = &params;
    ctx.diurnal = &diurnal;
    ctx.source_cache = &cache;
    return ctx;
  }
};

TEST_F(PopulationTest, ArrivalRateMatchesDemand) {
  Population pop(context(), Rng(2));
  pop.add_demand(FileDemand{file, /*rate=*/480, /*decay=*/0, /*pool=*/100000});
  pop.start();
  s.run_until(days(2));
  // Poisson with mean 960: within 15%.
  EXPECT_NEAR(static_cast<double>(pop.arrivals()), 960.0, 145.0);
}

TEST_F(PopulationTest, FinitePoolSaturates) {
  Population pop(context(), Rng(3));
  pop.add_demand(FileDemand{file, 1000, 0, /*pool=*/50});
  pop.start();
  s.run_until(days(3));
  EXPECT_EQ(pop.arrivals(), 50u);
}

TEST_F(PopulationTest, DecayReducesLaterArrivals) {
  Population pop(context(), Rng(4));
  pop.add_demand(FileDemand{file, 400, /*decay=*/1.5, 100000});
  pop.start();
  s.run_until(days(1));
  const auto day1 = pop.arrivals();
  s.run_until(days(4));
  const auto later = pop.arrivals() - day1;
  // With decay 1.5/day, day 1 expects ~207 arrivals and days 2-4 together
  // ~59, a gap of many Poisson standard deviations; decay 0.7 put the two
  // windows less than 2 sigma apart and flipped on minor clock shifts.
  EXPECT_LT(later, day1);
  EXPECT_GT(day1, 0u);
}

TEST_F(PopulationTest, PeersAreReclaimedAfterFinishing) {
  Population pop(context(), Rng(5));
  pop.add_demand(FileDemand{file, 200, 0, 200});
  pop.start();
  s.run_until(days(8));
  EXPECT_EQ(pop.arrivals(), 200u);
  EXPECT_EQ(pop.finished() + pop.active(), pop.arrivals());
  // Nearly everyone is done long after the pool exhausted.
  EXPECT_GT(pop.finished(), 150u);
}

TEST_F(PopulationTest, StopHaltsNewArrivals) {
  Population pop(context(), Rng(6));
  pop.add_demand(FileDemand{file, 1000, 0, 100000});
  pop.start();
  s.run_until(hours(6));
  pop.stop();
  const auto frozen = pop.arrivals();
  EXPECT_GT(frozen, 0u);
  s.run_until(days(2));
  EXPECT_EQ(pop.arrivals(), frozen);
}

TEST_F(PopulationTest, TotalsAggregateBehaviour) {
  Population pop(context(), Rng(7));
  pop.add_demand(FileDemand{file, 100, 0, 100});
  pop.start();
  s.run_until(days(4));
  const auto totals = pop.totals();
  EXPECT_GT(totals.sessions, 0u);
  EXPECT_GT(totals.hellos_sent, 0u);
  // The honeypot logged what the peers sent.
  std::uint64_t hp_hellos = 0;
  for (const auto& r : pot->log().records) {
    if (r.type == logbook::QueryType::hello) ++hp_hellos;
  }
  EXPECT_EQ(hp_hellos, totals.hellos_sent);
}

TEST_F(PopulationTest, DemandAddedWhileRunningTakesEffect) {
  Population pop(context(), Rng(8));
  pop.start();
  s.run_until(hours(2));
  EXPECT_EQ(pop.arrivals(), 0u);
  pop.add_demand(FileDemand{file, 600, 0, 100000});
  s.run_until(hours(26));
  EXPECT_GT(pop.arrivals(), 300u);
}

TEST_F(PopulationTest, DiurnalModulatesArrivalTimes) {
  diurnal = sim::DiurnalProfile::european_2008();
  Population pop(context(), Rng(9));
  pop.add_demand(FileDemand{file, 2000, 0, 1000000});
  pop.start();
  // Count arrivals in afternoon vs night windows over 4 days.
  std::uint64_t last = 0, day_arrivals = 0, night_arrivals = 0;
  for (double t = 0; t < days(4); t += kHour) {
    s.run_until(t + kHour);
    const auto now_count = pop.arrivals();
    const double hod = hour_of_day(t + kHour / 2);
    if (hod >= 13 && hod < 20) {
      day_arrivals += now_count - last;
    } else if (hod >= 1 && hod < 6) {
      night_arrivals += now_count - last;
    }
    last = now_count;
  }
  EXPECT_GT(day_arrivals, 2 * night_arrivals);
}

TEST_F(PopulationTest, ExhaustedPoolSchedulesNoFurtherArrivalCandidates) {
  Population pop(context(), Rng(11));
  pop.add_demand(FileDemand{file, 2000, 0, /*pool=*/10});
  pop.start();
  s.run_until(days(2));
  ASSERT_EQ(pop.arrivals(), 10u);
  ASSERT_EQ(pop.finished(), 10u);
  // The arrival process must have shut itself off at the pool boundary, not
  // keep drawing rejected candidates: an idle week of simulation executes
  // only the honeypot's periodic keep-alive machinery, whose event count is
  // far below the ~28k candidates a still-armed 2000/day thinning loop at
  // diurnal max would burn.
  const auto before = s.executed();
  s.run_until(days(9));
  EXPECT_LT(s.executed() - before, 4000u);
}

TEST_F(PopulationTest, RampUpSuppressesEarlyArrivals) {
  Population pop(context(), Rng(12));
  FileDemand d{file, 1200, 0, 1000000};
  d.ramp_up = days(1);
  pop.add_demand(d);
  pop.start();
  // At t=0 the instantaneous rate is exactly 0 and climbs linearly: the
  // first 2h window expects ~4 accepted arrivals, the same window after the
  // ramp expects ~100.
  s.run_until(hours(2));
  const auto early = pop.arrivals();
  s.run_until(days(1));
  const auto at_ramp = pop.arrivals();
  s.run_until(days(1) + hours(2));
  const auto post_ramp = pop.arrivals() - at_ramp;
  EXPECT_LT(early, 20u);
  EXPECT_GT(post_ramp, 5 * std::max<std::uint64_t>(early, 1));
}

TEST_F(PopulationTest, StopThenRestartResumesCleanly) {
  Population pop(context(), Rng(13));
  pop.add_demand(FileDemand{file, 1000, 0, 100000});
  pop.start();
  s.run_until(hours(6));
  pop.stop();
  const auto frozen = pop.arrivals();
  EXPECT_GT(frozen, 0u);
  s.run_until(hours(30));
  ASSERT_EQ(pop.arrivals(), frozen);
  // start() after stop() re-arms every demand; stale handles from the
  // stopped phase must not fire or double-schedule.
  pop.start();
  s.run_until(hours(54));
  EXPECT_GT(pop.arrivals(), frozen + 100);
  pop.stop();
  const auto frozen2 = pop.arrivals();
  s.run_until(hours(78));
  EXPECT_EQ(pop.arrivals(), frozen2);
}

TEST_F(PopulationTest, LazySlabRecyclesSlotsAndRetiresNodes) {
  Population pop(context(), Rng(14));
  ASSERT_EQ(pop.mode(), PopulationMode::lazy);
  pop.add_demand(FileDemand{file, 300, 0, 300});
  pop.start();
  s.run_until(days(6));
  ASSERT_EQ(pop.arrivals(), 300u);
  ASSERT_GT(pop.finished(), 250u);
  // Memory tracks peak concurrency, not total arrivals: slots recycle...
  EXPECT_EQ(pop.slab_capacity(), pop.peak_active());
  EXPECT_LT(pop.slab_capacity(), pop.arrivals() / 2);
  // ...and every finished peer released its network node.
  EXPECT_EQ(net.nodes_retired(), pop.finished());
  EXPECT_LT(net.live_node_count(), net.node_count());
}

TEST_F(PopulationTest, LegacyEagerModeKeepsEveryPeerMaterialized) {
  Population pop(context(), Rng(15), PopulationMode::legacy_eager);
  pop.add_demand(FileDemand{file, 200, 0, 100});
  pop.start();
  s.run_until(days(4));
  ASSERT_EQ(pop.arrivals(), 100u);
  EXPECT_EQ(pop.slab_capacity(), 0u);  // the slab never engaged
  EXPECT_EQ(net.nodes_retired(), 0u);  // nodes live forever
  EXPECT_GT(pop.finished(), 50u);
  EXPECT_GT(pop.totals().sessions, 0u);
}

TEST_F(PopulationTest, PexPeersSkipTheServer) {
  params.pex_prob = 1.0;  // everyone tries PEX first
  Population pop(context(), Rng(10));
  pop.add_demand(FileDemand{file, 400, 0, 100000});
  pop.start();
  s.run_until(days(1));
  // The cache starts empty, so the first peers hit the server and seed it;
  // once seeded, PEX peers bypass the server entirely.
  const auto logins = server.counters().logins;
  EXPECT_GT(pop.arrivals(), 100u);
  EXPECT_LT(logins, pop.arrivals() / 2)
      << "most peers should have used peer exchange";
  EXPECT_GT(cache.files_known(), 0u);
  // ...and the honeypot still observed them (HELLOs from PEX peers).
  std::uint64_t hellos = 0;
  for (const auto& r : pot->log().records) {
    if (r.type == logbook::QueryType::hello) ++hellos;
  }
  EXPECT_GT(hellos, logins);
}

}  // namespace
}  // namespace edhp::peer
