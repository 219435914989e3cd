#pragma once
// The peer population: non-homogeneous Poisson arrival of interested peers
// per advertised file, with finite pools and popularity decay.
//
// Each advertised file has a demand: a base arrival rate of newly
// interested peers, an exponential popularity decay (new releases cool
// down, producing Fig 2's declining new-peers-per-day), and a finite
// population of potentially interested peers (long measurements eventually
// saturate). Arrival intensity is modulated by the diurnal profile, giving
// Fig 4's day-night oscillation.
//
// The population is a statistical process, not a roster: a peer exists only
// as aggregate per-demand state (arrival counters) until its arrival fires,
// at which point it materializes into a recycling slab slot for the
// duration of its interaction. On completion its counters fold into the
// population's totals, its slot is recycled, and its network node is
// retired — so memory tracks the peak SIMULTANEOUS
// population, not the total number of peers a campaign ever spawns.
// Million-arrival campaigns therefore run at the footprint of their ~tens
// of thousands of concurrently active peers.
//
// The slab keeps the owning Peer pointers (cold) apart from the per-slot
// scalars the reclaim/accounting paths touch (generation, free-list link —
// hot, struct-of-arrays), so bookkeeping scans never pull
// whole Peer objects through the cache.

#include <memory>
#include <unordered_map>
#include <vector>

#include "peer/downloader.hpp"

namespace edhp::peer {

/// Demand for one file.
struct FileDemand {
  FileId file;
  double base_rate_per_day = 0;  ///< new interested peers per day at t=0
  double decay_per_day = 0;      ///< exponential decay rate of the rate
  std::uint64_t population = 0;  ///< finite pool of interested peers
  /// Discovery ramp: interested peers only notice a fresh advertisement as
  /// their periodic source queries come around, so the arrival rate climbs
  /// linearly from 0 to full over this span (0 = instantaneous).
  Duration ramp_up = 0;
};

/// Storage strategy for live peers. Both modes consume the RNG stream in
/// exactly the same order and schedule identical events, so a campaign's
/// dataset is bit-for-bit independent of the mode (tested on the golden
/// fingerprints); they differ only in memory behaviour.
enum class PopulationMode : std::uint8_t {
  /// Recycling slab + SoA bookkeeping; finished peers retire their network
  /// node. Constant memory in total arrivals. The default.
  lazy,
  /// The historical path: an id-keyed map of live peers, nodes never
  /// retired. Memory grows with total arrivals; kept as the determinism
  /// baseline the lazy path is tested against.
  legacy_eager,
};

class Population {
 public:
  /// `ctx` holds non-owning pointers that must outlive the Population.
  Population(PeerContext ctx, Rng rng,
             PopulationMode mode = PopulationMode::lazy);
  ~Population();

  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  void add_demand(FileDemand demand);

  /// Begin arrival processes (call after honeypots advertise, so that
  /// GET-SOURCES finds providers).
  void start();
  /// Stop new arrivals (running peers finish naturally). Pending arrival
  /// events are cancelled in O(1), so a stopped Population leaves nothing
  /// in the event queue.
  void stop();

  [[nodiscard]] PopulationMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] std::uint64_t active() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t finished() const noexcept { return finished_; }
  /// High-water mark of simultaneously live peers.
  [[nodiscard]] std::uint64_t peak_active() const noexcept {
    return peak_live_;
  }
  /// Slots ever allocated by the lazy slab (its structural memory bound);
  /// 0 in legacy_eager mode.
  [[nodiscard]] std::size_t slab_capacity() const noexcept {
    return slot_peer_.size();
  }

  /// Aggregate behaviour counters (finished peers plus live ones).
  [[nodiscard]] PeerStats totals() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Demand {
    FileDemand cfg;
    Time added_at = 0;  ///< when the demand was registered (ramp anchor)
    std::uint64_t spawned = 0;
    sim::EventHandle arrival{};  ///< next pending arrival candidate
  };

  void schedule_arrival(std::size_t demand_index);
  void spawn(std::size_t demand_index);
  /// Fold a finished slab peer back into the aggregates and release its
  /// slot + network node. Generation-checked: stale events are no-ops.
  void reclaim(std::uint32_t slot, std::uint32_t generation);
  void reclaim_legacy(std::uint64_t id);
  [[nodiscard]] std::uint32_t acquire_slot();
  [[nodiscard]] double rate_at(const Demand& d, Time t) const;
  [[nodiscard]] std::vector<FileId> sample_secondary(Rng& rng,
                                                     std::size_t primary_index);

  PeerContext ctx_;
  Rng rng_;
  PopulationMode mode_;
  std::vector<Demand> demands_;
  std::vector<double> demand_cumulative_;  ///< prefix sums of demand rates

  // Lazy slab. slot_peer_ owns the materialized peers (cold); the parallel
  // vectors are the hot per-slot scalars (SoA). Freed slots chain through
  // slot_next_free_.
  std::vector<std::unique_ptr<Peer>> slot_peer_;
  std::vector<std::uint32_t> slot_gen_;
  std::vector<std::uint32_t> slot_next_free_;
  std::uint32_t free_head_ = kNoSlot;

  // legacy_eager storage.
  std::unordered_map<std::uint64_t, std::unique_ptr<Peer>> peers_;

  std::uint64_t next_id_ = 1;
  std::uint64_t arrivals_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t peak_live_ = 0;
  std::uint64_t finished_ = 0;
  PeerStats finished_totals_;
  double diurnal_max_ = 1.0;
  bool running_ = false;
};

}  // namespace edhp::peer
