#include "peer/population.hpp"

#include <algorithm>
#include <cmath>

namespace edhp::peer {
namespace {

void fold(PeerStats& into, const PeerStats& s) {
  into.sessions += s.sessions;
  into.hellos_sent += s.hellos_sent;
  into.start_uploads_sent += s.start_uploads_sent;
  into.request_parts_sent += s.request_parts_sent;
  into.parts_completed += s.parts_completed;
  into.detections += s.detections;
  into.connect_failures += s.connect_failures;
}

}  // namespace

Population::Population(PeerContext ctx, Rng rng, PopulationMode mode)
    : ctx_(ctx), rng_(rng), mode_(mode) {
  // Bound of the diurnal factor for thinning, scanned over one week.
  for (double t = 0; t < kWeek; t += kMinute * 10) {
    diurnal_max_ = std::max(diurnal_max_, ctx_.diurnal->factor(t));
  }
}

Population::~Population() = default;

void Population::add_demand(FileDemand demand) {
  demands_.push_back(Demand{demand, ctx_.net->simulation().now(), 0, {}});
  const double prev =
      demand_cumulative_.empty() ? 0.0 : demand_cumulative_.back();
  demand_cumulative_.push_back(prev +
                               std::max(0.0, demand.base_rate_per_day));
  if (running_) {
    schedule_arrival(demands_.size() - 1);
  }
}

std::vector<FileId> Population::sample_secondary(Rng& rng,
                                                 std::size_t primary_index) {
  std::vector<FileId> out;
  const double mean = ctx_.params->secondary_targets_mean;
  if (demands_.size() < 2 || mean <= 0 || demand_cumulative_.back() <= 0) {
    return out;
  }
  const auto want = rng.poisson(mean);
  if (want == 0) return out;
  // Weighted sampling (with replacement + dedup) by demand rate via binary
  // search in the prefix sums; a few collisions are fine — real download
  // lists are weighted the same way popularity is.
  const double total = demand_cumulative_.back();
  for (std::uint64_t attempt = 0; attempt < want * 2 && out.size() < want;
       ++attempt) {
    const double u = rng.uniform() * total;
    const auto it = std::upper_bound(demand_cumulative_.begin(),
                                     demand_cumulative_.end(), u);
    const auto idx = static_cast<std::size_t>(
        std::distance(demand_cumulative_.begin(), it));
    if (idx >= demands_.size() || idx == primary_index) continue;
    const auto& file = demands_[idx].cfg.file;
    if (std::find(out.begin(), out.end(), file) == out.end()) {
      out.push_back(file);
    }
  }
  return out;
}

void Population::start() {
  if (running_) return;
  running_ = true;
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    schedule_arrival(i);
  }
}

void Population::stop() {
  running_ = false;
  // Drop the pending arrival candidates; cancel() is generation-checked, so
  // handles to arrivals that already fired are harmless no-ops.
  for (auto& d : demands_) {
    ctx_.net->simulation().cancel(d.arrival);
    d.arrival = sim::EventHandle{};
  }
}

double Population::rate_at(const Demand& d, Time t) const {
  const double age = t - d.added_at;
  const double ramp =
      d.cfg.ramp_up > 0 ? std::clamp(age / d.cfg.ramp_up, 0.0, 1.0) : 1.0;
  const double decay = std::exp(-d.cfg.decay_per_day * (age / kDay));
  return (d.cfg.base_rate_per_day / kDay) * ramp * decay *
         ctx_.diurnal->factor(t);
}

void Population::schedule_arrival(std::size_t demand_index) {
  Demand& d = demands_[demand_index];
  if (!running_ || d.spawned >= d.cfg.population) return;

  // Thinning: draw candidates at the max rate, accept with the ratio of the
  // true instantaneous rate.
  const double max_rate = (d.cfg.base_rate_per_day / kDay) * diurnal_max_;
  if (max_rate <= 0) return;
  const Duration dt = rng_.exponential(1.0 / max_rate);
  d.arrival = ctx_.net->simulation().schedule_in(dt, [this, demand_index,
                                                      max_rate] {
    Demand& dd = demands_[demand_index];
    if (!running_ || dd.spawned >= dd.cfg.population) return;
    const Time now = ctx_.net->simulation().now();
    if (rng_.chance(rate_at(dd, now) / max_rate)) {
      spawn(demand_index);
    }
    schedule_arrival(demand_index);
  });
}

std::uint32_t Population::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slot_next_free_[slot];
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slot_peer_.size());
  slot_peer_.emplace_back();
  slot_gen_.push_back(0);
  slot_next_free_.push_back(kNoSlot);
  return slot;
}

void Population::spawn(std::size_t demand_index) {
  Demand& d = demands_[demand_index];
  ++d.spawned;
  ++arrivals_;

  // The RNG draw order below (profile, then node, then id, then secondary
  // targets, then the peer's own stream) is identical in both modes; so is
  // the single reclaim event each finished peer schedules. Mode selection
  // therefore cannot shift a single draw or event of a campaign.
  Rng peer_rng = rng_.split(arrivals_);
  PeerProfile profile = sample_profile(peer_rng, *ctx_.params, *ctx_.diurnal);
  const auto node = ctx_.net->add_node(profile.reachable, profile.tz_offset_hours,
                                       profile.upload_bps);

  const std::uint64_t id = next_id_++;
  auto secondary = sample_secondary(peer_rng, demand_index);

  if (mode_ == PopulationMode::legacy_eager) {
    auto peer = std::make_unique<Peer>(
        ctx_, node, std::move(profile), d.cfg.file, peer_rng.split(1),
        [this, id] {
          // Reclaim on the next step: the peer may still be on the call stack.
          ctx_.net->simulation().schedule_in(0.0,
                                             [this, id] { reclaim_legacy(id); });
        },
        std::move(secondary));
    Peer& ref = *peer;
    peers_.emplace(id, std::move(peer));
    ++live_;
    peak_live_ = std::max(peak_live_, live_);
    ref.start();
    return;
  }

  const std::uint32_t slot = acquire_slot();
  const std::uint32_t generation = slot_gen_[slot];
  auto peer = std::make_unique<Peer>(
      ctx_, node, std::move(profile), d.cfg.file, peer_rng.split(1),
      [this, slot, generation] {
        // Reclaim on the next step: the peer may still be on the call stack.
        ctx_.net->simulation().schedule_in(
            0.0, [this, slot, generation] { reclaim(slot, generation); });
      },
      std::move(secondary));
  Peer& ref = *peer;
  slot_peer_[slot] = std::move(peer);
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  ref.start();
}

void Population::reclaim(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slot_gen_.size() || slot_gen_[slot] != generation ||
      slot_peer_[slot] == nullptr) {
    return;
  }
  const Peer& peer = *slot_peer_[slot];
  fold(finished_totals_, peer.stats());
  const auto node = peer.node();
  // ~Peer closes every endpoint, nothing ever connects TO a peer node, and
  // peer IPs appear in no provider list — so the node's network state can
  // be released the moment the object goes.
  slot_peer_[slot].reset();
  ctx_.net->retire_node(node);
  ++slot_gen_[slot];  // outstanding reclaim handles to this slot go stale
  slot_next_free_[slot] = free_head_;
  free_head_ = slot;
  --live_;
  ++finished_;
}

void Population::reclaim_legacy(std::uint64_t id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  fold(finished_totals_, it->second->stats());
  peers_.erase(it);
  --live_;
  ++finished_;
}

PeerStats Population::totals() const {
  PeerStats out = finished_totals_;
  for (const auto& p : slot_peer_) {
    if (p) fold(out, p->stats());
  }
  for (const auto& [id, p] : peers_) {
    fold(out, p->stats());
  }
  return out;
}

}  // namespace edhp::peer
