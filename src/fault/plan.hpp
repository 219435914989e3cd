#pragma once
// The adversary plan the fault, abuse and Byzantine axes share.
//
// Each axis is a seeded schedule generated before the run: a pure function
// of (config, rng) whose classes and subjects draw from their own split()
// sub-streams (registry: fault/rng_splits.hpp), so adding a class or a
// subject never shifts another's draws. An axis keeps only its recipe —
// which classes exist, on which splits, in which order — and its injector's
// `apply` switch. Everything else lives here:
//
//   Event<Kind>, Plan<Kind>   one scheduled event; a schedule stably sorted
//                             by time (simultaneous events keep the order
//                             the recipe appended them in);
//   renewal_windows           alternating begin/end windows (outages, lie
//                             windows, resource episodes);
//   arrivals                  instantaneous episodes of a Poisson process;
//   per_subject               one split stream per subject of a class;
//   arm_plan                  schedules a plan on the engine;
//   HostilePool, dial,        the firewalled nodes the hostile injectors
//   handshake                 (abuse, Byzantine liars) attack from, their
//                             counted connects and name-and-version
//                             HELLO/LOGIN.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace edhp::fault {

/// Minimum width of any window: a zero-length one would make begin and end
/// tie and the observable effect depend on scheduling order instead of the
/// plan.
inline constexpr Duration kMinWindow = 1.0;

/// One scheduled event. Each axis documents what `subject` indexes and what
/// `magnitude` means for its kinds; it is 1.0 where a kind has no use for it.
template <class Kind>
struct Event {
  Time at = 0;
  Kind kind{};
  std::uint32_t subject = 0;
  double magnitude = 1.0;

  bool operator==(const Event&) const = default;
};

/// A pre-generated schedule, sorted by time. Pure data: generating one never
/// touches a simulation.
template <class Kind>
class Plan {
 public:
  Plan() = default;

  /// Events stably sorted by time: ties keep the order given.
  explicit Plan(std::vector<Event<Kind>> events) : events_(std::move(events)) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event<Kind>& a, const Event<Kind>& b) {
                       return a.at < b.at;
                     });
  }

  [[nodiscard]] const std::vector<Event<Kind>>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

 private:
  std::vector<Event<Kind>> events_;
};

/// Whether a plan can be drawn up to `horizon`: it is positive and finite.
/// renewal_windows and arrivals stop only at `t >= horizon`, which never
/// holds for NaN or +inf, so every make_plan returns an empty plan for any
/// other horizon.
[[nodiscard]] inline bool drawable_horizon(Duration horizon) noexcept {
  return horizon > 0 && std::isfinite(horizon);
}

/// Append the alternating begin/end windows of one renewal process drawn
/// from `rng`: gaps ~ Exp(mtbf), windows ~ Exp(mean) clamped to kMinWindow.
/// Nothing lands at or past `horizon`; a window crossing it emits no end.
/// An `mtbf` that is not positive (zero, negative or NaN) draws nothing.
template <class Kind>
void renewal_windows(std::vector<Event<Kind>>& out, Rng& rng, Duration mtbf,
                     Duration mean, Duration horizon, Kind begin, Kind end,
                     std::uint32_t subject, double magnitude = 1.0) {
  if (!(mtbf > 0)) return;
  Time t = 0;
  while (true) {
    t += rng.exponential(mtbf);
    if (t >= horizon) return;
    out.push_back({t, begin, subject, magnitude});
    const Duration window = std::max(kMinWindow, rng.exponential(mean));
    if (t + window < horizon) {
      out.push_back({t + window, end, subject, magnitude});
    }
    t += window;
  }
}

/// Append one `kind` event per arrival of a Poisson process with mean gap
/// `mean` drawn from `rng`, up to `horizon`; each event's magnitude is
/// `magnitude(rng)`, drawn after its arrival time. A `mean` that is not
/// positive (zero, negative or NaN) draws nothing.
template <class Kind, class Magnitude = double (*)(Rng&)>
void arrivals(std::vector<Event<Kind>>& out, Rng& rng, Duration mean,
              Duration horizon, Kind kind, std::uint32_t subject,
              Magnitude magnitude = [](Rng&) { return 1.0; }) {
  if (!(mean > 0)) return;
  Time t = 0;
  while (true) {
    t += rng.exponential(mean);
    if (t >= horizon) return;
    out.push_back({t, kind, subject, magnitude(rng)});
  }
}

/// Call `draw(stream, subject)` for subjects 0..subjects-1, subject s on
/// `class_rng.split(s)`: within one class the subjects are independent.
template <class Draw>
void per_subject(const Rng& class_rng, std::size_t subjects, Draw draw) {
  for (std::size_t s = 0; s < subjects; ++s) {
    Rng r = class_rng.split(s);
    draw(r, static_cast<std::uint32_t>(s));
  }
}

/// Schedule `fire(i)` for every event i of `plan` at its time. Events whose
/// time has already passed fire at the current instant, in plan order,
/// ahead of the later ones.
template <class Kind, class Fire>
void arm_plan(sim::Simulation& simulation, const Plan<Kind>& plan, Fire fire) {
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Time at = std::max(plan.events()[i].at, simulation.now());
    simulation.schedule_at(at, [fire, i] { fire(i); });
  }
}

/// The hostile nodes an injector attacks from, one pool per attack class.
/// They are firewalled (LowID): they dial out but never accept. Created in
/// class order, at least one per class, so the IP layout is a pure function
/// of the legit topology plus the pool shape — and since node creation
/// shifts every later IP assignment (see Network::add_node), a pool is built
/// only when its axis is on.
class HostilePool {
 public:
  HostilePool() = default;
  HostilePool(net::Network& network, std::size_t classes,
              std::size_t per_class);

  /// The node of class `cls` that attacks `subject`; subjects round-robin
  /// over the class's pool.
  [[nodiscard]] net::NodeId node(std::size_t cls,
                                 std::uint32_t subject) const {
    return nodes_[cls * per_class_ + subject % per_class_];
  }

 private:
  std::size_t per_class_ = 1;
  std::vector<net::NodeId> nodes_;
};

/// Connect hostile node `from` to `to`, counting the outcome in `stats`
/// (`connections_opened` or `connects_refused`). An opened endpoint goes to
/// `on_open`; a refusal runs `on_refused` after it is counted.
template <class Stats, class OnOpen, class OnRefused = void (*)()>
void dial(net::Network& network, net::NodeId from, net::NodeId to,
          Stats& stats, OnOpen on_open, OnRefused on_refused = [] {}) {
  network.connect(from, to,
                  [&stats, on_open = std::move(on_open),
                   on_refused](net::EndpointPtr ep) mutable {
                    if (!ep) {
                      ++stats.connects_refused;
                      on_refused();
                      return;
                    }
                    ++stats.connections_opened;
                    on_open(std::move(ep));
                  });
}

/// The wire bytes of a hostile peer's handshake: LOGIN to a server, HELLO
/// to a client, carrying only a client name and version tag on port 4662.
[[nodiscard]] net::Bytes handshake(bool to_server, UserId user,
                                   std::string name);

}  // namespace edhp::fault
