#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace edhp::fault {
namespace {

// Mean episode lengths of the measurement-wide and resource-exhaustion
// classes.
constexpr Duration kLatencySpikeMean = minutes(5);
constexpr Duration kPartitionMean = minutes(15);
constexpr Duration kDiskFullMean = hours(1);
constexpr Duration kDiskSlowMean = minutes(30);
constexpr Duration kMemPressureMean = minutes(20);

}  // namespace

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::host_crash: return "host_crash";
    case FaultKind::host_reboot: return "host_reboot";
    case FaultKind::uplink_down: return "uplink_down";
    case FaultKind::uplink_up: return "uplink_up";
    case FaultKind::server_down: return "server_down";
    case FaultKind::server_up: return "server_up";
    case FaultKind::latency_spike_begin: return "latency_spike_begin";
    case FaultKind::latency_spike_end: return "latency_spike_end";
    case FaultKind::partition_begin: return "partition_begin";
    case FaultKind::partition_heal: return "partition_heal";
    case FaultKind::manager_crash: return "manager_crash";
    case FaultKind::manager_recover: return "manager_recover";
    case FaultKind::disk_full_begin: return "disk_full_begin";
    case FaultKind::disk_full_end: return "disk_full_end";
    case FaultKind::disk_slow_begin: return "disk_slow_begin";
    case FaultKind::disk_slow_end: return "disk_slow_end";
    case FaultKind::mem_pressure_begin: return "mem_pressure_begin";
    case FaultKind::mem_pressure_end: return "mem_pressure_end";
    case FaultKind::clock_drift: return "clock_drift";
    case FaultKind::clock_step: return "clock_step";
    case FaultKind::clock_freeze_begin: return "clock_freeze_begin";
    case FaultKind::clock_freeze_end: return "clock_freeze_end";
  }
  return "unknown";
}

FaultPlan make_plan(const ChaosConfig& config, std::size_t hosts,
                    std::size_t servers, Duration horizon, Rng rng) {
  if (!config.enabled || !drawable_horizon(horizon)) return {};
  std::vector<FaultEvent> out;

  // Each (category, subject) pair draws from its own split stream (registry:
  // fault/rng_splits.hpp), so e.g. adding uplink churn cannot shift the
  // host-crash schedule. Categories append in a fixed order, which the
  // plan's stable sort keeps for simultaneous events.
  const auto windows = [&](std::uint64_t split, std::size_t subjects,
                           Duration mtbf, Duration mean, FaultKind begin,
                           FaultKind end, double magnitude) {
    per_subject(rng.split(split), subjects, [&](Rng& r, std::uint32_t s) {
      renewal_windows(out, r, mtbf, mean, horizon, begin, end, s, magnitude);
    });
  };
  windows(splits::kFaultHost, hosts, config.host_mtbf, config.host_reboot_mean,
          FaultKind::host_crash, FaultKind::host_reboot, 1.0);
  windows(splits::kFaultUplink, hosts, config.uplink_mtbf,
          config.uplink_outage_mean, FaultKind::uplink_down,
          FaultKind::uplink_up, 1.0);
  windows(splits::kFaultServer, servers, config.server_mtbf,
          config.server_restart_mean, FaultKind::server_down,
          FaultKind::server_up, 1.0);
  {
    Rng r = rng.split(splits::kFaultLatency);
    renewal_windows(out, r, config.latency_spike_mtbf,
                    kLatencySpikeMean, horizon,
                    FaultKind::latency_spike_begin,
                    FaultKind::latency_spike_end, 0,
                    config.latency_spike_factor);
  }
  if (config.partition_mtbf > 0 && hosts > 0) {
    // Partition episodes isolate a fresh random subset of hosts each time;
    // begin/heal events are emitted per host so the Injector needs no
    // episode memory.
    Rng r = rng.split(splits::kFaultPartition);
    Time t = 0;
    while (true) {
      t += r.exponential(config.partition_mtbf);
      if (t >= horizon) break;
      const Duration window = std::max(kMinWindow, r.exponential(kPartitionMean));
      const auto k = std::clamp<std::size_t>(
          static_cast<std::size_t>(
              std::llround(config.partition_fraction *
                           static_cast<double>(hosts))),
          1, hosts);
      for (const auto h : r.sample_indices(hosts, k)) {
        out.push_back({t, FaultKind::partition_begin,
                       static_cast<std::uint32_t>(h), 1.0});
        if (t + window < horizon) {
          out.push_back({t + window, FaultKind::partition_heal,
                         static_cast<std::uint32_t>(h), 1.0});
        }
      }
      t += window;
    }
  }

  {
    // The control plane is a single subject. Recover events are generated
    // even when recovery is disabled at scenario level (the binding is
    // simply left unset), so toggling `manager_recovery` cannot perturb
    // this — or, via stream splitting, any other — fault schedule.
    Rng r = rng.split(splits::kFaultManager);
    renewal_windows(out, r, config.manager_mtbf, config.manager_outage_mean,
                    horizon, FaultKind::manager_crash,
                    FaultKind::manager_recover, 0);
  }

  // Resource-exhaustion classes on fresh splits (7/8/9): enabling any of
  // them leaves every schedule above bit-identical.
  windows(splits::kFaultDiskFull, hosts, config.disk_full_mtbf,
          kDiskFullMean, FaultKind::disk_full_begin,
          FaultKind::disk_full_end, config.disk_full_fraction);
  windows(splits::kFaultDiskSlow, hosts, config.disk_slow_mtbf,
          kDiskSlowMean, FaultKind::disk_slow_begin,
          FaultKind::disk_slow_end, config.disk_slow_factor);
  windows(splits::kFaultMemPressure, hosts, config.mem_pressure_mtbf,
          kMemPressureMean, FaultKind::mem_pressure_begin,
          FaultKind::mem_pressure_end, config.mem_pressure_fraction);

  // Clock-fault classes on fresh splits (10/11/12): enabling virtual time
  // leaves every schedule above bit-identical, and the events themselves
  // only ever touch ClockModels — record content other than timestamps is
  // invariant under them.
  const auto drift = [&config](Rng& r) {
    return r.uniform(-config.clock_drift_ppm, config.clock_drift_ppm);
  };
  if (config.clock_drift_mtbf > 0) {
    per_subject(rng.split(splits::kFaultClockDrift), hosts,
                [&](Rng& r, std::uint32_t h) {
                  // An initial rate at t=0 models the oscillator's inherent
                  // skew; re-draws at MTBF cadence model temperature/load
                  // episodes.
                  out.push_back({0, FaultKind::clock_drift, h, drift(r)});
                  arrivals(out, r, config.clock_drift_mtbf, horizon,
                           FaultKind::clock_drift, h, drift);
                });
  }
  const auto step = [&config](Rng& r) {
    return r.uniform(-config.clock_step_max, config.clock_step_max);
  };
  per_subject(rng.split(splits::kFaultClockStep), hosts,
              [&](Rng& r, std::uint32_t h) {
                arrivals(out, r, config.clock_step_mtbf, horizon,
                         FaultKind::clock_step, h, step);
              });
  windows(splits::kFaultClockFreeze, hosts, config.clock_freeze_mtbf,
          config.clock_freeze_mean, FaultKind::clock_freeze_begin,
          FaultKind::clock_freeze_end, 1.0);
  return FaultPlan(std::move(out));
}

Injector::Injector(net::Network& network, FaultPlan plan, Bindings bindings)
    : net_(network), plan_(std::move(plan)), bind_(std::move(bindings)) {
  if (!plan_.empty() && !bind_.host_node) {
    throw std::invalid_argument("fault::Injector: host_node binding required");
  }
}

void Injector::arm() {
  arm_plan(net_.simulation(), plan_,
           [this](std::size_t i) { apply(plan_.events()[i]); });
}

void Injector::apply(const FaultEvent& event) {
  const auto subject = static_cast<std::size_t>(event.subject);
  switch (event.kind) {
    case FaultKind::host_crash: {
      const auto node = bind_.host_node(subject);
      net_.set_node_up(node, false);
      stats_.connections_aborted += net_.abort_connections(node);
      if (bind_.crash_host) bind_.crash_host(subject);
      ++stats_.host_crashes;
      break;
    }
    case FaultKind::host_reboot: {
      net_.set_node_up(bind_.host_node(subject), true);
      ++stats_.host_reboots;
      break;
    }
    case FaultKind::uplink_down: {
      const auto node = bind_.host_node(subject);
      net_.set_node_up(node, false);
      stats_.connections_aborted += net_.abort_connections(node);
      ++stats_.uplink_outages;
      break;
    }
    case FaultKind::uplink_up: {
      net_.set_node_up(bind_.host_node(subject), true);
      break;
    }
    case FaultKind::server_down: {
      if (bind_.stop_server) bind_.stop_server(subject);
      ++stats_.server_restarts;
      break;
    }
    case FaultKind::server_up: {
      if (bind_.start_server) bind_.start_server(subject);
      break;
    }
    case FaultKind::latency_spike_begin: {
      for (std::size_t h = 0; h < bind_.host_count; ++h) {
        net_.set_latency_factor(bind_.host_node(h), event.magnitude);
      }
      ++stats_.latency_spikes;
      break;
    }
    case FaultKind::latency_spike_end: {
      for (std::size_t h = 0; h < bind_.host_count; ++h) {
        net_.set_latency_factor(bind_.host_node(h), 1.0);
      }
      break;
    }
    case FaultKind::partition_begin: {
      net_.set_partition(bind_.host_node(subject), 1);
      stats_.connections_aborted += net_.abort_cross_partition();
      ++stats_.partition_episodes;
      break;
    }
    case FaultKind::partition_heal: {
      net_.set_partition(bind_.host_node(subject), 0);
      break;
    }
    case FaultKind::manager_crash: {
      if (bind_.crash_manager) bind_.crash_manager();
      ++stats_.manager_crashes;
      break;
    }
    case FaultKind::manager_recover: {
      if (bind_.recover_manager) {
        bind_.recover_manager();
        ++stats_.manager_recoveries;
      }
      break;
    }
    case FaultKind::disk_full_begin: {
      if (bind_.disk_full) bind_.disk_full(subject, true, event.magnitude);
      ++stats_.disk_full_episodes;
      break;
    }
    case FaultKind::disk_full_end: {
      if (bind_.disk_full) bind_.disk_full(subject, false, event.magnitude);
      break;
    }
    case FaultKind::disk_slow_begin: {
      if (bind_.disk_slow) bind_.disk_slow(subject, true, event.magnitude);
      ++stats_.disk_slow_episodes;
      break;
    }
    case FaultKind::disk_slow_end: {
      if (bind_.disk_slow) bind_.disk_slow(subject, false, event.magnitude);
      break;
    }
    case FaultKind::mem_pressure_begin: {
      if (bind_.mem_pressure) bind_.mem_pressure(subject, true, event.magnitude);
      ++stats_.mem_pressure_episodes;
      break;
    }
    case FaultKind::mem_pressure_end: {
      if (bind_.mem_pressure) bind_.mem_pressure(subject, false, event.magnitude);
      break;
    }
    case FaultKind::clock_drift: {
      net_.clock(bind_.host_node(subject))
          .set_drift(net_.simulation().now(), event.magnitude * 1e-6);
      ++stats_.clock_drift_changes;
      break;
    }
    case FaultKind::clock_step: {
      net_.clock(bind_.host_node(subject))
          .step(net_.simulation().now(), event.magnitude);
      ++stats_.clock_steps;
      break;
    }
    case FaultKind::clock_freeze_begin: {
      net_.clock(bind_.host_node(subject)).freeze(net_.simulation().now());
      ++stats_.clock_freezes;
      break;
    }
    case FaultKind::clock_freeze_end: {
      net_.clock(bind_.host_node(subject)).thaw(net_.simulation().now());
      break;
    }
  }
}

std::unique_ptr<sim::PeriodicTimer> Injector::legacy_crash_grid(
    sim::Simulation& simulation, Duration mtbf,
    std::function<std::size_t()> fleet_size,
    std::function<void(std::size_t)> crash, Rng rng) {
  // Reproduces the historical inline loop draw-for-draw: one Bernoulli per
  // fleet member per hour, in fleet order, from the caller's stream.
  return std::make_unique<sim::PeriodicTimer>(
      simulation, hours(1),
      [mtbf, fleet_size = std::move(fleet_size), crash = std::move(crash),
       rng]() mutable {
        for (std::size_t h = 0; h < fleet_size(); ++h) {
          if (rng.chance(hours(1) / mtbf)) {
            crash(h);
          }
        }
      });
}

}  // namespace edhp::fault
