#pragma once
// Central registry of RNG split indices.
//
// Every adversary plan (fault/plan.hpp) is a pure function of (config, rng)
// drawing from `Rng::split(index)` sub-streams, and `split()` never
// advances the parent stream — so two consumers stay independent exactly as
// long as no two of them split the *same parent* with the *same index*.
// This header enumerates the indices per parent stream, every call site
// names them, and a static_assert per group rejects a collision, so adding
// a split that would silently alias an existing stream fails to compile.
//
// Groups (one per parent stream):
//   scenario   — splits of the main simulation RNG: the network's link
//                model stream, the campaign world (campaign.cpp), the
//                scenarios (scenario.cpp / multi_server.cpp) and the seeds
//                of the three adversary plans;
//   fault      — category splits of rng.split(kChaosSeed) in the fault
//                plan;
//   abuse      — class splits of rng.split(kAbuseSeed) in the abuse plan,
//                plus the content split of the injector's own stream;
//   byzantine  — behavior splits of rng.split(kByzantineSeed) in the
//                Byzantine plan, plus the liar-content split.
//
// Per-subject second-level splits (`per_subject` in fault/plan.hpp) use the
// subject index itself and need no registry: within one category stream
// the subjects are distinct by construction.

#include <cstddef>
#include <cstdint>

namespace edhp::fault::splits {

namespace detail {
template <std::size_t N>
[[nodiscard]] constexpr bool all_distinct(const std::uint64_t (&v)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (v[i] == v[j]) return false;
    }
  }
  return true;
}
}  // namespace detail

// --- Scenario layer: splits of the main simulation RNG -----------------
inline constexpr std::uint64_t kCatalog = 0xCA7A;        ///< file catalog shuffle
inline constexpr std::uint64_t kPairWeights = 0xBEEF;    ///< per-host visibility weights
inline constexpr std::uint64_t kFileIds = 0xF11E;        ///< advertised fake-file ids
inline constexpr std::uint64_t kPopulation = 0x90B;      ///< peer population engine
inline constexpr std::uint64_t kLegacyCrashGrid = 0xDEAD;///< pre-chaos hourly crash grid
inline constexpr std::uint64_t kTopPeer = 0x709;         ///< the Fig 8/9 hyperactive peer
inline constexpr std::uint64_t kGreedyDemand = 0xDE3A;   ///< greedy per-file demand draws
inline constexpr std::uint64_t kMultiServerResidents = 0x4E5; ///< resident pools per server
inline constexpr std::uint64_t kNetwork = 0x4e455457;    ///< net::Network latency and loss draws
inline constexpr std::uint64_t kChaosSeed = 0xFA1757;    ///< fault plan stream
inline constexpr std::uint64_t kAbuseSeed = 0xAB05E;     ///< abuse plan stream
inline constexpr std::uint64_t kByzantineSeed = 0xB15A17;///< Byzantine plan stream

inline constexpr std::uint64_t kScenarioSplits[] = {
    kCatalog,         kPairWeights,      kFileIds,
    kPopulation,      kLegacyCrashGrid,  kTopPeer,
    kGreedyDemand,    kMultiServerResidents, kNetwork,
    kChaosSeed,       kAbuseSeed,        kByzantineSeed,
};
static_assert(detail::all_distinct(kScenarioSplits),
              "scenario-level RNG split collision");

// --- Fault plan: category splits of rng.split(kChaosSeed) --------------
inline constexpr std::uint64_t kFaultHost = 1;
inline constexpr std::uint64_t kFaultUplink = 2;
inline constexpr std::uint64_t kFaultServer = 3;
inline constexpr std::uint64_t kFaultLatency = 4;
inline constexpr std::uint64_t kFaultPartition = 5;
inline constexpr std::uint64_t kFaultManager = 6;
inline constexpr std::uint64_t kFaultDiskFull = 7;
inline constexpr std::uint64_t kFaultDiskSlow = 8;
inline constexpr std::uint64_t kFaultMemPressure = 9;
inline constexpr std::uint64_t kFaultClockDrift = 10;
inline constexpr std::uint64_t kFaultClockStep = 11;
inline constexpr std::uint64_t kFaultClockFreeze = 12;

inline constexpr std::uint64_t kFaultSplits[] = {
    kFaultHost,      kFaultUplink,    kFaultServer,
    kFaultLatency,   kFaultPartition, kFaultManager,
    kFaultDiskFull,  kFaultDiskSlow,  kFaultMemPressure,
    kFaultClockDrift, kFaultClockStep, kFaultClockFreeze,
};
static_assert(detail::all_distinct(kFaultSplits),
              "FaultPlan category split collision");

// --- Abuse plan: class splits of rng.split(kAbuseSeed) -----------------
// Class c draws from split(kAbuseClassBase + c), c = 0..3; the injector's
// content stream is a scenario-provided split of the same parent.
inline constexpr std::uint64_t kAbuseClassBase = 1;  ///< splits 1..4
inline constexpr std::uint64_t kAbuseClassCount = 4;
inline constexpr std::uint64_t kAbuseContent = 0xEE; ///< injector content stream

static_assert(kAbuseContent >= kAbuseClassBase + kAbuseClassCount,
              "abuse content split collides with a class split");

// --- Byzantine plan: behavior splits of rng.split(kByzantineSeed) ------
inline constexpr std::uint64_t kByzOfferDrop = 1;
inline constexpr std::uint64_t kByzOfferTruncate = 2;
inline constexpr std::uint64_t kByzStaleIndex = 3;
inline constexpr std::uint64_t kByzFabricateSources = 4;
inline constexpr std::uint64_t kByzCorruptSearch = 5;
inline constexpr std::uint64_t kByzForgeList = 6;
inline constexpr std::uint64_t kByzReplayHello = 7;
inline constexpr std::uint64_t kByzContent = 0xEE;   ///< liar identities / forged payloads

inline constexpr std::uint64_t kByzantineSplits[] = {
    kByzOfferDrop,  kByzOfferTruncate,    kByzStaleIndex,
    kByzFabricateSources, kByzCorruptSearch, kByzForgeList,
    kByzReplayHello, kByzContent,
};
static_assert(detail::all_distinct(kByzantineSplits),
              "ByzantinePlan behavior split collision");

}  // namespace edhp::fault::splits
