#pragma once
// Calibration constants of the peer behaviour model.
//
// Every mechanism the paper names (source selection, re-asks, timeouts,
// content verification, client-level blacklisting, gossip) has its knobs
// here; scenario code (src/scenario/) instantiates them with values
// calibrated so the paper-scale runs reproduce the magnitudes of Table I
// and Figures 2-12. Tests use smaller, faster values.

#include <cstdint>

#include "common/clock.hpp"

namespace edhp::peer {

struct BehaviorParams {
  // --- Source selection ----------------------------------------------------
  /// Mean of the (1 + Poisson) number of sources a typical peer contacts
  /// out of a FOUND-SOURCES reply. Small values create the partial
  /// per-honeypot views behind Fig 10.
  double extra_sources_mean = 2.2;
  /// A minority of clients race many sources at once (heavy-tailed source
  /// counts); they make single-honeypot coverage high while the union curve
  /// keeps growing at n=24, as the paper observes.
  double aggressive_prob = 0.15;
  double aggressive_extra_mean = 14.0;
  /// Log-sigma of per-honeypot attractiveness weights (heterogeneous
  /// selection: some honeypots are seen by 3x more peers than others).
  double source_weight_sigma = 0.7;

  /// Fraction of arriving peers that learn their sources through peer
  /// exchange (community cache) instead of querying the server — these are
  /// the peers the paper notes "are not connected to the server". Kept:
  /// PopulationTest.PexPeersSkipTheServer needs 1.0, the fixture 0.0.
  double pex_prob = 0.12;

  // --- Sessions --------------------------------------------------------------
  /// Mean number of download sessions a peer attempts before giving up.
  double sessions_mean = 8.0;
  /// Mean gap between sessions (diurnal-gated, so effective gaps cluster in
  /// daytime).
  Duration session_gap_mean = hours(4);
  /// Probability that a handshake leads to a START-UPLOAD in a session.
  double start_upload_prob = 0.72;
  /// Mean number of *additional* wanted files an uploader asks a provider
  /// about (Poisson). eMule clients check a source against their whole
  /// download list, which is why the per-file peer counts of Figs 11/12 sum
  /// to several times the number of distinct peers.
  double secondary_targets_mean = 4.0;

  // --- Transfers --------------------------------------------------------------
  /// Client timeout waiting for an answer to a REQUEST-PART.
  Duration request_timeout = 45.0;
  /// REQUEST-PART retries per source within one session (no-content path).
  std::uint32_t timeouts_per_session = 3;
  /// Consecutive timed-out sessions after which a no-content honeypot is
  /// considered dead by this client.
  std::uint32_t detect_after_timeouts = 8;
  /// Completed-but-corrupt parts after which a random-content honeypot is
  /// considered bogus (detecting invalid content takes longer than
  /// detecting silence: a whole part must be downloaded first).
  std::uint32_t detect_after_bad_parts = 2;
  /// Cap on REQUEST-PART rounds per session (random-content path).
  std::uint32_t max_rounds_per_session = 20;

  // --- Blacklisting ------------------------------------------------------------
  /// Probability a detection is "published" (forums, ipfilter updates,
  /// client-shared lists) and so affects other peers' source selection.
  /// Silence is an unambiguous signal; corrupt content is routinely blamed
  /// on transfer corruption instead of the provider, so it propagates far
  /// less — the root of the paper's Fig 5/6 gap.
  double gossip_prob_timeout = 0.30;
  double gossip_prob_bad_part = 0.06;
  /// Multiplicative reputation hit per published detection.
  double gossip_penalty = 6e-6;

  // --- Shared-file lists --------------------------------------------------------
  /// Probability the client answers ASK-SHARED-FILES (the feature can be
  /// disabled by the user).
  double share_list_prob = 0.35;
  /// Mean cache size (number of shared files, 1 + Poisson).
  double cache_size_mean = 60.0;

  // --- Population -------------------------------------------------------------
  /// Fraction of peers that are directly reachable (HighID).
  double high_id_fraction = 0.62;
  /// Mean client upload bandwidth in bytes/s (2008 ADSL).
  double upload_bps_mean = 80.0 * 1024;
};

}  // namespace edhp::peer
