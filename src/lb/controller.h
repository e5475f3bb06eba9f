// Multi-round balancing orchestration.
//
// The paper evaluates a single sweep, but a deployed balancer runs
// periodically (loads drift, epsilon = 0 leaves residue, Pareto tails
// leave unassignable candidates).  The controller repeats balancing
// rounds until the system is stable -- no heavy nodes, or no further
// progress -- and records a per-round time series for analysis.
#pragma once

#include <array>
#include <vector>

#include "lb/balancer.h"
#include "obs/sampler.h"
#include "sim/network.h"

namespace p2plb::lb {

/// Controller limits.
struct ControllerConfig {
  BalancerConfig balancer;
  /// Hard cap on rounds.
  std::uint32_t max_rounds = 8;
  /// Stop when the heavy count after a round is <= this.
  std::size_t target_heavy_count = 0;
};

/// One round's footprint in the time series.
struct RoundStats {
  std::size_t heavy_before = 0;
  std::size_t heavy_after = 0;
  std::size_t transfers = 0;
  double moved_load = 0.0;
  std::size_t unassigned = 0;
  std::uint64_t messages = 0;
  /// Simulated round duration (0 under the synchronous path).
  double completion_time = 0.0;
  /// Per-phase traffic and timing (see BalanceReport::phases).
  std::array<PhaseMetrics, kPhaseCount> phases{};
};

/// Outcome of a controller run.
struct ControllerResult {
  std::vector<RoundStats> rounds;
  /// True iff the final round reached target_heavy_count.
  bool converged = false;

  [[nodiscard]] double total_moved() const {
    double t = 0.0;
    for (const auto& r : rounds) t += r.moved_load;
    return t;
  }
  [[nodiscard]] std::size_t total_transfers() const {
    std::size_t t = 0;
    for (const auto& r : rounds) t += r.transfers;
    return t;
  }
};

/// Run balancing rounds until convergence, stagnation (a round performs
/// no transfers), or the round cap.  `node_keys` as in run_balance_round.
[[nodiscard]] ControllerResult balance_until_stable(
    chord::Ring& ring, const ControllerConfig& config, Rng& rng,
    std::span<const chord::Key> node_keys = {});

/// Timed variant: each round is a lb::ProtocolRound on the caller's
/// network, run back-to-back on its engine (a round starts when the
/// previous one's last transfer lands).  Decisions per round are the same
/// as the synchronous variant's; RoundStats additionally carries real
/// completion times and per-phase metrics.  Drains the engine.
///
/// When `sampler` is given, its periodic chain is (re-)armed before every
/// round so it keeps recording across the per-round engine drains (see
/// obs::Sampler's idle-stop contract).  A null sampler leaves the event
/// schedule untouched.
[[nodiscard]] ControllerResult balance_until_stable(
    sim::Network& net, chord::Ring& ring, const ControllerConfig& config,
    Rng& rng, std::span<const chord::Key> node_keys = {},
    obs::Sampler* sampler = nullptr);

}  // namespace p2plb::lb
