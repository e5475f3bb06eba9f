// Derived system-health gauges, read at window boundaries.
//
// The metrics registry accumulates what the protocols *did* (messages,
// transfers, phase timings); a HealthProbe computes what the system *is*
// at one instant: how unbalanced and how heavy.  Each reading is a pure
// function of the ring, so reading it at every boundary of a windowed
// plane (obs::WindowedAggregator, closed on the engine's clock) never
// perturbs the simulation -- the schedule-invariance property the
// observability tests pin.
//
// All load gauges are in *unit load*: node i's load divided by its
// capacity-proportional fair share (L / C) * C_i.  1.0 means exactly
// fair, 1.5 means 50% over; the paper's epsilon threshold (a node is
// heavy above (1 + epsilon) x share) reads directly off the same scale.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "chord/ring.h"
#include "obs/window.h"

namespace p2plb::lb {

/// What the probe measures and how it names the result.
struct HealthProbeConfig {
  /// Heaviness threshold: node i is heavy iff load > (1 + epsilon) x
  /// fair share (matches classify_node).
  double epsilon = 0.1;
  /// Metric-name prefix; readings are emitted as `<prefix>.<gauge>`.
  std::string prefix = "health";
};

/// Point-in-time health gauges over a ring.
class HealthProbe {
 public:
  /// `ring` must outlive the probe.
  explicit HealthProbe(const chord::Ring& ring, HealthProbeConfig config = {});

  /// All readings of the ring as it is now, as (metric key, value) pairs
  /// in a fixed order: nodes, heavy_fraction, mean/max/p99 unit load,
  /// imbalance (max unit load / mean unit load), gini_unit_load, and
  /// vs_per_node{q=max|p50|p99}.
  [[nodiscard]] std::vector<std::pair<std::string, double>> measure() const;

  /// Publish into the online metrics plane: registers
  /// `<prefix>.{heavy_fraction,imbalance,mean_unit_load,max_unit_load}`
  /// gauge series plus a per-node `<prefix>.unit_load` SoA column
  /// (folded into a histogram each bucket), and adds a boundary probe
  /// that samples them into every closing bucket -- the signals the
  /// alert rules read.  The four gauges are the values measure() returns
  /// for the same ring.  Both the probe and `windows` must outlive each
  /// other's use; call once per aggregator.
  void register_windows(obs::WindowedAggregator& windows) const;

  [[nodiscard]] const HealthProbeConfig& config() const noexcept {
    return config_;
  }

 private:
  const chord::Ring& ring_;
  HealthProbeConfig config_;
};

}  // namespace p2plb::lb
