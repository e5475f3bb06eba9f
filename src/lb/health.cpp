#include "lb/health.h"

#include <algorithm>

#include "common/stats.h"
#include "lb/classify.h"

namespace p2plb::lb {

namespace {

/// The gauges measure() and the windowed boundary probe both publish.
struct UnitLoadGauges {
  double heavy_fraction = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double imbalance = 0.0;
};

/// Classifies the ring and writes every live node's unit load,
/// load_i / ((L / C) * C_i), into `unit` in live_nodes() order.  `unit`
/// is resized to the live-node count, so a buffer already of that size
/// (the SoA column) is reused without allocating.  With no load (or no
/// capacity) every node is exactly at its share of nothing: all-zero
/// gauges rather than a division by zero.
UnitLoadGauges unit_loads(const chord::Ring& ring, double epsilon,
                          std::vector<double>& unit) {
  const Lbi truth = ground_truth_lbi(ring);
  const Classification cls = classify_all(ring, truth, epsilon);
  unit.resize(cls.nodes.size());
  const double fair = truth.capacity > 0.0 ? truth.load / truth.capacity : 0.0;
  for (std::size_t j = 0; j < cls.nodes.size(); ++j) {
    const double share = fair * cls.nodes[j].capacity;
    unit[j] = share > 0.0 ? cls.nodes[j].load / share : 0.0;
  }
  UnitLoadGauges g;
  g.heavy_fraction = cls.heavy_fraction();
  g.imbalance = imbalance_factor(unit);
  if (!unit.empty()) {
    g.mean = summarize(unit).mean;
    g.max = *std::max_element(unit.begin(), unit.end());
  }
  return g;
}

}  // namespace

HealthProbe::HealthProbe(const chord::Ring& ring, HealthProbeConfig config)
    : ring_(ring), config_(std::move(config)) {
  P2PLB_REQUIRE(config_.epsilon >= 0.0);
  P2PLB_REQUIRE_MSG(!config_.prefix.empty(), "health prefix must be non-empty");
}

std::vector<std::pair<std::string, double>> HealthProbe::measure() const {
  std::vector<std::pair<std::string, double>> out;
  auto emit = [&](std::string_view gauge, double value) {
    out.emplace_back(config_.prefix + "." + std::string(gauge), value);
  };

  const std::vector<chord::NodeIndex> live = ring_.live_nodes();
  emit("nodes", static_cast<double>(live.size()));

  std::vector<double> unit;
  const UnitLoadGauges g = unit_loads(ring_, config_.epsilon, unit);
  emit("heavy_fraction", g.heavy_fraction);
  emit("mean_unit_load", g.mean);
  emit("max_unit_load", g.max);
  std::sort(unit.begin(), unit.end());
  emit("p99_unit_load", percentile_sorted(unit, 0.99));
  emit("imbalance", g.imbalance);
  emit("gini_unit_load", gini(unit));

  std::vector<double> vs_counts;
  vs_counts.reserve(live.size());
  for (const chord::NodeIndex i : live)
    vs_counts.push_back(static_cast<double>(ring_.node(i).servers.size()));
  std::sort(vs_counts.begin(), vs_counts.end());
  const std::string vs = config_.prefix + ".vs_per_node";
  out.emplace_back(vs + "{q=max}",
                   vs_counts.empty() ? 0.0 : vs_counts.back());
  out.emplace_back(vs + "{q=p50}", percentile_sorted(vs_counts, 0.50));
  out.emplace_back(vs + "{q=p99}", percentile_sorted(vs_counts, 0.99));
  return out;
}

void HealthProbe::register_windows(obs::WindowedAggregator& windows) const {
  const std::string p = config_.prefix + ".";
  const obs::SeriesId heavy = windows.gauge_series(p + "heavy_fraction");
  const obs::SeriesId imbalance = windows.gauge_series(p + "imbalance");
  const obs::SeriesId mean_unit = windows.gauge_series(p + "mean_unit_load");
  const obs::SeriesId max_unit = windows.gauge_series(p + "max_unit_load");
  const obs::ColumnId units = windows.column_series(p + "unit_load");
  windows.add_boundary_probe([this, &windows, heavy, imbalance, mean_unit,
                              max_unit, units](double boundary) {
    // Unit loads land in the SoA column (one dense double per node --
    // the only state that scales with N) and fold into the
    // `<prefix>.unit_load` histogram when this bucket closes.
    const UnitLoadGauges g = unit_loads(
        ring_, config_.epsilon,
        windows.column_data(units, ring_.live_node_count()));
    windows.record(heavy, boundary, g.heavy_fraction);
    windows.record(imbalance, boundary, g.imbalance);
    windows.record(mean_unit, boundary, g.mean);
    windows.record(max_unit, boundary, g.max);
  });
}

}  // namespace p2plb::lb
