#include "lb/health.h"

#include <algorithm>
#include <cstdint>

#include "common/stats.h"
#include "lb/classify.h"

namespace p2plb::lb {

namespace {

/// Approximate depth of a tree instance from its region length: how many
/// K-way splits of the whole space reach a region this small.  Children
/// split with exact integer boundaries, so sibling lengths differ by at
/// most one -- division by `degree` recovers the level exactly for every
/// realistic space size.
std::uint32_t region_depth(std::uint64_t len, std::uint32_t degree) {
  std::uint32_t depth = 0;
  for (std::uint64_t l = chord::kSpaceSize; l > len; l /= degree) ++depth;
  return depth;
}

}  // namespace

HealthProbe::HealthProbe(const chord::Ring& ring, HealthProbeConfig config)
    : ring_(ring), config_(std::move(config)) {
  P2PLB_REQUIRE(config_.epsilon >= 0.0);
  P2PLB_REQUIRE_MSG(!config_.prefix.empty(), "health prefix must be non-empty");
}

std::vector<std::pair<std::string, double>> HealthProbe::measure(
    double now) const {
  std::vector<std::pair<std::string, double>> out;
  auto emit = [&](std::string_view gauge, double value) {
    out.emplace_back(config_.prefix + "." + std::string(gauge), value);
  };

  const std::vector<chord::NodeIndex> live = ring_.live_nodes();
  emit("nodes", static_cast<double>(live.size()));

  const Lbi truth = ground_truth_lbi(ring_);
  const Classification cls = classify_all(ring_, truth, config_.epsilon);
  emit("heavy_fraction", cls.heavy_fraction());

  // Unit loads: load_i / ((L / C) * C_i).  With no load (or no capacity)
  // every node is exactly at its share of nothing; report all-zero gauges
  // rather than dividing by zero.
  std::vector<double> unit;
  unit.reserve(live.size());
  const double fair = truth.capacity > 0.0 ? truth.load / truth.capacity : 0.0;
  for (const NodeAssessment& a : cls.nodes) {
    const double share = fair * a.capacity;
    unit.push_back(share > 0.0 ? a.load / share : 0.0);
  }
  std::vector<double> sorted = unit;
  std::sort(sorted.begin(), sorted.end());
  emit("mean_unit_load",
       unit.empty() ? 0.0 : summarize(unit).mean);
  emit("max_unit_load", sorted.empty() ? 0.0 : sorted.back());
  emit("p99_unit_load", percentile_sorted(sorted, 0.99));
  emit("imbalance", imbalance_factor(unit));
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

  if (clbi_ != nullptr) {
    emit("clbi_root_error", clbi_->root_relative_error());
    const sim::Time last = clbi_->last_refresh_time();
    emit("clbi_staleness", last < 0.0 ? -1.0 : now - last);
  }
  if (tree_ != nullptr) {
    emit("ktree_instances", static_cast<double>(tree_->instance_count()));
    std::uint32_t height = 0;
    tree_->for_each_instance([&](const ktree::Region& r, chord::Key) {
      height = std::max(height, region_depth(r.len, tree_->degree()));
    });
    emit("ktree_depth", static_cast<double>(height));
  }
  return out;
}

void HealthProbe::sample_into(double t, obs::TimeSeriesSink& sink) const {
  for (const auto& [key, value] : measure(t)) sink.append(t, key, value);
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
    const Lbi truth = ground_truth_lbi(ring_);
    const Classification cls = classify_all(ring_, truth, config_.epsilon);
    // Unit loads land in the SoA column (one dense double per node --
    // the only state that scales with N) and fold into the
    // `<prefix>.unit_load` histogram when this bucket closes.  The
    // classification already holds every live node's load and capacity,
    // in live_nodes() order.
    std::vector<double>& col = windows.column_data(units, cls.nodes.size());
    const double fair =
        truth.capacity > 0.0 ? truth.load / truth.capacity : 0.0;
    for (std::size_t j = 0; j < cls.nodes.size(); ++j) {
      const double share = fair * cls.nodes[j].capacity;
      col[j] = share > 0.0 ? cls.nodes[j].load / share : 0.0;
    }
    windows.record(heavy, boundary, cls.heavy_fraction());
    windows.record(imbalance, boundary, imbalance_factor(col));
    windows.record(mean_unit, boundary,
                   col.empty() ? 0.0 : summarize(col).mean);
    windows.record(max_unit, boundary,
                   col.empty() ? 0.0
                               : *std::max_element(col.begin(), col.end()));
  });
}

}  // namespace p2plb::lb
