#include "topo/distance_oracle.h"

#include <algorithm>
#include <numeric>

namespace p2plb::topo {

DistanceOracle::DistanceOracle(const Graph& graph,
                               std::size_t max_cached_sources)
    : graph_(graph), capacity_(max_cached_sources) {
  P2PLB_REQUIRE(capacity_ >= 1);
  // When every row fits there is nothing to evict: switch to a dense
  // per-vertex table and skip the hash lookup and LRU splice per query
  // (this lookup sits on the per-send latency path of timed rounds).
  if (capacity_ >= graph_.vertex_count())
    dense_.resize(graph_.vertex_count());
}

const std::vector<double>& DistanceOracle::row(Vertex source) {
  if (!dense_.empty()) {
    std::vector<double>& r = dense_[source];
    if (r.empty()) {
      ++runs_;
      r = shortest_paths(graph_, source, scratch_);
    }
    return r;
  }
  if (const auto it = index_.find(source); it != index_.end()) {
    rows_.splice(rows_.begin(), rows_, it->second);  // refresh LRU position
    return rows_.front().second;
  }
  ++runs_;
  rows_.emplace_front(source, shortest_paths(graph_, source, scratch_));
  index_[source] = rows_.begin();
  if (rows_.size() > capacity_) {
    index_.erase(rows_.back().first);
    rows_.pop_back();
  }
  return rows_.front().second;
}

double DistanceOracle::distance(Vertex from, Vertex to) {
  P2PLB_REQUIRE(from < graph_.vertex_count());
  P2PLB_REQUIRE(to < graph_.vertex_count());
  if (from == to) return 0.0;
  return row(from)[to];
}

std::vector<double> DistanceOracle::distances(
    std::span<const std::pair<Vertex, Vertex>> pairs) {
  std::vector<double> out(pairs.size());
  // Group query indices by source: one Dijkstra per distinct source even
  // when the cache cannot hold all rows.
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pairs[a].first < pairs[b].first;
  });
  std::size_t k = 0;
  while (k < order.size()) {
    const Vertex source = pairs[order[k]].first;
    const std::vector<double>& dist = row(source);
    while (k < order.size() && pairs[order[k]].first == source) {
      out[order[k]] = pairs[order[k]].second == source
                          ? 0.0
                          : dist[pairs[order[k]].second];
      ++k;
    }
  }
  return out;
}

sim::Latency DistanceOracle::latency(double unreachable) {
  P2PLB_REQUIRE(unreachable >= 0.0);
  unreachable_latency_ = unreachable;
  return sim::Latency{this, [](void* ctx, sim::Endpoint from,
                               sim::Endpoint to) -> sim::Time {
    if (from == to) return 0.0;
    auto& oracle = *static_cast<DistanceOracle*>(ctx);
    const double d = oracle.distance(from, to);
    return d == kUnreachable ? oracle.unreachable_latency_ : d;
  }};
}

}  // namespace p2plb::topo
