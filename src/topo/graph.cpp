#include "topo/graph.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace p2plb::topo {

void Graph::add_edge(Vertex a, Vertex b, double weight) {
  P2PLB_REQUIRE(a < adjacency_.size());
  P2PLB_REQUIRE(b < adjacency_.size());
  P2PLB_REQUIRE_MSG(a != b, "self-loops are not allowed");
  P2PLB_REQUIRE(weight > 0.0 && weight < kUnreachable);
  P2PLB_REQUIRE_MSG(!has_edge(a, b), "parallel edge");
  adjacency_[a].push_back({b, weight});
  adjacency_[b].push_back({a, weight});
  ++edge_count_;
  min_weight_ = std::min(min_weight_, weight);
  max_weight_ = std::max(max_weight_, weight);
}

bool Graph::has_edge(Vertex a, Vertex b) const {
  P2PLB_REQUIRE(a < adjacency_.size());
  P2PLB_REQUIRE(b < adjacency_.size());
  // Scan the smaller adjacency list.
  const auto& list =
      adjacency_[a].size() <= adjacency_[b].size() ? adjacency_[a]
                                                   : adjacency_[b];
  const Vertex other = adjacency_[a].size() <= adjacency_[b].size() ? b : a;
  return std::any_of(list.begin(), list.end(),
                     [other](const HalfEdge& e) { return e.to == other; });
}

bool Graph::is_connected() const {
  if (adjacency_.empty()) return true;
  const auto hops = bfs_hops(*this, 0);
  return std::none_of(hops.begin(), hops.end(), [](std::uint32_t h) {
    return h == std::numeric_limits<std::uint32_t>::max();
  });
}

namespace {

/// Ring length cap.  Past it buckets widen to max_weight / kMaxBuckets, so
/// an extreme weight ratio costs same-bucket re-relaxations instead of
/// memory; the labels stay exact either way.
constexpr double kMaxBuckets = 4096.0;

}  // namespace

std::vector<double> shortest_paths(const Graph& graph, Vertex source,
                                   ShortestPathScratch& scratch) {
  P2PLB_REQUIRE(source < graph.vertex_count());
  std::vector<double> dist(graph.vertex_count(), kUnreachable);
  dist[source] = 0.0;
  if (graph.edge_count() == 0) return dist;
  // Bucket k holds labels in [k * width, (k + 1) * width).  A relaxation
  // from bucket k lands in bucket k + 1 or later (width <= every weight)
  // and at most ceil(max / width) buckets on, so a ring that long plus one
  // never wraps onto a live bucket.  Labels within one bucket cannot
  // improve each other in exact arithmetic, so a vertex is normally
  // scanned once.  Rounding (or a capped, wider bucket) can still put an
  // improvement into the current bucket: it is pushed there and scanned
  // again.  Scanning stops only when no edge relaxes, which is the same
  // least fixpoint a binary heap reaches, so the rows match bit for bit.
  const double max_weight = graph.max_edge_weight();
  const double width =
      std::max(graph.min_edge_weight(), max_weight / kMaxBuckets);
  const auto ring_size =
      static_cast<std::size_t>(std::ceil(max_weight / width)) + 1;
  auto& ring = scratch.buckets;
  if (ring.size() < ring_size) ring.resize(ring_size);
  for (auto& bucket : ring) bucket.clear();  // left over if a run threw
  std::size_t current = 0;
  std::size_t pending = 1;
  ring[0].push_back({0.0, source});
  while (pending > 0) {
    auto& bucket = ring[current % ring_size];
    while (!bucket.empty()) {
      const auto [d, v] = bucket.back();
      bucket.pop_back();
      --pending;
      if (d != dist[v]) continue;  // stale: v improved after this push
      for (const HalfEdge& e : graph.neighbors(v)) {
        const double nd = d + e.weight;
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          const std::size_t k =
              std::clamp(static_cast<std::size_t>(nd / width), current,
                         current + ring_size - 1);
          ring[k % ring_size].push_back({nd, e.to});
          ++pending;
        }
      }
    }
    ++current;
  }
  return dist;
}

std::vector<double> shortest_paths(const Graph& graph, Vertex source) {
  ShortestPathScratch scratch;
  return shortest_paths(graph, source, scratch);
}

std::vector<std::uint32_t> bfs_hops(const Graph& graph, Vertex source) {
  P2PLB_REQUIRE(source < graph.vertex_count());
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> hops(graph.vertex_count(), kInf);
  std::queue<Vertex> frontier;
  hops[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const Vertex v = frontier.front();
    frontier.pop();
    for (const HalfEdge& e : graph.neighbors(v)) {
      if (hops[e.to] == kInf) {
        hops[e.to] = hops[v] + 1;
        frontier.push(e.to);
      }
    }
  }
  return hops;
}

}  // namespace p2plb::topo
