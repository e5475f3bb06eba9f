// Weighted undirected graph with single-source shortest paths.
//
// The graph is the physical-network substrate: vertices are routers/hosts,
// edge weights are latency units (1 per intradomain hop, 3 per interdomain
// hop in the paper's model).  Vertex ids are dense [0, n).
//
// Shortest paths run on a bucket queue (Dial's algorithm with Dinitz's
// real-weight buckets, one min-edge-weight wide) instead of a binary heap.
// The result is exact for any positive finite weights: bit for bit the
// distances a binary-heap Dijkstra computes, rounding included.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace p2plb::topo {

/// Dense vertex identifier.
using Vertex = std::uint32_t;

/// Distance value; unreachable vertices report `kUnreachable`.
inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Outgoing half-edge.
struct HalfEdge {
  Vertex to = 0;
  double weight = 0.0;
};

/// Undirected weighted graph (adjacency-list storage).
class Graph {
 public:
  explicit Graph(std::size_t vertex_count) : adjacency_(vertex_count) {}

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  /// Add an undirected edge (a != b, 0 < weight < infinity).  Parallel
  /// edges are rejected so generators cannot silently double-connect
  /// vertices.
  void add_edge(Vertex a, Vertex b, double weight);

  [[nodiscard]] bool has_edge(Vertex a, Vertex b) const;

  [[nodiscard]] std::span<const HalfEdge> neighbors(Vertex v) const {
    P2PLB_REQUIRE(v < adjacency_.size());
    return adjacency_[v];
  }

  [[nodiscard]] std::size_t degree(Vertex v) const {
    return neighbors(v).size();
  }

  /// True iff every vertex is reachable from vertex 0 (or the graph is
  /// empty).
  [[nodiscard]] bool is_connected() const;

  /// Smallest and largest edge weight (infinity and 0 while the graph has
  /// no edges).  They size the shortest-path bucket ring.
  [[nodiscard]] double min_edge_weight() const noexcept { return min_weight_; }
  [[nodiscard]] double max_edge_weight() const noexcept { return max_weight_; }

 private:
  std::vector<std::vector<HalfEdge>> adjacency_;
  std::size_t edge_count_ = 0;
  double min_weight_ = kUnreachable;
  double max_weight_ = 0.0;
};

/// Bucket storage for shortest_paths.  Passing the same scratch to many
/// runs keeps the buckets' capacity, so each run allocates only the
/// distance row it returns.
struct ShortestPathScratch {
  std::vector<std::vector<std::pair<double, Vertex>>> buckets;
};

/// Single-source shortest path distances from `source` (bucket queue,
/// exact; kUnreachable for vertices in other components).
[[nodiscard]] std::vector<double> shortest_paths(
    const Graph& graph, Vertex source, ShortestPathScratch& scratch);

/// As above with a scratch of its own, for one-off runs.
[[nodiscard]] std::vector<double> shortest_paths(const Graph& graph,
                                                 Vertex source);

/// Unweighted hop counts from `source` (BFS) -- used as a test oracle for
/// shortest_paths on unit-weight graphs.
[[nodiscard]] std::vector<std::uint32_t> bfs_hops(const Graph& graph,
                                                  Vertex source);

}  // namespace p2plb::topo
