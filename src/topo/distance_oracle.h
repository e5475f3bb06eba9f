// Cached pairwise shortest-path queries.
//
// Transfer-cost accounting needs distances between arbitrary (heavy,
// light) vertex pairs.  A full all-pairs table for a 5k-vertex topology
// would be ~200 MB; instead the oracle runs one single-source shortest-path
// search per distinct source and keeps a bounded LRU cache of source rows,
// plus a batch API that groups queries by source for the figure
// benchmarks.  Each search is topo::shortest_paths, a bucket-queue
// Dijkstra that is exact for any positive weights; its bucket scratch is
// reused across all of the oracle's runs.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "topo/graph.h"

namespace p2plb::topo {

/// Pairwise shortest-path distance oracle with per-source caching.
class DistanceOracle {
 public:
  /// `graph` must outlive the oracle.  `max_cached_sources` bounds memory
  /// at max_cached_sources * vertex_count * 8 bytes.
  explicit DistanceOracle(const Graph& graph,
                          std::size_t max_cached_sources = 64);

  /// Distance between two vertices (kUnreachable if disconnected).
  [[nodiscard]] double distance(Vertex from, Vertex to);

  /// Resolve many pairs, grouping by source so each distinct source costs
  /// exactly one Dijkstra regardless of cache size.
  [[nodiscard]] std::vector<double> distances(
      std::span<const std::pair<Vertex, Vertex>> pairs);

  /// Number of Dijkstra runs performed so far (for perf assertions).
  [[nodiscard]] std::uint64_t dijkstra_runs() const noexcept { return runs_; }

  /// Adapt the oracle into the network's flat latency callable: endpoints
  /// are attachment vertices (the node_endpoint convention for
  /// topology-attached rings) and a hop's latency is the weighted
  /// shortest-path distance.  Same endpoint costs 0 without a query; a
  /// disconnected pair costs `unreachable` instead of infinity so the
  /// simulation stays finite.  The oracle must outlive the returned
  /// callable (whose ctx is the oracle itself -- no allocation, no type
  /// erasure on the per-send path).
  [[nodiscard]] sim::Latency latency(double unreachable = 1e6);

 private:
  const std::vector<double>& row(Vertex source);

  const Graph& graph_;
  std::size_t capacity_;
  std::uint64_t runs_ = 0;
  double unreachable_latency_ = 1e6;
  ShortestPathScratch scratch_;
  // Dense mode (capacity >= vertex count): one lazily filled row per
  // vertex, no eviction, no per-query hashing.  Empty row = not computed.
  std::vector<std::vector<double>> dense_;
  // LRU: most recently used at the front.
  std::list<std::pair<Vertex, std::vector<double>>> rows_;
  std::unordered_map<Vertex, decltype(rows_)::iterator> index_;
};

}  // namespace p2plb::topo
