#include "topo/landmarks.h"

#include <algorithm>
#include <utility>

namespace p2plb::topo {

std::vector<Vertex> select_landmarks(const TransitStubTopology& topo,
                                     std::size_t count,
                                     LandmarkStrategy strategy, Rng& rng) {
  P2PLB_REQUIRE(count >= 1);
  std::vector<Vertex> pool;
  switch (strategy) {
    case LandmarkStrategy::kTransitSpread: {
      // Group transit vertices by domain, shuffle within each domain, then
      // take round-robin so landmarks cover as many domains as possible.
      const auto transit = topo.transit_vertices();
      P2PLB_REQUIRE_MSG(count <= transit.size(),
                        "not enough transit vertices for landmark count");
      std::uint32_t max_domain = 0;
      for (Vertex v : transit)
        max_domain = std::max(max_domain, topo.vertices[v].domain);
      std::vector<std::vector<Vertex>> by_domain(max_domain + 1);
      for (Vertex v : transit) by_domain[topo.vertices[v].domain].push_back(v);
      for (auto& group : by_domain) rng.shuffle(group);
      std::vector<Vertex> picked;
      for (std::size_t round = 0; picked.size() < count; ++round) {
        bool any = false;
        for (auto& group : by_domain) {
          if (round < group.size()) {
            picked.push_back(group[round]);
            any = true;
            if (picked.size() == count) break;
          }
        }
        P2PLB_ASSERT(any);
      }
      return picked;
    }
    case LandmarkStrategy::kRandomAny: {
      pool.resize(topo.graph.vertex_count());
      for (std::size_t v = 0; v < pool.size(); ++v)
        pool[v] = static_cast<Vertex>(v);
      break;
    }
    case LandmarkStrategy::kRandomStub:
      pool = topo.stub_vertices();
      break;
  }
  P2PLB_REQUIRE_MSG(count <= pool.size(),
                    "not enough eligible vertices for landmark count");
  const auto idx = rng.sample_indices(pool.size(), count);
  std::vector<Vertex> picked(count);
  for (std::size_t i = 0; i < count; ++i) picked[i] = pool[idx[i]];
  return picked;
}

LandmarkVectors::LandmarkVectors(const Graph& graph,
                                 std::vector<Vertex> landmarks)
    : landmarks_(std::move(landmarks)),
      vertex_count_(graph.vertex_count()) {
  P2PLB_REQUIRE(!landmarks_.empty());
  flat_.reserve(landmarks_.size() * vertex_count_);
  ShortestPathScratch scratch;
  for (Vertex lm : landmarks_) {
    const std::vector<double> dist = shortest_paths(graph, lm, scratch);
    for (double d : dist)
      if (d != kUnreachable) max_distance_ = std::max(max_distance_, d);
    flat_.insert(flat_.end(), dist.begin(), dist.end());
  }
}

std::span<const double> LandmarkVectors::row(
    std::size_t landmark_index) const {
  P2PLB_REQUIRE(landmark_index < landmarks_.size());
  return std::span<const double>(flat_)
      .subspan(landmark_index * vertex_count_, vertex_count_);
}

std::vector<double> LandmarkVectors::vector_of(Vertex v) const {
  P2PLB_REQUIRE(v < vertex_count_);
  std::vector<double> out(landmarks_.size());
  for (std::size_t i = 0; i < landmarks_.size(); ++i)
    out[i] = flat_[i * vertex_count_ + v];
  return out;
}

double LandmarkVectors::distance(std::size_t landmark_index, Vertex v) const {
  P2PLB_REQUIRE(landmark_index < landmarks_.size());
  P2PLB_REQUIRE(v < vertex_count_);
  return flat_[landmark_index * vertex_count_ + v];
}

}  // namespace p2plb::topo
