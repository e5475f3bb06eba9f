// Unit and property tests for the topology substrate: graph algorithms,
// the transit-stub generator, landmark vectors and the distance oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <queue>
#include <set>
#include <span>

#include "common/error.h"
#include "common/rng.h"
#include "topo/distance_oracle.h"
#include "topo/graph.h"
#include "topo/landmarks.h"
#include "topo/transit_stub.h"

namespace p2plb::topo {
namespace {

// --- Graph / shortest paths ---------------------------------------------------

TEST(Graph, EdgesAndDegrees) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), PreconditionError);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), PreconditionError);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), PreconditionError);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(g.add_edge(1, 0, 2.0), PreconditionError);  // parallel
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2, 1.0);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(ShortestPaths, HandComputed) {
  //    0 --1-- 1 --1-- 2
  //     \---5---------/
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  const auto d = shortest_paths(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);  // via 1, not the direct 5.0 edge
  const auto back = shortest_paths(g, 2);
  EXPECT_DOUBLE_EQ(back[0], 2.0);
  EXPECT_DOUBLE_EQ(back[2], 0.0);
}

TEST(ShortestPaths, UnreachableIsInfinity) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto d = shortest_paths(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(shortest_paths(g, 2)[0], kUnreachable);
}

TEST(ShortestPaths, MatchesBfsOnUnitWeights) {
  Rng rng(31);
  Graph g(200);
  // Random connected unit-weight graph.
  for (Vertex v = 1; v < 200; ++v)
    g.add_edge(v, static_cast<Vertex>(rng.below(v)), 1.0);
  for (int extra = 0; extra < 300; ++extra) {
    const auto a = static_cast<Vertex>(rng.below(200));
    const auto b = static_cast<Vertex>(rng.below(200));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b, 1.0);
  }
  const auto dij = shortest_paths(g, 7);
  const auto bfs = bfs_hops(g, 7);
  for (Vertex v = 0; v < 200; ++v)
    EXPECT_DOUBLE_EQ(dij[v], static_cast<double>(bfs[v]));
}

// --- Bucket queue vs. binary heap ---------------------------------------------

// Reference for the differential tests: textbook binary-heap Dijkstra,
// whose rows the bucket queue must match bit for bit.
std::vector<double> heap_shortest_paths(const Graph& graph, Vertex source) {
  std::vector<double> dist(graph.vertex_count(), kUnreachable);
  using Entry = std::pair<double, Vertex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;  // stale entry
    for (const HalfEdge& e : graph.neighbors(v)) {
      const double nd = d + e.weight;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        heap.push({nd, e.to});
      }
    }
  }
  return dist;
}

// Every row from `sources` must equal the reference byte for byte; one
// scratch serves all runs, as in DistanceOracle.
void expect_rows_identical(const Graph& g, std::span<const Vertex> sources) {
  ShortestPathScratch scratch;
  for (const Vertex s : sources) {
    const auto got = shortest_paths(g, s, scratch);
    const auto want = heap_shortest_paths(g, s);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "row of source " << s;
  }
}

void expect_stub_rows_identical(const TransitStubParams& params) {
  Rng rng(18);
  const auto topo = generate_transit_stub(params, rng, "diff");
  const auto stubs = topo.stub_vertices();
  Rng pick(19);
  std::vector<Vertex> sources;
  for (const std::size_t i : pick.sample_indices(stubs.size(), 200))
    sources.push_back(stubs[i]);
  expect_rows_identical(topo.graph, sources);
}

// A connected graph: a random spanning tree plus `extra` random edges,
// each weighted by a draw of `weight`.
Graph random_graph(Rng& rng, Vertex n, int extra,
                   const std::function<double()>& weight) {
  Graph g(n);
  for (Vertex v = 1; v < n; ++v)
    g.add_edge(v, static_cast<Vertex>(rng.below(v)), weight());
  for (int i = 0; i < extra; ++i) {
    const auto a = static_cast<Vertex>(rng.below(n));
    const auto b = static_cast<Vertex>(rng.below(n));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b, weight());
  }
  return g;
}

std::vector<Vertex> all_vertices(const Graph& g) {
  std::vector<Vertex> v(g.vertex_count());
  std::iota(v.begin(), v.end(), Vertex{0});
  return v;
}

TEST(ShortestPathsDifferential, Ts5kSmallStubRows) {
  expect_stub_rows_identical(TransitStubParams::ts5k_small());
}

TEST(ShortestPathsDifferential, Ts5kLargeStubRows) {
  expect_stub_rows_identical(TransitStubParams::ts5k_large());
}

TEST(ShortestPathsDifferential, RandomRealWeights) {
  Rng rng(20);
  const auto weight = [&rng] { return rng.uniform(0.1, 3.1); };
  for (int graph = 0; graph < 50; ++graph) {
    const auto n = static_cast<Vertex>(20 + rng.below(100));
    const Graph g = random_graph(rng, n, static_cast<int>(2 * n), weight);
    expect_rows_identical(g, all_vertices(g));
  }
}

TEST(ShortestPathsDifferential, WideWeightRatio) {
  // Two weights 730x apart: a 731-bucket ring.
  Rng rng(21);
  const Graph g = random_graph(rng, 300, 600, [&rng] {
    return rng.chance(0.5) ? 0.01 : 7.3;
  });
  expect_rows_identical(g, all_vertices(g));
}

TEST(ShortestPathsDifferential, RatioPastTheRingCap) {
  // Log-uniform weights over six decades: buckets widen past the ring
  // cap, so labels in one bucket improve each other and are re-scanned.
  Rng rng(22);
  const Graph g = random_graph(rng, 200, 400, [&rng] {
    return std::pow(10.0, rng.uniform(-3.0, 3.0));
  });
  expect_rows_identical(g, all_vertices(g));
}

TEST(ShortestPathsDifferential, DisconnectedRowsHoldUnreachable) {
  Rng rng(23);
  const Graph a =
      random_graph(rng, 40, 60, [&rng] { return rng.uniform(0.1, 3.1); });
  Graph g(80);  // two copies of `a`, no edge between them
  for (Vertex v = 0; v < 40; ++v)
    for (const HalfEdge& e : a.neighbors(v))
      if (v < e.to) {
        g.add_edge(v, e.to, e.weight);
        g.add_edge(v + 40, e.to + 40, e.weight);
      }
  expect_rows_identical(g, all_vertices(g));
  const auto row = shortest_paths(g, 3);
  EXPECT_EQ(std::count(row.begin(), row.end(), kUnreachable), 40);
}

TEST(ShortestPathsDifferential, SingleVertexAndNoEdges) {
  const Graph one(1);
  expect_rows_identical(one, all_vertices(one));
  EXPECT_EQ(shortest_paths(one, 0), std::vector<double>{0.0});
  const Graph empty(5);
  expect_rows_identical(empty, all_vertices(empty));
  const auto row = shortest_paths(empty, 2);
  EXPECT_EQ(std::count(row.begin(), row.end(), kUnreachable), 4);
  EXPECT_EQ(row[2], 0.0);
}

// --- Transit-stub generator ----------------------------------------------------

class TransitStubSweep : public ::testing::TestWithParam<int> {};

TEST_P(TransitStubSweep, StructureIsSound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  TransitStubParams params;
  params.transit_domains = 4;
  params.transit_nodes_per_domain = 3;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 8;
  const auto topo = generate_transit_stub(params, rng, "sweep");

  EXPECT_TRUE(topo.graph.is_connected());
  const auto transit = topo.transit_vertices();
  const auto stub = topo.stub_vertices();
  EXPECT_EQ(transit.size(), 12u);
  EXPECT_EQ(topo.stub_domain_count(), 24u);
  EXPECT_EQ(transit.size() + stub.size(), topo.graph.vertex_count());
  // Stub-domain sizes average around the mean (uniform [4, 12]).
  EXPECT_GE(stub.size(), 24u * 4);
  EXPECT_LE(stub.size(), 24u * 12);

  // Every stub vertex's gateway is a transit vertex; domains are coherent.
  for (const Vertex v : stub) {
    const VertexInfo& info = topo.vertices[v];
    EXPECT_EQ(topo.vertices[info.gateway_transit].kind, VertexKind::kTransit);
    EXPECT_GE(info.domain, params.transit_domains);
  }
  for (const Vertex v : transit) {
    EXPECT_LT(topo.vertices[v].domain, params.transit_domains);
    EXPECT_EQ(topo.vertices[v].gateway_transit, v);
  }
}

TEST_P(TransitStubSweep, EdgeWeightsFollowDomainRule) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  TransitStubParams params;
  params.transit_domains = 3;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 4;
  const auto topo = generate_transit_stub(params, rng, "weights");
  for (Vertex v = 0; v < topo.graph.vertex_count(); ++v) {
    for (const HalfEdge& e : topo.graph.neighbors(v)) {
      const bool same_domain =
          topo.vertices[v].domain == topo.vertices[e.to].domain;
      EXPECT_DOUBLE_EQ(e.weight, same_domain ? params.intra_domain_weight
                                             : params.inter_domain_weight)
          << "edge " << v << "-" << e.to;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitStubSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TransitStub, PaperPresetsHaveRoughlyFiveThousandNodes) {
  Rng rng(32);
  const auto large =
      generate_transit_stub(TransitStubParams::ts5k_large(), rng, "large");
  // 15 transit + 75 stub domains x ~60 = ~4.5k.
  EXPECT_GT(large.graph.vertex_count(), 3000u);
  EXPECT_LT(large.graph.vertex_count(), 8000u);
  EXPECT_EQ(large.transit_vertices().size(), 15u);
  EXPECT_TRUE(large.graph.is_connected());

  const auto small =
      generate_transit_stub(TransitStubParams::ts5k_small(), rng, "small");
  // 600 transit + 2400 stub domains x ~2 = ~5.4k.
  EXPECT_GT(small.graph.vertex_count(), 4000u);
  EXPECT_LT(small.graph.vertex_count(), 9000u);
  EXPECT_EQ(small.transit_vertices().size(), 600u);
  EXPECT_TRUE(small.graph.is_connected());
}

TEST(TransitStub, SameStubDomainIsCloserThanCrossDomain) {
  Rng rng(33);
  const auto topo =
      generate_transit_stub(TransitStubParams::ts5k_large(), rng, "large");
  // Average intra-stub-domain distance must be well below the average
  // cross-domain distance (this is the locality Figure 7 exploits).
  std::vector<Vertex> stub = topo.stub_vertices();
  double intra = 0.0, cross = 0.0;
  int intra_n = 0, cross_n = 0;
  Rng pick(34);
  for (int trial = 0; trial < 60; ++trial) {
    const Vertex a = stub[pick.below(stub.size())];
    const auto dist = shortest_paths(topo.graph, a);
    for (int j = 0; j < 40; ++j) {
      const Vertex b = stub[pick.below(stub.size())];
      if (a == b) continue;
      if (topo.vertices[a].domain == topo.vertices[b].domain) {
        intra += dist[b];
        ++intra_n;
      } else {
        cross += dist[b];
        ++cross_n;
      }
    }
  }
  ASSERT_GT(cross_n, 0);
  if (intra_n > 0) {
    EXPECT_LT(intra / intra_n, 0.5 * cross / cross_n);
  }
}

TEST(TransitStub, RejectsBadParams) {
  Rng rng(35);
  TransitStubParams params;
  params.transit_domains = 0;
  EXPECT_THROW((void)generate_transit_stub(params, rng), PreconditionError);
}

// --- Landmarks -------------------------------------------------------------------

TEST(Landmarks, TransitSpreadCoversDomains) {
  Rng rng(36);
  const auto topo =
      generate_transit_stub(TransitStubParams::ts5k_large(), rng, "large");
  const auto lms =
      select_landmarks(topo, 15, LandmarkStrategy::kTransitSpread, rng);
  EXPECT_EQ(lms.size(), 15u);
  std::set<Vertex> unique(lms.begin(), lms.end());
  EXPECT_EQ(unique.size(), 15u);
  // 15 = all transit vertices; they must cover all 5 transit domains.
  std::set<std::uint32_t> domains;
  for (const Vertex v : lms) {
    EXPECT_EQ(topo.vertices[v].kind, VertexKind::kTransit);
    domains.insert(topo.vertices[v].domain);
  }
  EXPECT_EQ(domains.size(), 5u);
}

TEST(Landmarks, RandomStrategiesRespectPools) {
  Rng rng(37);
  TransitStubParams params;
  params.transit_domains = 2;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 5;
  const auto topo = generate_transit_stub(params, rng, "t");
  const auto stubs =
      select_landmarks(topo, 6, LandmarkStrategy::kRandomStub, rng);
  for (const Vertex v : stubs)
    EXPECT_EQ(topo.vertices[v].kind, VertexKind::kStub);
  const auto any = select_landmarks(topo, 6, LandmarkStrategy::kRandomAny, rng);
  EXPECT_EQ(any.size(), 6u);
  EXPECT_THROW(
      (void)select_landmarks(topo, 99, LandmarkStrategy::kTransitSpread, rng),
      PreconditionError);
}

TEST(LandmarkVectors, MatchDirectDijkstra) {
  Rng rng(38);
  TransitStubParams params;
  params.transit_domains = 2;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 6;
  const auto topo = generate_transit_stub(params, rng, "t");
  const auto lms = select_landmarks(topo, 3, LandmarkStrategy::kRandomAny, rng);
  const LandmarkVectors lv(topo.graph, lms);
  EXPECT_EQ(lv.dimension(), 3u);
  for (std::size_t i = 0; i < lms.size(); ++i) {
    const auto direct = shortest_paths(topo.graph, lms[i]);
    for (Vertex v = 0; v < topo.graph.vertex_count(); ++v)
      EXPECT_DOUBLE_EQ(lv.distance(i, v), direct[v]);
  }
  const auto vec = lv.vector_of(0);
  EXPECT_EQ(vec.size(), 3u);
  EXPECT_GT(lv.max_distance(), 0.0);
}

TEST(LandmarkVectors, SameStubDomainHasSimilarVectors) {
  Rng rng(39);
  const auto topo =
      generate_transit_stub(TransitStubParams::ts5k_large(), rng, "large");
  const auto lms =
      select_landmarks(topo, 15, LandmarkStrategy::kTransitSpread, rng);
  const LandmarkVectors lv(topo.graph, lms);
  // Two nodes in the same stub domain: vectors differ by at most the stub
  // domain diameter in every coordinate.
  const auto stubs = topo.stub_vertices();
  Vertex a = stubs[0];
  Vertex b = a;
  for (const Vertex v : stubs)
    if (v != a && topo.vertices[v].domain == topo.vertices[a].domain) {
      b = v;
      break;
    }
  ASSERT_NE(a, b);
  const auto va = lv.vector_of(a);
  const auto vb = lv.vector_of(b);
  for (std::size_t d = 0; d < va.size(); ++d)
    EXPECT_LE(std::abs(va[d] - vb[d]), 12.0);
}

// --- DistanceOracle -----------------------------------------------------------------

TEST(DistanceOracle, MatchesDirectComputation) {
  Rng rng(40);
  TransitStubParams params;
  params.transit_domains = 2;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 6;
  const auto topo = generate_transit_stub(params, rng, "t");
  DistanceOracle oracle(topo.graph, 4);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = static_cast<Vertex>(rng.below(topo.graph.vertex_count()));
    const auto b = static_cast<Vertex>(rng.below(topo.graph.vertex_count()));
    EXPECT_DOUBLE_EQ(oracle.distance(a, b), shortest_paths(topo.graph, a)[b]);
  }
}

TEST(DistanceOracle, BatchGroupsBySource) {
  Rng rng(41);
  Graph g(50);
  for (Vertex v = 1; v < 50; ++v)
    g.add_edge(v, static_cast<Vertex>(rng.below(v)), 1.0);
  DistanceOracle oracle(g, 2);  // tiny cache
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (int i = 0; i < 200; ++i)
    pairs.emplace_back(static_cast<Vertex>(rng.below(5)),   // 5 sources
                       static_cast<Vertex>(rng.below(50)));
  const auto d = oracle.distances(pairs);
  ASSERT_EQ(d.size(), pairs.size());
  // Grouping means at most one Dijkstra per distinct source despite the
  // 2-row cache.
  EXPECT_LE(oracle.dijkstra_runs(), 5u);
  for (std::size_t i = 0; i < pairs.size(); ++i)
    EXPECT_DOUBLE_EQ(d[i],
                     shortest_paths(g, pairs[i].first)[pairs[i].second]);
}

TEST(DistanceOracle, CachesRepeatSources) {
  Rng rng(42);
  Graph g(30);
  for (Vertex v = 1; v < 30; ++v)
    g.add_edge(v, static_cast<Vertex>(rng.below(v)), 1.0);
  DistanceOracle oracle(g, 8);
  (void)oracle.distance(3, 10);
  (void)oracle.distance(3, 20);
  (void)oracle.distance(3, 29);
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
  EXPECT_DOUBLE_EQ(oracle.distance(7, 7), 0.0);
}

}  // namespace
}  // namespace p2plb::topo
