// Fuzz tests: random operation sequences against the Ring, checking
// structural invariants after every step and every query against a
// std::map reference, plus histogram/CDF behaviour against brute-force
// recomputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "chord/ring.h"
#include "common/error.h"
#include "common/histogram.h"
#include "common/rng.h"

namespace p2plb {
namespace {

/// The Ring's global invariants, checked O(V log V).
void check_ring_invariants(const chord::Ring& ring) {
  // Arc sizes tile the identifier space exactly.
  if (ring.virtual_server_count() > 0) {
    std::uint64_t total = 0;
    for (const chord::Key id : ring.server_ids()) {
      total += ring.arc_size(id);
      // Owner cross-consistency: the owner's server list contains it.
      const auto& servers = ring.node(ring.server(id).owner).servers;
      EXPECT_NE(std::find(servers.begin(), servers.end(), id),
                servers.end());
      EXPECT_TRUE(ring.node(ring.server(id).owner).alive);
    }
    EXPECT_EQ(total, chord::kSpaceSize);
  }
  // Node-side consistency: every listed server exists and points back.
  std::size_t listed = 0;
  for (const chord::NodeIndex i : ring.live_nodes()) {
    for (const chord::Key id : ring.node(i).servers) {
      ASSERT_TRUE(ring.has_server(id));
      EXPECT_EQ(ring.server(id).owner, i);
      ++listed;
    }
  }
  EXPECT_EQ(listed, ring.virtual_server_count());
}

class RingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingFuzz, InvariantsSurviveRandomOperations) {
  Rng rng(GetParam());
  chord::Ring ring;
  // Seed membership so operations have something to act on.
  for (int i = 0; i < 4; ++i) {
    const auto n = ring.add_node(rng.uniform(1.0, 100.0));
    for (int v = 0; v < 2; ++v)
      (void)ring.add_random_virtual_server(n, rng);
  }
  for (int step = 0; step < 400; ++step) {
    const auto op = rng.below(100);
    const auto live = ring.live_nodes();
    if (op < 20) {  // add node (+servers)
      const auto n = ring.add_node(rng.uniform(1.0, 100.0));
      const auto servers = 1 + rng.below(4);
      for (std::uint64_t v = 0; v < servers; ++v)
        (void)ring.add_random_virtual_server(n, rng);
    } else if (op < 40 && !live.empty()) {  // add server to existing node
      (void)ring.add_random_virtual_server(
          live[rng.below(live.size())], rng);
    } else if (op < 55 && ring.virtual_server_count() > 1) {  // remove VS
      const auto ids = ring.server_ids();
      ring.remove_virtual_server(ids[rng.below(ids.size())]);
    } else if (op < 70 && live.size() > 1) {  // transfer VS
      const auto ids = ring.server_ids();
      if (!ids.empty())
        ring.transfer_virtual_server(ids[rng.below(ids.size())],
                                     live[rng.below(live.size())]);
    } else if (op < 80 && live.size() > 2) {  // crash node
      ring.remove_node(live[rng.below(live.size())]);
    } else if (ring.virtual_server_count() > 0) {  // set load
      const auto ids = ring.server_ids();
      ring.set_load(ids[rng.below(ids.size())], rng.uniform(0.0, 50.0));
    }
    if (step % 40 == 0) check_ring_invariants(ring);
  }
  check_ring_invariants(ring);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- differential: Ring vs a std::map reference ----------------------------

struct RefServer {
  chord::NodeIndex owner = 0;
  double load = 0.0;
};
using RefRing = std::map<chord::Key, RefServer>;

/// Every query of `ring` against the key-ordered reference.  Sums are
/// compared bit for bit: the ring promises key-order addition.
void expect_matches(const chord::Ring& ring, const RefRing& ref, Rng& rng) {
  ASSERT_EQ(ring.virtual_server_count(), ref.size());
  std::vector<chord::Key> ids;
  double total = 0.0;
  std::map<chord::NodeIndex, double> node_total;
  std::map<chord::NodeIndex, double> node_min;
  for (const auto& [id, s] : ref) {
    ids.push_back(id);
    total += s.load;
    node_total[s.owner] += s.load;
    const auto [it, fresh] = node_min.emplace(s.owner, s.load);
    if (!fresh) it->second = std::min(it->second, s.load);
  }
  ASSERT_EQ(ring.server_ids(), ids);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ring.total_load()),
            std::bit_cast<std::uint64_t>(total));

  std::vector<std::tuple<chord::Key, chord::NodeIndex, double>> walked;
  ring.for_each_server([&](const chord::VirtualServer& vs) {
    walked.emplace_back(vs.id, vs.owner, vs.load);
  });
  ASSERT_EQ(walked.size(), ref.size());

  std::size_t k = 0;
  for (auto it = ref.begin(); it != ref.end(); ++it, ++k) {
    const chord::Key id = it->first;
    EXPECT_EQ(walked[k], std::make_tuple(id, it->second.owner,
                                         it->second.load));
    ASSERT_TRUE(ring.has_server(id));
    EXPECT_EQ(ring.server_owner(id), it->second.owner);
    EXPECT_EQ(ring.server_load(id), it->second.load);
    const chord::Key pred =
        it == ref.begin() ? ref.rbegin()->first : std::prev(it)->first;
    EXPECT_EQ(ring.predecessor_key(id), pred);
    EXPECT_EQ(ring.arc_size(id), ref.size() == 1
                                     ? chord::kSpaceSize
                                     : chord::distance_cw(pred, id));
  }

  // successor() at random keys, at every id and just past every id.
  auto expect_successor = [&](chord::Key key) {
    if (ref.empty()) return;
    auto it = ref.lower_bound(key);
    if (it == ref.end()) it = ref.begin();
    const chord::VirtualServer got = ring.successor(key);
    EXPECT_EQ(got.id, it->first) << "successor(" << key << ")";
    EXPECT_EQ(got.owner, it->second.owner);
    EXPECT_EQ(got.load, it->second.load);
  };
  for (int q = 0; q < 16; ++q) {
    const auto key = static_cast<chord::Key>(rng() >> 32);
    expect_successor(key);
    EXPECT_EQ(ring.has_server(key), ref.contains(key));
    if (!ref.contains(key)) {
      EXPECT_THROW((void)ring.predecessor_key(key), PreconditionError);
      EXPECT_THROW((void)ring.arc_size(key), PreconditionError);
    }
  }
  for (const chord::Key id : ids) {
    expect_successor(id);
    expect_successor(static_cast<chord::Key>(id + 1));
  }

  for (const chord::NodeIndex i : ring.live_nodes()) {
    const auto t = node_total.find(i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ring.node_load(i)),
              std::bit_cast<std::uint64_t>(
                  t == node_total.end() ? 0.0 : t->second))
        << "node " << i;
    const auto m = node_min.find(i);
    EXPECT_EQ(ring.node_min_server_load(i),
              m == node_min.end() ? std::nullopt
                                  : std::optional<double>(m->second));
  }
}

/// A Ring and its reference, mutated in lockstep.
struct Lockstep {
  chord::Ring ring;
  RefRing ref;

  chord::NodeIndex add_node() { return ring.add_node(1.0); }
  void add(chord::NodeIndex owner, chord::Key id) {
    ring.add_virtual_server(owner, id);
    ref.emplace(id, RefServer{owner, 0.0});
  }
  void remove(chord::Key id) {
    ring.remove_virtual_server(id);
    ref.erase(id);
  }
  void remove_node(chord::NodeIndex n) {
    ring.remove_node(n);
    std::erase_if(ref, [n](const auto& e) { return e.second.owner == n; });
  }
  void transfer(chord::Key id, chord::NodeIndex to) {
    ring.transfer_virtual_server(id, to);
    ref.at(id).owner = to;
  }
  void set_load(chord::Key id, double load) {
    ring.set_load(id, load);
    ref.at(id).load = load;
  }
};

/// (seed, dense ids, check after every operation)
class RingDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {
};

TEST_P(RingDifferential, MatchesMapReference) {
  const auto [seed, dense, every_op] = GetParam();
  Rng rng(seed);
  Lockstep m;
  std::vector<chord::Key> removed;  // candidates for re-adding
  // Dense ids straddle 0, so the ring wraps and the same ids recur.
  auto draw_id = [&]() -> chord::Key {
    if (!removed.empty() && rng.chance(0.3)) {
      const std::size_t pick = rng.below(removed.size());
      const chord::Key id = removed[pick];
      removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(pick));
      if (!m.ref.contains(id)) return id;
    }
    for (;;) {
      const auto id = dense ? static_cast<chord::Key>(rng.below(600) - 300)
                            : static_cast<chord::Key>(rng() >> 32);
      if (!m.ref.contains(id)) return id;
    }
  };
  auto random_id = [&] {
    return std::next(m.ref.begin(),
                     static_cast<std::ptrdiff_t>(rng.below(m.ref.size())))
        ->first;
  };
  const std::size_t steps = every_op ? 400 : 4000;
  for (std::size_t step = 0; step < steps; ++step) {
    const std::vector<chord::NodeIndex> live = m.ring.live_nodes();
    const auto op = rng.below(100);
    if (op < 12 || live.size() < 3) {
      const chord::NodeIndex n = m.add_node();
      for (std::uint64_t v = 1 + rng.below(5); v > 0; --v) m.add(n, draw_id());
    } else if (op < 40 && m.ref.size() < 350) {
      m.add(live[rng.below(live.size())], draw_id());
    } else if (op < 55 && !m.ref.empty()) {
      const chord::Key id = random_id();
      m.remove(id);
      removed.push_back(id);
    } else if (op < 62) {
      const chord::NodeIndex n = live[rng.below(live.size())];
      for (const chord::Key id : m.ring.node(n).servers) removed.push_back(id);
      m.remove_node(n);
    } else if (op < 78 && !m.ref.empty()) {
      m.transfer(random_id(), live[rng.below(live.size())]);
    } else if (!m.ref.empty()) {
      // Coarse loads tie often; fine ones exercise bit-exact sums.
      m.set_load(random_id(), rng.chance(0.3)
                                  ? static_cast<double>(rng.below(4))
                                  : rng.uniform(0.0, 50.0));
    }
    if (every_op || step % 500 == 499) {
      expect_matches(m.ring, m.ref, rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_matches(m.ring, m.ref, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Sequences, RingDifferential,
    ::testing::Combine(::testing::Values(7, 8, 9), ::testing::Bool(),
                       ::testing::Bool()));

TEST(RingDifferential, SlotRecycledToAnotherIdBeforeOrderedQuery) {
  Rng rng(1);
  Lockstep m;
  const chord::NodeIndex a = m.add_node();
  const chord::NodeIndex b = m.add_node();
  for (const chord::Key id : {100u, 200u, 300u, 400u}) m.add(a, id);
  m.set_load(200, 2.5);
  expect_matches(m.ring, m.ref, rng);
  // 200's slot is the only free one, so 250 reuses it; no ordered query
  // runs in between.
  m.remove(200);
  m.add(b, 250);
  m.set_load(250, 7.0);
  EXPECT_FALSE(m.ring.has_server(200));
  EXPECT_EQ(m.ring.successor(150).id, 250u);
  expect_matches(m.ring, m.ref, rng);
  // Recycled twice over, ending on an id below every other.
  m.remove(250);
  m.add(a, 50);
  m.remove(50);
  m.add(b, 0xFFFFFFF0u);
  EXPECT_EQ(m.ring.predecessor_key(100), 0xFFFFFFF0u);
  expect_matches(m.ring, m.ref, rng);
}

TEST(RingDifferential, SameIdRemovedAndReAdded) {
  Rng rng(2);
  Lockstep m;
  const chord::NodeIndex a = m.add_node();
  const chord::NodeIndex b = m.add_node();
  for (const chord::Key id : {10u, 20u, 30u}) m.add(a, id);
  expect_matches(m.ring, m.ref, rng);
  // Back into its own slot, with an ordered query neither before nor
  // after the removal: the ring must still list it once.
  m.remove(20);
  m.add(b, 20);
  m.set_load(20, 4.0);
  expect_matches(m.ring, m.ref, rng);
  // The same, while the id is still in the unsorted tail.
  m.add(a, 40);
  m.remove(40);
  m.add(b, 40);
  expect_matches(m.ring, m.ref, rng);
  // Removed and re-added on a crashed node's freed slots.
  m.remove_node(a);
  m.add(b, 10);
  m.add(b, 30);
  expect_matches(m.ring, m.ref, rng);
}

TEST(RingDifferential, CopyWhileAddsArePending) {
  Rng rng(3);
  Lockstep m;
  const chord::NodeIndex a = m.add_node();
  for (int i = 0; i < 40; ++i)
    m.add(a, static_cast<chord::Key>(rng() >> 32));
  expect_matches(m.ring, m.ref, rng);
  const chord::Key gone = m.ref.begin()->first;
  m.remove(gone);
  for (int i = 0; i < 10; ++i)
    m.add(a, static_cast<chord::Key>(rng() >> 32));
  // Both copies hold the same pending adds and removal; each folds them
  // in on its own.
  Lockstep copy = m;
  const chord::NodeIndex c = copy.add_node();
  copy.add(c, gone);
  copy.transfer(std::next(copy.ref.begin(), 3)->first, c);
  expect_matches(copy.ring, copy.ref, rng);
  expect_matches(m.ring, m.ref, rng);
  EXPECT_FALSE(m.ring.has_server(gone));
}

// --- histogram / CDF vs brute force --------------------------------------------

class HistogramFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramFuzz, MatchesBruteForce) {
  Rng rng(GetParam());
  const std::size_t bins = 1 + rng.below(12);
  const double lo = rng.uniform(-10.0, 0.0);
  const double hi = lo + rng.uniform(1.0, 30.0);
  Histogram h = Histogram::uniform(lo, hi, bins);
  std::vector<double> values, weights;
  const std::size_t n = 50 + rng.below(500);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(rng.uniform(lo - 5.0, hi + 5.0));
    weights.push_back(rng.uniform(0.0, 3.0));
    h.add(values.back(), weights.back());
  }
  // Brute-force per-bin totals.
  double total = 0.0;
  for (const double w : weights) total += w;
  EXPECT_NEAR(h.total(), total, 1e-9);
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      if (values[i] >= h.bin_lo(b) && values[i] < h.bin_hi(b))
        expected += weights[i];
    EXPECT_NEAR(h.count(b), expected, 1e-9) << "bin " << b;
  }
  // CDF at each sample point matches weight_fraction_below.
  const auto cdf = weighted_cdf(values, weights);
  for (const auto& point : cdf) {
    EXPECT_NEAR(point.fraction,
                weight_fraction_below(values, weights, point.x), 1e-9);
  }
  // The CDF is non-decreasing and ends at 1.
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LT(cdf[i - 1].x, cdf[i].x);
    EXPECT_LE(cdf[i - 1].fraction, cdf[i].fraction + 1e-12);
  }
  if (!cdf.empty()) {
    EXPECT_NEAR(cdf.back().fraction, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace p2plb
