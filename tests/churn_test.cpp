// A pinned digest of timed balancing rounds under membership churn.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "lb/protocol_round.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/load_model.h"
#include "workload/scenario.h"

namespace p2plb::workload {
namespace {

/// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

// A seeded churn_simulation-style scenario: Poisson joins and graceful
// leaves between rounds, loads redrawn every interval, one crash burst
// under a round in flight.  The digest covers every round's assignments
// and the final ring (ids, owners, load bits), so any change to ring
// order, node sums, shed-set selection or transfer application shows.
// The value was recorded before the ring's lookup structures were
// rebuilt and must hold in every build type.
TEST(ChurnDigest, TimedRoundsUnderChurnArePinned) {
  constexpr std::size_t kNodes = 256;
  constexpr std::size_t kIntervals = 8;
  constexpr sim::Time kInterval = 600.0;
  constexpr double kChurnPerInterval = 12.0;
  constexpr std::size_t kCrashRound = 3;
  constexpr std::size_t kCrashBurst = 10;

  Rng rng(2718);
  const CapacityProfile capacities = CapacityProfile::gnutella_like();
  chord::Ring ring = build_ring(kNodes, 5, capacities, rng);
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  Fnv1a digest;

  const sim::Time churn_end = kInterval * static_cast<double>(kIntervals);
  auto schedule_churn = [&](auto&& self, bool is_join) -> void {
    const sim::Time delay = rng.exponential(kInterval / kChurnPerInterval);
    if (engine.now() + delay >= churn_end) return;
    engine.schedule_after(delay, [&, is_join] {
      if (is_join) {
        const auto fresh = ring.add_node(capacities.sample(rng));
        for (int v = 0; v < 5; ++v)
          (void)ring.add_random_virtual_server(fresh, rng);
      } else {
        std::vector<chord::NodeIndex> live = ring.live_nodes();
        const auto leaving = live[rng.below(live.size())];
        std::erase(live, leaving);
        for (const chord::Key vs :
             std::vector<chord::Key>(ring.node(leaving).servers))
          ring.transfer_virtual_server(vs, live[rng.below(live.size())]);
        ring.remove_node(leaving);
      }
      self(self, is_join);
    });
  };
  schedule_churn(schedule_churn, true);
  schedule_churn(schedule_churn, false);

  std::vector<std::unique_ptr<lb::ProtocolRound>> rounds;
  engine.every(kInterval, [&] {
    assign_loads(ring, scaled_load_model(ring, LoadDistribution::kGaussian),
                 rng);
    lb::ProtocolRoundConfig config;
    config.balancer.epsilon = 0.1;
    rounds.push_back(
        std::make_unique<lb::ProtocolRound>(net, ring, config, rng));
    rounds.back()->start([&](const lb::BalanceReport& r) {
      digest.add(static_cast<std::uint64_t>(r.vsa.assignments.size()));
      for (const lb::Assignment& a : r.vsa.assignments) {
        digest.add(static_cast<std::uint64_t>(a.vs));
        digest.add(static_cast<std::uint64_t>(a.from));
        digest.add(static_cast<std::uint64_t>(a.to));
        digest.add(a.load);
      }
      digest.add(static_cast<std::uint64_t>(r.transfers_applied));
      digest.add(r.completion_time);
    });
    if (rounds.size() == kCrashRound) {
      engine.schedule_after(1.0, [&] {
        for (std::size_t c = 0; c < kCrashBurst; ++c) {
          const std::vector<chord::NodeIndex> live = ring.live_nodes();
          ring.remove_node(live[rng.below(live.size())]);
        }
      });
    }
    return rounds.size() < kIntervals;
  });
  engine.run_until(kInterval * (static_cast<double>(kIntervals) + 0.5));

  ASSERT_EQ(rounds.size(), kIntervals);
  for (const auto& r : rounds) ASSERT_TRUE(r->done());
  ring.for_each_server([&](const chord::VirtualServer& vs) {
    digest.add(static_cast<std::uint64_t>(vs.id));
    digest.add(static_cast<std::uint64_t>(vs.owner));
    digest.add(vs.load);
  });
  for (const chord::NodeIndex i : ring.live_nodes())
    digest.add(ring.node_load(i));
  EXPECT_EQ(digest.value(), 0x4353D3A054B7D87Cull);
}

}  // namespace
}  // namespace p2plb::workload
