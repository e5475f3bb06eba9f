// Tests for the churn models, an end-to-end run of Chord stabilization
// under a realistic heavy-tailed churn schedule, and a pinned digest of
// timed balancing rounds under membership churn.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <memory>

#include "chord/stabilization.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "lb/protocol_round.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/churn.h"
#include "workload/load_model.h"
#include "workload/scenario.h"

namespace p2plb::workload {
namespace {

TEST(ChurnModel, SessionMeansMatch) {
  Rng rng(1001);
  for (const auto model :
       {SessionModel::kExponential, SessionModel::kPareto}) {
    ChurnParams params;
    params.session_model = model;
    params.session_mean = 100.0;
    params.pareto_alpha = 3.0;  // finite variance for a tight test
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
      s.add(sample_session_length(params, rng));
    EXPECT_NEAR(s.mean(), 100.0, 2.5) << "model " << static_cast<int>(model);
  }
}

TEST(ChurnModel, ParetoIsHeavierTailedThanExponential) {
  Rng rng(1002);
  ChurnParams exp_params;
  exp_params.session_model = SessionModel::kExponential;
  ChurnParams par_params;
  par_params.session_model = SessionModel::kPareto;
  par_params.pareto_alpha = 1.5;
  // Same mean; compare the tail mass beyond 10x the mean.
  int exp_tail = 0, par_tail = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    if (sample_session_length(exp_params, rng) >
        10.0 * exp_params.session_mean)
      ++exp_tail;
    if (sample_session_length(par_params, rng) >
        10.0 * par_params.session_mean)
      ++par_tail;
  }
  EXPECT_GT(par_tail, 5 * exp_tail);
}

TEST(ChurnSchedule, OrderedAndPaired) {
  Rng rng(1003);
  ChurnParams params;
  params.join_interarrival_mean = 5.0;
  params.session_mean = 50.0;
  const auto schedule = generate_churn_schedule(params, 1000.0, rng);
  ASSERT_FALSE(schedule.empty());
  std::map<std::uint64_t, int> seen;  // session -> join(+1)/leave(-1) order
  sim::Time prev = 0.0;
  for (const auto& e : schedule) {
    EXPECT_GE(e.at, prev);
    EXPECT_LT(e.at, 1000.0);
    prev = e.at;
    if (e.kind == ChurnEvent::Kind::kJoin) {
      EXPECT_EQ(seen[e.session], 0);  // join before leave, once
      seen[e.session] = 1;
    } else {
      EXPECT_EQ(seen[e.session], 1);  // leave only after its join
      seen[e.session] = 2;
    }
  }
}

TEST(ChurnSchedule, PopulationTracksLittlesLaw) {
  Rng rng(1004);
  ChurnParams params;
  params.join_interarrival_mean = 2.0;
  params.session_mean = 100.0;
  params.session_model = SessionModel::kExponential;
  const double expected = steady_state_population(params);  // 50
  const auto schedule = generate_churn_schedule(params, 4000.0, rng);
  // Count the live population at a late instant.
  int population = 0;
  for (const auto& e : schedule) {
    if (e.at > 3000.0) break;
    population += e.kind == ChurnEvent::Kind::kJoin ? 1 : -1;
  }
  EXPECT_NEAR(population, expected, 4.0 * std::sqrt(expected));
}

TEST(ChurnSchedule, RejectsBadParams) {
  Rng rng(1005);
  ChurnParams params;
  params.join_interarrival_mean = 0.0;
  EXPECT_THROW((void)generate_churn_schedule(params, 10.0, rng),
               PreconditionError);
  ChurnParams bad_alpha;
  bad_alpha.pareto_alpha = 1.0;
  EXPECT_THROW((void)sample_session_length(bad_alpha, rng),
               PreconditionError);
}

// --- end-to-end: Chord stabilization under the churn schedule ---------------

TEST(ChurnIntegration, StabilizationSurvivesRealisticChurn) {
  Rng rng(1006);
  sim::Engine engine;
  chord::StabilizationParams sparams;
  sparams.successor_list_length = 8;
  sparams.fix_fingers_interval = 0.2;
  chord::StabilizingRing ring(engine, sparams);
  const chord::Key bootstrap_id = 0x42424242u;
  ring.bootstrap(bootstrap_id);

  ChurnParams churn;
  churn.join_interarrival_mean = 4.0;   // a join every ~4 time units
  churn.session_mean = 120.0;           // sessions of ~120 units
  churn.pareto_alpha = 1.5;
  const auto schedule = generate_churn_schedule(churn, 400.0, rng);

  std::map<std::uint64_t, chord::Key> session_ids;
  for (const auto& e : schedule) {
    if (e.kind == ChurnEvent::Kind::kJoin) {
      const auto id = static_cast<chord::Key>(rng() >> 32);
      session_ids[e.session] = id;
      engine.schedule_at(e.at, [&ring, id, bootstrap_id] {
        if (!ring.is_live_participant(id)) ring.join(id, bootstrap_id);
      });
    } else {
      const chord::Key id = session_ids.at(e.session);
      // The join completes asynchronously; a leave racing an unfinished
      // join simply finds nobody to kill (the peer "left while joining").
      engine.schedule_at(e.at, [&ring, id] {
        if (ring.is_live_participant(id)) ring.crash(id);
      });
    }
  }
  engine.run_until(400.0);
  // Quiet period: churn stops, stabilization heals whatever is stale
  // (backward pred-walk from a far fallback successor takes one step per
  // stabilize round, so allow a generous healing window).
  engine.run_until(700.0);
  EXPECT_GT(ring.live_count(), 10u);
  EXPECT_TRUE(ring.ring_consistent());
}

// --- pinned digest: timed balancing rounds under membership churn ----------

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
