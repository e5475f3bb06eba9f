// Ties the benchmark's round path to the historical bench rows: at
// 16,384 nodes, proximity-ignorant, seed 1, BENCH_baseline.json records
// 1,004,089 events, completion time 1527 and 35,696 transfers.
#include <gtest/gtest.h>

#include "workloads.h"

TEST(Continuity, RoundPathReproducesBaselineRow16k) {
  const auto round = perfbench::make_round_workload(16384, false, 1);
  (void)round->setup();
  const perfbench::Sample s = round->run(false);
  for (const auto& [name, ok] : s.checks) EXPECT_TRUE(ok) << name;
  EXPECT_EQ(s.model.at("sim.events"), 1004089.0);
  EXPECT_EQ(s.model.at("completion_time"), 1527.0);
  EXPECT_EQ(s.model.at("lb.transfers_applied"), 35696.0);
  EXPECT_EQ(s.model.at("topo.lazy_dijkstra_runs"), 0.0);
}

TEST(Continuity, TracedRepetitionMatchesUntraced) {
  const auto round = perfbench::make_round_workload(1024, true, 3);
  (void)round->setup();
  const perfbench::Sample plain = round->run(false);
  const perfbench::Sample traced = round->run(true);
  EXPECT_EQ(plain.model, traced.model);
  EXPECT_GT(traced.counts.at("topo.latency_calls"), 0.0);
}
