// One benchmark process: set a workload up and run its simulated part,
// again and again until the measuring time is spent.  Each set-up and
// each repetition is printed as one JSON line; perfbench/run.py turns
// the lines into the benchmark's metrics and checks them.  Set-ups are
// interleaved with repetitions so that both sample the same stretch of
// a shared machine's drifting speed.
//
//   p2plb_perfbench --workload round_64k --seed 1 --seconds 25 --trace 0
//
// Run it from the repository root: churn_4k reads examples/alerts.conf.
//
// --trace 1 alternates untraced and traced repetitions, so the traced
// run can report its own overhead against untraced ones of the same seed.
#include <chrono>
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "workloads.h"

namespace {

using perfbench::Sample;

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf(", \"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}");
}

void print_sample(const char* type, bool traced, const Sample& s) {
  std::printf("{\"type\": \"%s\", \"traced\": %s, \"sim_s\": %.17g", type,
              traced ? "true" : "false", s.sim_s);
  print_map("times", s.times);
  print_map("model", s.model);
  print_map("counts", s.counts);
  std::printf(", \"checks\": {");
  const char* sep = "";
  for (const auto& [name, ok] : s.checks) {
    std::printf("%s\"%s\": %s", sep, name.c_str(), ok ? "true" : "false");
    sep = ", ";
  }
  std::printf("}, \"ops\": %zu, \"op_seconds\": [", s.ops);
  sep = "";
  for (const double v : s.op_seconds) {
    std::printf("%s%.17g", sep, v);
    sep = ", ";
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

/// One set-up sample: setup_batch() set-ups in a row, each layer span
/// averaged over them.  The repetition runs over the last set-up.
Sample batched_setup(perfbench::Workload& workload) {
  const std::size_t batch = workload.setup_batch();
  Sample mean = workload.setup();
  bool repeats = true;
  for (std::size_t i = 1; i < batch; ++i) {
    const Sample s = workload.setup();
    repeats = repeats && s.model == mean.model;
    for (const auto& [name, value] : s.times) mean.times[name] += value;
  }
  for (auto& [name, value] : mean.times)
    value /= static_cast<double>(batch);
  mean.checks["setups_repeat"] = repeats;
  return mean;
}

}  // namespace

int main(int argc, char** argv) {
  p2plb::Cli cli;
  cli.add_flag("workload", "round_64k, churn_4k or repair_4k", "");
  cli.add_flag("seed", "workload seed", "1");
  cli.add_flag("seconds", "host seconds of repetitions to measure", "10");
  cli.add_flag("trace", "1 = alternate untraced and traced repetitions",
               "0");
  cli.add_flag("alerts", "alert rules file churn_4k attaches",
               "examples/alerts.conf");
  if (!cli.parse(argc, argv)) return 0;
  const auto workload = perfbench::make_workload(
      cli.get_string("workload"),
      static_cast<std::uint64_t>(cli.get_int("seed")),
      cli.get_string("alerts"));
  const double budget = cli.get_double("seconds");
  const bool trace = cli.get_bool("trace");

  // At least two repetitions of each kind, so every run can check that
  // they repeat exactly.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  int untraced = 0, traced = 0;
  while (untraced < 2 || (trace && traced < 2) ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             budget) {
    const bool traced_rep = trace && traced < untraced;
    print_sample("setup", false, batched_setup(*workload));
    print_sample("rep", traced_rep, workload->run(traced_rep));
    ++(traced_rep ? traced : untraced);
  }
  std::printf("{\"type\": \"end\", \"peak_rss_mb\": %.17g, \"build\": \"%s\"}\n",
              perfbench::peak_rss_mb(), perfbench::build_stamp().c_str());
  return 0;
}
