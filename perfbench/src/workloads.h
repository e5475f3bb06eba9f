// The benchmark's workloads, driven from outside the simulator through
// each layer's public API.
//
// A workload is set up once per seed (topology, deployment, oracle fill,
// proximity map) and then repeated: every repetition copies the set-up
// ring and rng, so all repetitions of one seed simulate exactly the same
// thing.  Host time is taken around the calls into each layer by the
// benchmark itself; exact counts come from the layers' public accessors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// What one set-up or one repetition measured.
struct Sample {
  /// Host seconds per layer span, summed over the calls in this sample.
  std::map<std::string, double> times;
  /// Modelled results and simulator counts: identical in every
  /// repetition of one seed, traced or not.
  std::map<std::string, double> model;
  /// Counts taken only in traced repetitions (instrumented latency,
  /// trees built from outside).
  std::map<std::string, double> counts;
  /// Output checks; any false fails the repetition.
  std::map<std::string, bool> checks;
  /// Protocol operations started (balancing rounds, repairs): each is
  /// attempted, and each fails if the repetition fails a check.
  std::size_t ops = 0;
  /// Host seconds of each started operation that finished.
  std::vector<double> op_seconds;
  /// Host seconds from the end of set-up to the end of the simulation.
  double sim_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs from the seed, replacing any earlier set-up.
  virtual Sample setup() = 0;
  /// One repetition over the last set-up.  `traced` attaches the host
  /// profiler and counting wrappers; untraced repetitions attach nothing.
  virtual Sample run(bool traced) = 0;
  /// Set-ups timed together as one set-up sample, so that a sample runs
  /// well over 100 ms and timer and scheduler noise stay small beside it.
  [[nodiscard]] virtual std::size_t setup_batch() const { return 1; }
};

/// One proximity-aware or -ignorant ProtocolRound on a ts5k-small
/// deployment (round_64k; the continuity test uses other sizes).
std::unique_ptr<Workload> make_round_workload(std::size_t nodes,
                                              bool proximity_aware,
                                              std::uint64_t seed);

/// The named benchmark workload; `alerts_path` is the alert rules file
/// churn_4k attaches.  Throws on an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& alerts_path);

/// Compiler and build type this benchmark was built with.
std::string build_stamp();

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
