// Periodic sampling of system state onto a TimeSeriesSink.
//
// A Sampler owns the *cadence* of observation: on every tick it runs its
// probes (arbitrary callbacks such as lb::HealthProbe::sample_into) and
// snapshots its attached MetricsRegistry instances, appending one Sample
// per reading at the current simulated time.  It is driven by
// sim::Engine::every, but obs sits *below* sim in the layer order, so
// ensure_started() is a template over the engine type: the obs library
// never references sim symbols, and the template resolves in consumer
// TUs that link both (tools, examples, tests).
//
// Lifetime vs. engine drains: the timed balancing controller runs the
// engine to *idle* once per round (`engine.run()`), which a naively
// re-arming periodic chain would turn into an infinite loop.  The sampler
// therefore stops its chain when it finds the engine otherwise idle after
// a tick, and ensure_started() re-arms it at the start of the next round.
// (Inside a periodic callback the engine has already removed the
// callback's own event, so `pending() == 0` means "nothing else left".)
//
// Determinism: no sampler (a null Sampler*) is the off state.  A sampler
// adds events, but its ticks only read state, never mutate it.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace p2plb::obs {

/// Samples probes + registries into a TimeSeriesSink on a fixed period of
/// simulated time.
class Sampler {
 public:
  /// A probe appends whatever readings it likes at time `t`.
  using Probe = std::function<void(double t, TimeSeriesSink& sink)>;

  /// Sample every `period` units of simulated time into `sink` (both
  /// outlive the sampler).
  Sampler(TimeSeriesSink& sink, double period) : sink_(sink), period_(period) {
    P2PLB_REQUIRE_MSG(period > 0.0, "sample period must be positive");
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void add_probe(Probe probe) {
    P2PLB_REQUIRE(probe != nullptr);
    probes_.push_back(std::move(probe));
  }

  /// Snapshot `registry` on every tick, keeping the metrics whose
  /// canonical key starts with one of `prefixes` (all of them when
  /// `prefixes` is empty).  The registry must outlive the sampler.
  void add_registry(const MetricsRegistry& registry,
                    std::vector<std::string> prefixes = {}) {
    registries_.push_back({&registry, std::move(prefixes)});
  }

  /// Take one sample of everything, timestamped `t`.  Normally invoked by
  /// the periodic chain; public so callers can force a reading at an
  /// interesting instant (e.g. right after a scripted crash).
  void tick(double t) {
    for (const Probe& probe : probes_) probe(t, sink_);
    for (const auto& [registry, prefixes] : registries_) {
      const MetricsSnapshot snap = registry->snapshot();
      for (const auto& [key, value] : snap.values) {
        if (!prefixes.empty() && !matches_any(key, prefixes)) continue;
        sink_.append(t, key, value);
      }
    }
    ++ticks_;
  }

  /// (Re-)arm the periodic chain on `engine` (sim::Engine or
  /// compatible): one synchronous tick now, then one per period until the
  /// engine would otherwise go idle (see the header comment).  No-op while
  /// the chain is running.
  template <typename Engine>
  void ensure_started(Engine& engine) {
    if (running_) return;
    running_ = true;
    tick(engine.now());
    engine.every(period_, [this, &engine]() {
      tick(engine.now());
      if (engine.pending() == 0) {
        // The engine is about to drain; park the chain so run() returns.
        running_ = false;
        return false;
      }
      return true;
    });
  }

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Number of ticks taken so far.
  [[nodiscard]] std::size_t ticks() const noexcept { return ticks_; }

 private:
  struct RegistryProbe {
    const MetricsRegistry* registry;
    std::vector<std::string> prefixes;
  };

  static bool matches_any(const std::string& key,
                          const std::vector<std::string>& prefixes) {
    for (const std::string& p : prefixes)
      if (key.compare(0, p.size(), p) == 0) return true;
    return false;
  }

  TimeSeriesSink& sink_;
  double period_;
  std::vector<Probe> probes_;
  std::vector<RegistryProbe> registries_;
  bool running_ = false;
  std::size_t ticks_ = 0;
};

}  // namespace p2plb::obs
