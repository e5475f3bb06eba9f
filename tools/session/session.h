// The one observability wiring path of p2plb_sim, churn_simulation and
// time_protocol.  A Session declares the flag set (add_flags), builds and
// attaches the requested sinks -- trace, metrics, windowed metrics with
// their alerts and health series, profiler, flight recorder -- to a run's
// engine and network (attach), and exports them all (finish) in one fixed
// order: final window close, alerts, trace, series, metrics, profile,
// flight dump.  So what the final window close emits (trailing alert
// transitions and the last series reading) reaches every output.
//
// It lives in tools/ rather than src/obs because it composes sim::Engine,
// sim::Network and lb::HealthProbe; the layer DAG forbids obs -> sim/lb.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/cli.h"
#include "lb/balancer.h"
#include "lb/health.h"
#include "obs/alert.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/core/flight_recorder.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace p2plb::obstool {

class Session {
 public:
  /// Register the flag set: trace, trace-sample, metrics, series,
  /// windows, alerts, alerts-out, flight-recorder, stall-ms, profile.
  static void add_flags(Cli& cli);

  /// Read the flags.  `seed` seeds trace sampling; it and `nodes` label
  /// flight-recorder dumps.  Throws PreconditionError unless
  /// `--trace-sample` is empty or K/M with K <= M.
  Session(const Cli& cli, std::uint64_t seed, std::size_t nodes);
  // attach() hands `this` to engine and window-plane callbacks.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// True when a flag asks for an output that needs an event-driven run.
  [[nodiscard]] bool active() const noexcept;

  /// Attach every requested sink to `engine` and `net` (schedules
  /// nothing); the windowed plane's buckets close on `engine`'s clock.
  /// `health` (may be null) feeds the plane and the series.  All three
  /// must live until finish().  With --series, the series gets one
  /// reading now and one at every window boundary.  With --profile, host
  /// time from here to finish() is measured under one "run" frame.
  void attach(sim::Engine& engine, sim::Network& net,
              const lb::HealthProbe* health);

  /// Append the marker sample `key` = `value` at `t` to the series.
  /// No-op without --series.
  void mark(double t, std::string_view key, double value);
  /// Note one round's phase windows and its span on the profiler's
  /// sim-time axis, named after the network tags so the crosstab joins
  /// them to the matching frames.  No-op without --profile.
  void note_round(const std::array<lb::PhaseMetrics, lb::kPhaseCount>& phases);
  /// Close the final windows and export every requested output.
  void finish();

  [[nodiscard]] bool alerting() const noexcept { return alerts_.has_value(); }
  [[nodiscard]] std::span<const obs::AlertEvent> alert_events() const noexcept;
  /// The host-time profiler (null without --profile).
  [[nodiscard]] const obs::Profiler* profiler() const noexcept {
    return profiler_ ? &*profiler_ : nullptr;
  }

 private:
  void write_flight_dump() const;
  /// Append one series reading stamped `t`: the health gauges plus the
  /// registry's net.* metrics.
  void read_series(double t);

  std::string trace_path_, metrics_path_, series_path_, flight_path_;
  std::string profile_path_, alerts_path_, alerts_out_;
  unsigned long long sample_keep_ = 1, sample_of_ = 1;
  std::uint64_t seed_;
  std::size_t nodes_;
  double window_width_;  ///< 0 = no windowed plane
  double stall_ms_;

  sim::Engine* engine_ = nullptr;
  sim::Network* net_ = nullptr;
  const lb::HealthProbe* health_ = nullptr;
  obs::Tracer tracer_;
  std::unique_ptr<obs::TraceSink> trace_sink_;  ///< null: Chrome, buffered
  std::optional<sim::core::FlightRecorder> recorder_;
  std::optional<obs::Profiler> profiler_;
  std::optional<obs::Profiler::Scope> run_scope_;  ///< attach() .. finish()
  std::optional<obs::WindowedAggregator> windows_;
  std::optional<obs::AlertEngine> alerts_;
  obs::TimeSeriesSink series_;
};

}  // namespace p2plb::obstool
