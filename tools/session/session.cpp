#include "session.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>

#include "common/error.h"
#include "common/table.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/format.h"
#include "obs/metrics.h"

namespace p2plb::obstool {

namespace {

/// Parses `<digits>/<digits>` -- no sign, no space, nothing after -- into
/// `keep` and `of`.
bool parse_ratio(std::string_view text, unsigned long long& keep,
                 unsigned long long& of) {
  const char* const end = text.data() + text.size();
  const auto [slash, keep_err] = std::from_chars(text.data(), end, keep);
  if (keep_err != std::errc() || slash == end || *slash != '/') return false;
  const auto [last, of_err] = std::from_chars(slash + 1, end, of);
  return of_err == std::errc() && last == end;
}

}  // namespace

void Session::add_flags(Cli& cli) {
  // Every output picks its format from its path suffix, case-insensitive.
  cli.add_flag("trace",
               "write the trace here: Chrome JSON, or JSONL / p2plb-btrace-1 "
               "streamed to disk when the name ends in .jsonl / .btrace "
               "(suffixes are case-insensitive)",
               "");
  cli.add_flag("trace-sample",
               "keep trace K of every M (e.g. 1/64), chosen by "
               "hash(trace_id, seed); empty keeps every trace",
               "");
  cli.add_flag("metrics",
               "write the metrics registry here (.csv: CSV, else text)", "");
  cli.add_flag("series",
               "write the health gauges and net.* metrics read at the start, "
               "at every window boundary and at the end here (.jsonl: "
               "JSONL, else CSV); implies --windows 10",
               "");
  cli.add_flag("windows",
               "bucket width of the windowed-metrics plane, closed on the "
               "engine's clock and fed from the network and health hooks "
               "(sim time; 0 = off)",
               "0");
  cli.add_flag("alerts",
               "evaluate the alert rules in this file ('<name> <metric> "
               "<agg>[:k[,k2]] <op> <threshold> [for <dur>]' per line) at "
               "window boundaries; implies --windows 10",
               "");
  cli.add_flag("alerts-out",
               "write the fired/resolved alerts here (p2plb-alerts-1; "
               ".jsonl: JSONL, else CSV)",
               "");
  cli.add_flag("flight-recorder",
               "dump the engine's recent events and queue state here at exit "
               "and on any anomaly",
               "");
  cli.add_flag("stall-ms",
               "flag an anomaly when one event callback runs longer than "
               "this many wall-clock ms (0 = off)",
               "0");
  cli.add_flag("profile",
               "write the host-time profile here (.folded: collapsed "
               "flamegraph stacks, else p2plb-prof-1 for p2plb_prof)",
               "");
}

Session::Session(const Cli& cli, std::uint64_t seed, std::size_t nodes)
    : trace_path_(cli.get_string("trace")),
      metrics_path_(cli.get_string("metrics")),
      series_path_(cli.get_string("series")),
      flight_path_(cli.get_string("flight-recorder")),
      profile_path_(cli.get_string("profile")),
      alerts_path_(cli.get_string("alerts")),
      alerts_out_(cli.get_string("alerts-out")),
      seed_(seed),
      nodes_(nodes),
      window_width_(cli.get_double("windows")),
      stall_ms_(cli.get_double("stall-ms")) {
  const std::string ratio = cli.get_string("trace-sample");
  P2PLB_REQUIRE_MSG(
      ratio.empty() || (parse_ratio(ratio, sample_keep_, sample_of_) &&
                        sample_of_ > 0 && sample_keep_ <= sample_of_),
      "--trace-sample must be K/M with K <= M (e.g. 1/64), got '" + ratio +
          "'");
  if (window_width_ <= 0.0)
    window_width_ = alerts_path_.empty() && series_path_.empty() ? 0.0 : 10.0;
}

bool Session::active() const noexcept {
  return !trace_path_.empty() || !metrics_path_.empty() ||
         !flight_path_.empty() || !profile_path_.empty() ||
         window_width_ > 0.0;
}

void Session::attach(sim::Engine& engine, sim::Network& net,
                     const lb::HealthProbe* health) {
  P2PLB_REQUIRE_MSG(engine_ == nullptr, "session already attached");
  engine_ = &engine;
  net_ = &net;
  health_ = health;
  if (!trace_path_.empty()) {
    // JSONL and binary stream straight to disk (trace memory stays O(1)
    // in run length); Chrome output is one JSON document, so it buffers.
    if (obs::path_has_extension(trace_path_, ".jsonl"))
      trace_sink_ = std::make_unique<obs::JsonlTraceSink>(trace_path_);
    else if (obs::path_has_extension(trace_path_, obs::kBinaryTraceExtension))
      trace_sink_ = std::make_unique<obs::BinaryTraceSink>(trace_path_);
    tracer_.set_sink(trace_sink_.get());
    if (sample_of_ > 1)
      tracer_.set_trace_sampling(sample_keep_, sample_of_, seed_);
    net.attach_tracer(&tracer_);
  }
  if (!flight_path_.empty()) {
    // Self-describing dumps: a failure artifact names its run and the
    // trace-sampling policy of the trace file it goes with (seed 0: the
    // tracer keeps every trace).
    engine.attach_flight_recorder(&recorder_.emplace());
    recorder_->set_note("nodes", std::to_string(nodes_));
    recorder_->set_note("seed", std::to_string(seed_));
    recorder_->set_note("trace_sample_keep", std::to_string(sample_keep_));
    recorder_->set_note("trace_sample_of", std::to_string(sample_of_));
    recorder_->set_note("trace_sample_seed",
                        std::to_string(sample_of_ > 1 ? seed_ : 0));
    engine.set_anomaly_hook([this](const std::string& what) {
      std::cerr << "ANOMALY: " << what << "\n";
      write_flight_dump();
    });
  }
  if (stall_ms_ > 0.0) engine.enable_stall_detector(stall_ms_);
  if (!profile_path_.empty()) {
    // Observes the wall clock only: the schedule and every trace byte
    // stay identical.
    engine.attach_profiler(&profiler_.emplace());
    net.attach_profiler(&*profiler_);
  }
  if (window_width_ > 0.0) {
    // Passive: the plane schedules nothing.  The engine closes its
    // buckets as its clock passes each boundary, so every probe reads the
    // state as of the boundary; the alert engine evaluates at every close.
    windows_.emplace(obs::WindowConfig{window_width_, 64});
    net.attach_windows(&*windows_);
    engine.attach_windows(&*windows_);
    if (health != nullptr) health->register_windows(*windows_);
    if (!alerts_path_.empty()) {
      alerts_.emplace(*windows_, obs::load_alert_rules_file(alerts_path_));
      if (!trace_path_.empty()) alerts_->attach_tracer(&tracer_);
      alerts_->attach_metrics(&net.metrics());
    }
    if (!series_path_.empty()) {
      read_series(engine.now());
      windows_->add_boundary_probe([this](double t) { read_series(t); });
    }
  }
  if (profiler_)
    run_scope_.emplace(&*profiler_, profiler_->intern("run", "driver"));
}

void Session::read_series(double t) {
  if (health_ != nullptr)
    for (const auto& [key, value] : health_->measure())
      series_.append(t, key, value);
  for (const auto& [key, value] : net_->metrics().snapshot().values)
    if (key.starts_with("net.")) series_.append(t, key, value);
}

void Session::mark(double t, std::string_view key, double value) {
  if (!series_path_.empty()) series_.append(t, key, value);
}

void Session::note_round(
    const std::array<lb::PhaseMetrics, lb::kPhaseCount>& phases) {
  if (!profiler_) return;
  constexpr std::array<std::string_view, lb::kPhaseCount> kPhaseTags = {
      lb::kTagAggregation, lb::kTagDissemination, lb::kTagVsa,
      lb::kTagTransfer};
  double round_end = phases[0].start;
  for (std::size_t p = 0; p < lb::kPhaseCount; ++p) {
    profiler_->note_span(kPhaseTags[p], phases[p].start, phases[p].end);
    round_end = std::max(round_end, phases[p].end);
  }
  profiler_->note_span("round", phases[0].start, round_end);
}

std::span<const obs::AlertEvent> Session::alert_events() const noexcept {
  if (!alerts_) return {};
  return alerts_->events();
}

void Session::write_flight_dump() const {
  std::ofstream os(flight_path_);
  engine_->write_flight_dump(os);
  std::cerr << "flight dump written to " << flight_path_ << "\n";
}

void Session::finish() {
  P2PLB_REQUIRE_MSG(engine_ != nullptr, "session not attached");
  run_scope_.reset();
  // Close the buckets the run's end passed first: trailing transitions
  // then reach the alert file, the trace and the metrics alike.  The
  // series ends with the final state even off a boundary.
  if (windows_) windows_->advance_to(engine_->now());
  if (!series_path_.empty() && engine_->now() > windows_->last_boundary())
    read_series(engine_->now());
  // Rules resolve their series lazily, so a rule whose metric never
  // registered stayed false at every boundary without a word.
  if (alerts_)
    for (const obs::AlertRule& rule : alerts_->rules())
      if (!windows_->find_series(rule.metric).valid())
        std::cerr << "warning: alert rule '" << rule.name
                  << "' never evaluated: no series '" << rule.metric
                  << "' was registered\n";
  if (alerts_ && !alerts_out_.empty()) {
    obs::write_alerts_file(*alerts_, alerts_out_);
    std::cerr << "alerts written to " << alerts_out_ << " ("
              << alerts_->events().size() << " transitions)\n";
  }
  if (!trace_path_.empty()) {
    if (trace_sink_) {
      trace_sink_->flush();
    } else {
      obs::write_trace_file(tracer_, trace_path_);
    }
    std::cerr << "trace written to " << trace_path_ << " ("
              << tracer_.event_count() << " events";
    if (sample_of_ > 1)
      std::cerr << ", sampled " << sample_keep_ << "/" << sample_of_;
    std::cerr << ")\n";
  }
  if (!series_path_.empty()) {
    obs::write_series_file(series_, series_path_);
    std::cerr << "series written to " << series_path_ << " ("
              << series_.size() << " samples)\n";
  }
  if (!metrics_path_.empty()) {
    engine_->export_metrics(net_->metrics());
    obs::write_metrics_file(net_->metrics(), metrics_path_);
    std::cerr << "metrics written to " << metrics_path_ << "\n";
  }
  if (profiler_) {
    profiler_->note_span("run", 0.0, engine_->now());
    profiler_->write_profile_file(profile_path_);
    std::cerr << "profile written to " << profile_path_ << " ("
              << Table::num(static_cast<double>(profiler_->total_ns()) / 1e6,
                            1)
              << " ms measured)\n";
  }
  if (!flight_path_.empty()) write_flight_dump();
}

}  // namespace p2plb::obstool
