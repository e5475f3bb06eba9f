// Tests for the time-series observability layer: TimeSeriesSink exports
// and loaders, re-convergence measurement, lb::HealthProbe gauges read at
// window boundaries, and the report generator.
//
// Two properties are pinned hard:
//   * a deterministic churn scenario with a scripted crash burst yields a
//     byte-stable series from which measure_reconvergence computes one
//     exact, finite recovery time;
//   * a series read at the boundaries of an engine-closed window plane
//     never changes the run -- the trace (timestamps included), the event
//     count, the transfers and the final loads match a run without it.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "lb/controller.h"
#include "lb/health.h"
#include "lb/protocol_round.h"
#include "obs/format.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb {
namespace {

// ---------------------------------------------------------------------------
// Format helpers
// ---------------------------------------------------------------------------

TEST(Format, PathHasExtensionIsCaseInsensitive) {
  EXPECT_TRUE(obs::path_has_extension("metrics.csv", ".csv"));
  EXPECT_TRUE(obs::path_has_extension("METRICS.CSV", ".csv"));
  EXPECT_TRUE(obs::path_has_extension("trace.JsOnL", ".jsonl"));
  EXPECT_FALSE(obs::path_has_extension("metrics.csv.txt", ".csv"));
  EXPECT_FALSE(obs::path_has_extension("metricscsv", ".csv"));
  EXPECT_FALSE(obs::path_has_extension("csv", ".csv"));  // shorter than ext
}

// ---------------------------------------------------------------------------
// TimeSeriesSink exports + loaders
// ---------------------------------------------------------------------------

/// A sink whose keys exercise the escaping paths: a label value with a
/// comma (canonical key contains one) and a quote in a plain key.
obs::TimeSeriesSink tricky_sink() {
  obs::TimeSeriesSink sink;
  sink.append(0.0, "health.nodes", 64.0);
  sink.append(2.5, "m", {{"tag", "a,b"}}, 0.125);
  sink.append(10.0, "quote\"y", 3.0);
  return sink;
}

TEST(TimeSeries, CsvExportIsGolden) {
  std::ostringstream os;
  tricky_sink().write_csv(os);
  EXPECT_EQ(os.str(),
            "time,metric,value\n"
            "0,health.nodes,64\n"
            "2.5,\"m{tag=a,b}\",0.125\n"
            "10,\"quote\"\"y\",3\n");
}

TEST(TimeSeries, JsonlExportIsGolden) {
  std::ostringstream os;
  tricky_sink().write_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"t\":0,\"metric\":\"health.nodes\",\"value\":64}\n"
            "{\"t\":2.5,\"metric\":\"m{tag=a,b}\",\"value\":0.125}\n"
            "{\"t\":10,\"metric\":\"quote\\\"y\",\"value\":3}\n");
}

TEST(TimeSeries, LoadersInvertTheWriters) {
  const obs::TimeSeriesSink sink = tricky_sink();
  std::ostringstream csv, jsonl;
  sink.write_csv(csv);
  sink.write_jsonl(jsonl);
  std::istringstream csv_in(csv.str()), jsonl_in(jsonl.str());
  EXPECT_EQ(obs::load_series_csv(csv_in), sink.samples());
  EXPECT_EQ(obs::load_series_jsonl(jsonl_in), sink.samples());
}

TEST(TimeSeries, FileRoundTripPicksFormatBySuffixCaseInsensitive) {
  const obs::TimeSeriesSink sink = tricky_sink();
  const std::string jsonl_path = testing::TempDir() + "series.JSONL";
  const std::string csv_path = testing::TempDir() + "series.csv";
  obs::write_series_file(sink, jsonl_path);
  obs::write_series_file(sink, csv_path);
  EXPECT_EQ(obs::load_series_file(jsonl_path), sink.samples());
  EXPECT_EQ(obs::load_series_file(csv_path), sink.samples());
  // The .JSONL file really is JSONL, not CSV.
  std::ifstream is(jsonl_path);
  std::string first;
  ASSERT_TRUE(std::getline(is, first));
  EXPECT_EQ(first.substr(0, 5), "{\"t\":");
  EXPECT_THROW(obs::write_series_file(sink, "/nonexistent-dir/s.csv"),
               PreconditionError);
  EXPECT_THROW((void)obs::load_series_file("/nonexistent-dir/s.csv"),
               PreconditionError);
}

TEST(TimeSeries, LoadersRejectMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW((void)obs::load_series_csv(empty), PreconditionError);
  std::istringstream bad_header("a,b,c\n");
  EXPECT_THROW((void)obs::load_series_csv(bad_header), PreconditionError);
  std::istringstream short_row("time,metric,value\n1,x\n");
  EXPECT_THROW((void)obs::load_series_csv(short_row), PreconditionError);
  std::istringstream bad_number("time,metric,value\n1,x,abc\n");
  EXPECT_THROW((void)obs::load_series_csv(bad_number), PreconditionError);
  std::istringstream bad_json("{\"x\":1}\n");
  EXPECT_THROW((void)obs::load_series_jsonl(bad_json), PreconditionError);
  std::istringstream trailing(
      "{\"t\":1,\"metric\":\"m\",\"value\":2}garbage\n");
  EXPECT_THROW((void)obs::load_series_jsonl(trailing), PreconditionError);
}

TEST(TimeSeries, KeyAndSeriesExtraction) {
  const obs::TimeSeriesSink sink = tricky_sink();
  EXPECT_EQ(obs::series_keys(sink.samples()),
            (std::vector<std::string>{"health.nodes", "m{tag=a,b}",
                                      "quote\"y"}));
  const auto points = obs::extract_series(sink.samples(), "m{tag=a,b}");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0], std::make_pair(2.5, 0.125));
  EXPECT_TRUE(obs::extract_series(sink.samples(), "missing").empty());
}

// ---------------------------------------------------------------------------
// measure_reconvergence
// ---------------------------------------------------------------------------

TEST(Reconvergence, MeasuresRecoveryAgainstThePreEventBaseline) {
  const std::vector<std::pair<double, double>> points{
      {0.0, 0.10}, {10.0, 0.12}, {20.0, 0.50},
      {30.0, 0.30}, {40.0, 0.12}, {50.0, 0.05}};
  const obs::Reconvergence rc = obs::measure_reconvergence(points, 15.0);
  EXPECT_TRUE(rc.converged);
  EXPECT_DOUBLE_EQ(rc.baseline, 0.12);  // last sample strictly before 15
  EXPECT_DOUBLE_EQ(rc.peak, 0.50);
  EXPECT_DOUBLE_EQ(rc.time, 25.0);  // first <= baseline at t = 40
  EXPECT_DOUBLE_EQ(rc.event_time, 15.0);
}

TEST(Reconvergence, SampleAtTheEventInstantIsExcluded) {
  // A reading stamped exactly at a scripted crash is ambiguous -- it may
  // or may not carry the spike; it must poison neither baseline nor
  // peak-side bookkeeping.
  const std::vector<std::pair<double, double>> points{
      {10.0, 0.1}, {15.0, 0.9}, {20.0, 0.8}, {25.0, 0.1}};
  const obs::Reconvergence rc = obs::measure_reconvergence(points, 15.0);
  EXPECT_DOUBLE_EQ(rc.baseline, 0.1);
  EXPECT_DOUBLE_EQ(rc.peak, 0.8);  // the t = 15 spike itself is excluded
  EXPECT_TRUE(rc.converged);
  EXPECT_DOUBLE_EQ(rc.time, 10.0);
}

TEST(Reconvergence, HandlesDegenerateSeries) {
  EXPECT_FALSE(obs::measure_reconvergence({}, 5.0).converged);
  // No post-event samples: not converged, baseline = last value.
  const obs::Reconvergence tail =
      obs::measure_reconvergence({{0.0, 0.2}, {1.0, 0.3}}, 5.0);
  EXPECT_FALSE(tail.converged);
  EXPECT_DOUBLE_EQ(tail.baseline, 0.3);
  EXPECT_DOUBLE_EQ(tail.peak, 0.3);
  // Never returns to baseline: peak tracked to the end of the series.
  const obs::Reconvergence stuck = obs::measure_reconvergence(
      {{0.0, 0.1}, {10.0, 0.6}, {20.0, 0.4}}, 5.0);
  EXPECT_FALSE(stuck.converged);
  EXPECT_DOUBLE_EQ(stuck.peak, 0.6);
}

/// Append `health`'s readings to `sink` at every boundary of `windows`,
/// stamped with the boundary time -- the series probe obstool::Session
/// adds for --series.
void read_health_at_boundaries(obs::WindowedAggregator& windows,
                               const lb::HealthProbe& health,
                               obs::TimeSeriesSink& sink) {
  windows.add_boundary_probe([&health, &sink](double t) {
    for (const auto& [key, value] : health.measure())
      sink.append(t, key, value);
  });
}

// ---------------------------------------------------------------------------
// Schedule invariance of the engine-closed series plane
// ---------------------------------------------------------------------------

struct TimedOutcome {
  std::uint64_t events_executed = 0;
  std::size_t transfers = 0;
  std::string trace_jsonl;
  std::vector<double> node_loads;
  std::size_t samples = 0;
};

TimedOutcome run_timed_controller(bool with_series) {
  Rng rng(41);
  auto ring = workload::build_ring(
      32, 3, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian),
      rng);
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  obs::Tracer tracer;
  net.attach_tracer(&tracer);
  obs::TimeSeriesSink sink;
  obs::WindowedAggregator windows(obs::WindowConfig{2.0, 16});
  lb::HealthProbe health(ring, {0.1, "health"});
  if (with_series) {
    net.attach_windows(&windows);
    engine.attach_windows(&windows);
    health.register_windows(windows);
    read_health_at_boundaries(windows, health, sink);
  }

  lb::ControllerConfig config;
  config.max_rounds = 3;
  Rng brng(7);
  const lb::ControllerResult result =
      lb::balance_until_stable(net, ring, config, brng, {});

  TimedOutcome out;
  out.events_executed = engine.events_executed();
  out.transfers = result.total_transfers();
  std::ostringstream os;
  tracer.write_jsonl(os);
  out.trace_jsonl = os.str();
  for (const chord::NodeIndex i : ring.live_nodes())
    out.node_loads.push_back(ring.node_load(i));
  out.samples = sink.size();
  return out;
}

TEST(SeriesInvariance, EngineClosedPlaneLeavesTheRunByteIdentical) {
  const TimedOutcome none = run_timed_controller(false);
  const TimedOutcome series = run_timed_controller(true);
  // The engine closes the plane's buckets on its own clock and schedules
  // nothing: the trace is byte-identical, timestamps included, and not a
  // single event is added.
  EXPECT_EQ(none.trace_jsonl, series.trace_jsonl);
  EXPECT_EQ(none.events_executed, series.events_executed);
  EXPECT_EQ(none.transfers, series.transfers);
  EXPECT_EQ(none.node_loads, series.node_loads);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_GT(series.samples, 0u);
}

// ---------------------------------------------------------------------------
// HealthProbe
// ---------------------------------------------------------------------------

TEST(HealthProbe, ComputesExactGaugesOnAHandBuiltRing) {
  chord::Ring ring;
  const auto a = ring.add_node(1.0);
  const auto b = ring.add_node(3.0);
  ring.add_virtual_server(a, 0x40000000u);
  ring.add_virtual_server(b, 0x80000000u);
  ring.add_virtual_server(b, 0xC0000000u);
  ring.set_load(0x40000000u, 2.0);
  ring.set_load(0x80000000u, 0.5);
  ring.set_load(0xC0000000u, 0.5);
  // L = 3, C = 4, fair = 0.75; unit_a = 2 / 0.75, unit_b = 1 / 2.25.
  lb::HealthProbe probe(ring, {0.1, "health"});
  std::map<std::string, double> g;
  for (const auto& [key, value] : probe.measure()) g[key] = value;
  EXPECT_DOUBLE_EQ(g.at("health.nodes"), 2.0);
  EXPECT_DOUBLE_EQ(g.at("health.heavy_fraction"), 0.5);  // only node a
  EXPECT_DOUBLE_EQ(g.at("health.max_unit_load"), 2.0 / 0.75);
  EXPECT_DOUBLE_EQ(g.at("health.mean_unit_load"),
                   (2.0 / 0.75 + 1.0 / 2.25) / 2.0);
  EXPECT_DOUBLE_EQ(g.at("health.vs_per_node{q=max}"), 2.0);
  EXPECT_DOUBLE_EQ(g.at("health.vs_per_node{q=p50}"), 1.5);
  EXPECT_GT(g.at("health.imbalance"), 1.0);
  EXPECT_GT(g.at("health.gini_unit_load"), 0.0);
}

TEST(HealthProbe, WindowedGaugesMatchMeasure) {
  Rng rng(909);
  auto ring = workload::build_ring(
      32, 3, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian),
      rng);
  lb::HealthProbe probe(ring, {0.1, "health"});
  obs::WindowedAggregator windows(obs::WindowConfig{10.0, 8});
  probe.register_windows(windows);

  // Each closing bucket must carry exactly what measure() reads off the
  // same ring -- also after the ring shrinks under the column.
  auto expect_same = [&](const char* when) {
    std::map<std::string, double> g;
    for (const auto& [key, value] : probe.measure()) g[key] = value;
    for (const char* gauge : {"heavy_fraction", "imbalance", "mean_unit_load",
                              "max_unit_load"}) {
      const std::string key = std::string("health.") + gauge;
      EXPECT_EQ(windows.last_over(windows.find_series(key), 1), g.at(key))
          << key << " " << when;
    }
    EXPECT_EQ(windows.count_over(windows.find_series("health.unit_load"), 1),
              ring.live_node_count())
        << when;
  };
  windows.advance_to(10.0);
  ASSERT_EQ(windows.closed_buckets(), 1u);
  expect_same("at the first boundary");

  ring.remove_node(ring.live_nodes().front());
  windows.advance_to(20.0);
  ASSERT_EQ(windows.closed_buckets(), 2u);
  expect_same("after a node left");
}

// ---------------------------------------------------------------------------
// The acceptance scenario: crash burst -> spike -> pinned re-convergence
// ---------------------------------------------------------------------------

/// Deterministic mini churn run: 64 nodes balancing every 100 time units,
/// a burst of 8 crashes (plus a load redraw) at t = 350, health read at
/// t = 0 and at every boundary of a width-10 plane the engine closes.
/// (Seed re-pinned when Node::servers became canonically sorted.)
obs::TimeSeriesSink run_crash_burst_scenario() {
  Rng rng(2025);
  auto ring = workload::build_ring(
      64, 3, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian),
      rng);
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  obs::TimeSeriesSink sink;
  obs::WindowedAggregator windows(obs::WindowConfig{10.0, 64});
  engine.attach_windows(&windows);
  lb::HealthProbe health(ring, {0.1, "health"});
  for (const auto& [key, value] : health.measure())
    sink.append(0.0, key, value);
  read_health_at_boundaries(windows, health, sink);

  int started = 0;
  std::vector<std::unique_ptr<lb::ProtocolRound>> rounds;
  lb::ProtocolRoundConfig rconfig;
  rconfig.balancer.epsilon = 0.1;
  engine.every(100.0, [&] {
    rounds.push_back(
        std::make_unique<lb::ProtocolRound>(net, ring, rconfig, rng));
    rounds.back()->start();
    return ++started < 8;
  });
  engine.schedule_after(350.0, [&] {
    Rng crng(7);
    for (int k = 0; k < 8; ++k) {
      const auto live = ring.live_nodes();
      ring.remove_node(live[crng.below(live.size())]);
    }
    workload::assign_loads(
        ring,
        workload::scaled_load_model(ring,
                                    workload::LoadDistribution::kGaussian),
        crng);
    sink.append(engine.now(), "event.crash", 8.0);
  });
  engine.run_until(850.0);
  windows.advance_to(engine.now());
  return sink;
}

TEST(CrashBurstGolden, ReconvergenceTimeIsFiniteAndPinned) {
  const obs::TimeSeriesSink sink = run_crash_burst_scenario();
  const auto heavy =
      obs::extract_series(sink.samples(), "health.heavy_fraction");
  ASSERT_GT(heavy.size(), 50u);
  const obs::Reconvergence rc = obs::measure_reconvergence(heavy, 350.0);
  // The burst must be visible and the system must demonstrably recover.
  EXPECT_TRUE(rc.converged);
  EXPECT_GT(rc.peak, rc.baseline);
  // Pinned: the scenario is deterministic, so these are exact.  The
  // rounds before the crash fully balance the system (baseline 0); the
  // burst plus load redraw leaves 23 of the 56 survivors heavy, and the
  // round at t = 400 works it back to zero by t = 440.
  EXPECT_DOUBLE_EQ(rc.baseline, 0.0);
  EXPECT_DOUBLE_EQ(rc.peak, 23.0 / 56.0);
  EXPECT_DOUBLE_EQ(rc.time, 90.0);
}

TEST(CrashBurstGolden, ScenarioIsByteDeterministic) {
  std::ostringstream a, b;
  run_crash_burst_scenario().write_csv(a);
  run_crash_burst_scenario().write_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(CrashBurstGolden, ReportPipelineComputesTheSameRecovery) {
  // End-to-end through the file formats: export, reload, analyze -- the
  // exact path tools/p2plb_report takes.
  const obs::TimeSeriesSink sink = run_crash_burst_scenario();
  const std::string path = testing::TempDir() + "burst_series.csv";
  obs::write_series_file(sink, path);
  const std::vector<obs::Sample> samples = obs::load_series_file(path);
  const obs::ExperimentReport report = obs::analyze(samples, {});
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_DOUBLE_EQ(report.events[0].magnitude, 8.0);
  const obs::Reconvergence direct = obs::measure_reconvergence(
      obs::extract_series(sink.samples(), "health.heavy_fraction"), 350.0);
  EXPECT_EQ(report.events[0].reconvergence.converged, direct.converged);
  EXPECT_DOUBLE_EQ(report.events[0].reconvergence.time, direct.time);

  std::ostringstream md;
  obs::write_markdown_report(md, samples, {}, {});
  EXPECT_NE(md.str().find("## Convergence under churn"), std::string::npos);
  EXPECT_NE(md.str().find("| yes |"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Report generator on synthetic input
// ---------------------------------------------------------------------------

TEST(Report, AnalyzeFoldsSeriesAndEvents) {
  std::vector<obs::Sample> samples{
      {0.0, "health.heavy_fraction", 0.1},
      {10.0, "health.heavy_fraction", 0.1},
      {15.0, "event.crash", 4.0},
      {20.0, "health.heavy_fraction", 0.6},
      {30.0, "health.heavy_fraction", 0.05},
  };
  const obs::ExperimentReport report = obs::analyze(samples, {});
  ASSERT_EQ(report.series.size(), 2u);
  EXPECT_EQ(report.series[0].key, "event.crash");
  EXPECT_EQ(report.series[1].key, "health.heavy_fraction");
  EXPECT_EQ(report.series[1].count, 4u);
  EXPECT_DOUBLE_EQ(report.series[1].first, 0.1);
  EXPECT_DOUBLE_EQ(report.series[1].last, 0.05);
  EXPECT_DOUBLE_EQ(report.series[1].max, 0.6);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_DOUBLE_EQ(report.events[0].magnitude, 4.0);
  EXPECT_TRUE(report.events[0].reconvergence.converged);
  EXPECT_DOUBLE_EQ(report.events[0].reconvergence.time, 15.0);
  EXPECT_THROW((void)obs::analyze({}, {}), PreconditionError);
}

TEST(Report, MarkdownContainsAllSections) {
  std::vector<obs::Sample> samples{
      {0.0, "health.heavy_fraction", 0.1},
      {15.0, "event.crash", 4.0},
      {20.0, "health.heavy_fraction", 0.6},
      {30.0, "health.heavy_fraction", 0.05},
  };
  std::map<std::string, double> metrics{
      {"net.messages", 123.0},
      {"lb.transfer_distance/count", 5.0},
      {"lb.transfer_distance/p50", 2.0},
      {"lb.transfer_distance/p99", 7.5},
  };
  std::ostringstream os;
  obs::write_markdown_report(os, samples, metrics, {});
  const std::string md = os.str();
  EXPECT_NE(md.find("# Experiment report"), std::string::npos);
  EXPECT_NE(md.find("## Convergence under churn"), std::string::npos);
  EXPECT_NE(md.find("## Series overview"), std::string::npos);
  EXPECT_NE(md.find("## Health before / after"), std::string::npos);
  EXPECT_NE(md.find("## Moved load by distance"), std::string::npos);
  EXPECT_NE(md.find("## Traffic totals"), std::string::npos);
  EXPECT_NE(md.find("| net.messages | 123 |"), std::string::npos);
  // Markdown tables, not CSV: header separators present.
  EXPECT_NE(md.find("|---|"), std::string::npos);
}

TEST(Report, LoadMetricsCsvInvertsRegistryExport) {
  obs::MetricsRegistry reg;
  reg.counter("msgs", {{"tag", "a,b"}}).add(2.0);
  reg.gauge("depth").set(1.5);
  std::ostringstream os;
  reg.write_csv(os);
  std::istringstream is(os.str());
  const std::map<std::string, double> loaded = obs::load_metrics_csv(is);
  EXPECT_DOUBLE_EQ(loaded.at("msgs{tag=a,b}"), 2.0);
  EXPECT_DOUBLE_EQ(loaded.at("depth"), 1.5);
  std::istringstream bad("wrong,header\n");
  EXPECT_THROW((void)obs::load_metrics_csv(bad), PreconditionError);
}

}  // namespace
}  // namespace p2plb
