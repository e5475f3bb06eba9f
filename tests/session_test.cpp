// Tests for tools/session: the one observability wiring path of the
// experiment drivers.
//
// Pinned properties:
//   * a timed run wired through a Session writes the byte-identical JSONL
//     trace, metrics, series and alerts of the same run wired by hand
//     (the hand-wired version is the reference);
//   * finish() closes the final windows before it writes the trace, so a
//     Chrome trace carries every alert transition the alert file lists
//     and the reported event count equals the written one;
//   * --series leaves the trace and the event count unchanged;
//   * --trace-sample is validated at construction;
//   * finish() names every alert rule whose metric never registered;
//   * a session with no flags set schedules nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "lb/controller.h"
#include "lb/health.h"
#include "obs/alert.h"
#include "obs/binary_trace.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "session.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb {
namespace {

constexpr double kEpsilon = 0.05;

/// A parsed command line carrying the session flag set.
Cli session_cli(const std::vector<std::string>& args) {
  Cli cli;
  obstool::Session::add_flags(cli);
  std::vector<const char*> argv = {"session_test"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  return cli;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "session_test_" + name;
}

/// The whole file at `path`, which is then removed.
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  return bytes;
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size()))
    ++n;
  return n;
}

/// The p2plb_sim --timed scenario without a topology: `nodes` nodes with
/// five virtual servers each, Gaussian load at 25% utilization, up to
/// three balancing rounds over unit message latency.
struct Scenario {
  explicit Scenario(std::uint64_t seed, std::size_t nodes) : brng(seed + 2) {
    Rng rng(seed);
    ring = workload::build_ring(nodes, 5,
                                workload::CapacityProfile::gnutella_like(),
                                rng);
    workload::assign_loads(
        ring,
        workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian,
                                    0.25),
        rng);
    config.balancer.epsilon = kEpsilon;
  }

  lb::ControllerResult run() {
    return lb::balance_until_stable(net, ring, config, brng, {});
  }

  chord::Ring ring;
  lb::ControllerConfig config;
  Rng brng;
  sim::Engine engine;
  sim::Network net{engine, [](sim::Endpoint a, sim::Endpoint b) {
                     return a == b ? 0.0 : 1.0;
                   }};
  lb::HealthProbe health{ring, {kEpsilon, "health"}};
};

struct OutputPaths {
  std::string trace;
  std::string metrics;
  std::string series;
  std::string alerts;
};

OutputPaths paths_for(const std::string& tag) {
  return {temp_path(tag + "_trace.jsonl"), temp_path(tag + "_metrics.csv"),
          temp_path(tag + "_series.csv"), temp_path(tag + "_alerts.csv")};
}

TEST(Session, WiredRoundMatchesHandWiredReference) {
  // The reference: every sink built, attached and exported by hand.
  const OutputPaths ref = paths_for("ref");
  {
    Scenario s(3, 128);
    obs::Tracer tracer;
    obs::JsonlTraceSink jsonl(ref.trace);
    tracer.set_sink(&jsonl);
    s.net.attach_tracer(&tracer);
    obs::WindowedAggregator windows(obs::WindowConfig{10.0, 64});
    s.net.attach_windows(&windows);
    s.engine.attach_windows(&windows);
    s.health.register_windows(windows);
    obs::AlertEngine alerts(windows,
                            obs::load_alert_rules_file(P2PLB_ALERTS_CONF));
    alerts.attach_tracer(&tracer);
    alerts.attach_metrics(&s.net.metrics());
    // The series: health gauges plus net.* metrics, read at the start,
    // at every boundary and at the end.
    obs::TimeSeriesSink series;
    const auto read = [&s, &series](double t) {
      for (const auto& [key, value] : s.health.measure())
        series.append(t, key, value);
      for (const auto& [key, value] : s.net.metrics().snapshot().values)
        if (key.rfind("net.", 0) == 0) series.append(t, key, value);
    };
    read(s.engine.now());
    windows.add_boundary_probe(read);
    (void)s.run();
    windows.advance_to(s.engine.now());
    if (s.engine.now() > windows.last_boundary()) read(s.engine.now());
    obs::write_alerts_file(alerts, ref.alerts);
    jsonl.flush();
    obs::write_series_file(series, ref.series);
    s.engine.export_metrics(s.net.metrics());
    obs::write_metrics_file(s.net.metrics(), ref.metrics);
    ASSERT_FALSE(alerts.events().empty());  // the comparison covers alerts
  }

  const OutputPaths got = paths_for("session");
  {
    Scenario s(3, 128);
    const Cli cli = session_cli({"--trace", got.trace, "--metrics",
                                 got.metrics, "--series", got.series,
                                 "--alerts", P2PLB_ALERTS_CONF, "--alerts-out",
                                 got.alerts});
    obstool::Session session(cli, 3, 128);
    session.attach(s.engine, s.net, &s.health);
    (void)s.run();
    session.finish();
  }

  EXPECT_EQ(slurp(got.trace), slurp(ref.trace));
  EXPECT_EQ(slurp(got.metrics), slurp(ref.metrics));
  EXPECT_EQ(slurp(got.series), slurp(ref.series));
  EXPECT_EQ(slurp(got.alerts), slurp(ref.alerts));
}

// Regression: the final window close used to run after the trace was
// written, so transitions fired at the last boundary reached alerts.csv
// but not a Chrome trace, and a streamed trace's reported event count
// missed them.
TEST(Session, FinalWindowCloseReachesTheTrace) {
  const std::string chrome = temp_path("final_close.json");
  std::size_t transitions = 0;
  {
    Scenario s(4, 64);
    const Cli cli =
        session_cli({"--trace", chrome, "--alerts", P2PLB_ALERTS_CONF});
    obstool::Session session(cli, 4, 64);
    session.attach(s.engine, s.net, &s.health);
    (void)s.run();
    const double end = s.engine.now();
    session.finish();
    transitions = session.alert_events().size();
    // The scenario must exercise the bug: a transition at the boundary
    // only the final close evaluates.
    ASSERT_GT(transitions, 0u);
    EXPECT_GE(session.alert_events().back().t, end - 10.0);
  }
  EXPECT_EQ(count_of(slurp(chrome), "\"cat\":\"alert\""), transitions);

  const std::string jsonl = temp_path("final_close.jsonl");
  Scenario s(4, 64);
  const Cli cli =
      session_cli({"--trace", jsonl, "--alerts", P2PLB_ALERTS_CONF});
  obstool::Session session(cli, 4, 64);
  session.attach(s.engine, s.net, &s.health);
  (void)s.run();
  testing::internal::CaptureStderr();
  session.finish();
  const std::string reported = testing::internal::GetCapturedStderr();
  const std::string lines = slurp(jsonl);
  EXPECT_NE(reported.find("(" + std::to_string(count_of(lines, "\n")) +
                          " events)"),
            std::string::npos)
      << reported;
  EXPECT_EQ(count_of(lines, "\"lane\":\"alert\""), transitions);
}

// The series is read at window boundaries the engine closes on its own
// clock, so adding --series changes neither the trace nor the schedule.
TEST(Session, SeriesLeavesTheRunByteIdentical) {
  std::string traces[2];
  std::uint64_t events[2] = {};
  for (const bool with_series : {false, true}) {
    const std::string trace = temp_path("series_invariance.jsonl");
    const std::string series = temp_path("series_invariance.csv");
    std::vector<std::string> args = {"--trace", trace};
    if (with_series) args.insert(args.end(), {"--series", series});
    Scenario s(5, 128);
    obstool::Session session(session_cli(args), 5, 128);
    session.attach(s.engine, s.net, &s.health);
    (void)s.run();
    session.finish();
    traces[with_series] = slurp(trace);
    events[with_series] = s.engine.events_executed();
    if (with_series) {
      EXPECT_NE(count_of(slurp(series), "\n"), 0u);
    }
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(events[0], events[1]);
}

TEST(Session, MalformedTraceSampleIsRejected) {
  for (const char* bad :
       {"1", "5/4", "1/0", "a/b", "1/4x", "-1/4", "1/-1", "+1/4"}) {
    const Cli cli = session_cli({"--trace-sample", bad});
    EXPECT_THROW(obstool::Session(cli, 1, 1), PreconditionError) << bad;
  }
  const Cli ok = session_cli({"--trace-sample", "1/4"});
  EXPECT_NO_THROW(obstool::Session(ok, 1, 1));
}

TEST(Session, WarnsAboutAlertRulesThatNeverEvaluate) {
  // examples/alerts.conf's repair_burn reads ktree.repairs, which no
  // balancing round registers; the health.* rules resolve.
  Scenario s(6, 64);
  obstool::Session session(session_cli({"--alerts", P2PLB_ALERTS_CONF}), 6,
                           64);
  session.attach(s.engine, s.net, &s.health);
  (void)s.run();
  testing::internal::CaptureStderr();
  session.finish();
  const std::string warned = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(warned, "'repair_burn'"), 1u) << warned;
  EXPECT_EQ(count_of(warned, "'ktree.repairs'"), 1u) << warned;
  EXPECT_EQ(count_of(warned, "imbalance_high"), 0u) << warned;
}

TEST(Session, NoFlagsSchedulesNothing) {
  Scenario bare(5, 64);
  (void)bare.run();

  Scenario wired(5, 64);
  obstool::Session session(session_cli({}), 5, 64);
  EXPECT_FALSE(session.active());
  session.attach(wired.engine, wired.net, &wired.health);
  (void)wired.run();
  session.finish();

  EXPECT_EQ(wired.engine.events_executed(), bare.engine.events_executed());
  EXPECT_EQ(wired.net.totals().messages, bare.net.totals().messages);
}

}  // namespace
}  // namespace p2plb
