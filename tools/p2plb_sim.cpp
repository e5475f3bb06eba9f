// p2plb_sim -- the all-in-one experiment driver.
//
// Composes every knob of the library behind one command line: topology
// (none / ts5k-large / ts5k-small), workload (gaussian / pareto /
// zipf-objects), balancing mode (ignorant / aware), the epsilon /
// threshold / degree knobs, and multi-round control.  Prints the phase
// breakdown, balance outcome, and (with a topology) the transfer-cost
// profile.  `--csv` makes every table machine-readable.
//
// With `--timed`, rounds run as event-driven protocols (lb::ProtocolRound)
// over simulated message latencies -- shortest-path distances when a
// topology is given, unit latency otherwise -- and the round table gains
// a completion-time column plus a per-phase timing breakdown.
//
// The observability flags (`--trace`, `--metrics`, `--series`,
// `--alerts`, `--profile`, ...) are tools/session's; any of them implies
// `--timed`.  `--alerts` adds an alert-transition table and `--profile`
// the tools/prof hot-frame and sim x host crosstab tables.
//
//   $ p2plb_sim --topology ts5k-large --workload gaussian --mode aware
//   $ p2plb_sim --nodes 1024 --workload zipf --zipf 1.1 --rounds 4
//   $ p2plb_sim --topology ts5k-small --timed
//   $ p2plb_sim --timed --trace trace.json --metrics metrics.csv
//   $ p2plb_sim --windows 5 --series series.csv
//   $ p2plb_sim --alerts examples/alerts.conf --alerts-out alerts.csv
#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>

#include "bench_util.h"
#include "common/stats.h"
#include "lb/controller.h"
#include "lb/health.h"
#include "lb/protocol_round.h"
#include "lb/proximity.h"
#include "lb/vst.h"
#include "prof_analysis.h"
#include "session.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/objects.h"

namespace {

using namespace p2plb;

int run(const Cli& cli) {
  const bool csv = cli.get_bool("csv");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes"));
  const auto servers = static_cast<std::size_t>(cli.get_int("servers"));
  const std::string topology_name = cli.get_string("topology");
  const std::string workload_name = cli.get_string("workload");
  const std::string mode = cli.get_string("mode");

  // --- topology + ring ---------------------------------------------------
  Rng rng(seed);
  std::optional<topo::TransitStubTopology> topology;
  std::vector<std::uint32_t> attachments;
  if (topology_name != "none") {
    topo::TransitStubParams tparams;
    if (topology_name == "ts5k-large") {
      tparams = topo::TransitStubParams::ts5k_large();
    } else if (topology_name == "ts5k-small") {
      tparams = topo::TransitStubParams::ts5k_small();
    } else {
      std::cerr << "unknown --topology (none|ts5k-large|ts5k-small)\n";
      return 1;
    }
    topology = topo::generate_transit_stub(tparams, rng, topology_name);
    const auto stubs = topology->stub_vertices();
    attachments.resize(nodes);
    const auto picks =
        rng.sample_indices(stubs.size(), std::min(nodes, stubs.size()));
    for (std::size_t i = 0; i < nodes; ++i)
      attachments[i] = stubs[picks[i % picks.size()]];
  }
  auto ring = workload::build_ring(
      nodes, servers, workload::CapacityProfile::gnutella_like(), rng,
      attachments);

  // --- workload ------------------------------------------------------------
  const double utilization = cli.get_double("utilization");
  if (workload_name == "gaussian" || workload_name == "pareto") {
    const auto dist = workload_name == "gaussian"
                          ? workload::LoadDistribution::kGaussian
                          : workload::LoadDistribution::kPareto;
    workload::assign_loads(
        ring, workload::scaled_load_model(ring, dist, utilization), rng);
  } else if (workload_name == "zipf") {
    workload::ObjectWorkloadParams oparams;
    oparams.object_count =
        static_cast<std::size_t>(cli.get_int("objects"));
    oparams.zipf_exponent = cli.get_double("zipf");
    oparams.total_load = utilization * ring.total_capacity();
    workload::assign_object_loads(ring,
                                  workload::generate_objects(oparams, rng));
  } else {
    std::cerr << "unknown --workload (gaussian|pareto|zipf)\n";
    return 1;
  }

  // --- proximity keys --------------------------------------------------------
  std::vector<chord::Key> keys;
  lb::ControllerConfig config;
  config.max_rounds = static_cast<std::uint32_t>(cli.get_int("rounds"));
  config.balancer.epsilon = cli.get_double("epsilon");
  config.balancer.tree_degree =
      static_cast<std::uint32_t>(cli.get_int("degree"));
  config.balancer.rendezvous_threshold =
      static_cast<std::size_t>(cli.get_int("threshold"));
  if (mode == "aware") {
    if (!topology) {
      std::cerr << "--mode aware requires a --topology\n";
      return 1;
    }
    lb::ProximityConfig pconfig;
    pconfig.landmark_count =
        static_cast<std::size_t>(cli.get_int("landmarks"));
    pconfig.bits_per_dimension =
        static_cast<std::uint32_t>(cli.get_int("bits"));
    Rng prng(seed + 1);
    keys = lb::build_proximity_map(ring, *topology, pconfig, prng)
               .node_keys;
    config.balancer.mode = lb::BalanceMode::kProximityAware;
  } else if (mode != "ignorant") {
    std::cerr << "unknown --mode (ignorant|aware)\n";
    return 1;
  }

  // --- run ---------------------------------------------------------------------
  print_heading(std::cout, "configuration");
  Table cfg({"nodes", "servers/node", "topology", "workload", "mode",
             "epsilon", "K", "threshold", "rounds"});
  cfg.add_row({std::to_string(nodes), std::to_string(servers),
               topology_name, workload_name, mode,
               Table::num(config.balancer.epsilon, 2),
               std::to_string(config.balancer.tree_degree),
               std::to_string(config.balancer.rendezvous_threshold),
               std::to_string(config.max_rounds)});
  bench::emit(cfg, csv);

  const double fair_before = ring.total_load() / ring.total_capacity();
  std::vector<double> unit_before;
  for (const chord::NodeIndex i : ring.live_nodes())
    unit_before.push_back(ring.node_load(i) /
                          (fair_before * ring.node(i).capacity));

  // Keep pre-transfer assignments for cost accounting (first round).
  Rng brng(seed + 2);
  obstool::Session session(cli, seed, nodes);
  const bool timed = cli.get_bool("timed") || session.active();
  lb::ControllerResult result;
  std::optional<topo::DistanceOracle> oracle;
  if (timed) {
    // Event-driven rounds over real message latencies: shortest paths
    // between attachment vertices with a topology, unit latency without.
    sim::Engine engine;
    sim::Latency latency;
    if (topology) {
      oracle.emplace(topology->graph, std::max<std::size_t>(nodes, 64));
      latency = oracle->latency();
    } else {
      latency = sim::Latency{nullptr, [](void*, sim::Endpoint a,
                                         sim::Endpoint b) -> sim::Time {
        return a == b ? 0.0 : 1.0;
      }};
    }
    sim::Network net(engine, latency);
    const lb::HealthProbe health(ring, {config.balancer.epsilon, "health"});
    session.attach(engine, net, &health);
    result = lb::balance_until_stable(net, ring, config, brng, keys);
    for (const lb::RoundStats& s : result.rounds) session.note_round(s.phases);
    session.finish();
  } else {
    result = lb::balance_until_stable(ring, config, brng, keys);
  }

  print_heading(std::cout, "balance rounds");
  Table rounds({"round", "heavy before", "heavy after", "transfers",
                "moved load", "unassigned", "messages", "completion time"});
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    const auto& s = result.rounds[r];
    rounds.add_row({std::to_string(r + 1), std::to_string(s.heavy_before),
                    std::to_string(s.heavy_after),
                    std::to_string(s.transfers),
                    Table::num(s.moved_load, 1),
                    std::to_string(s.unassigned),
                    std::to_string(s.messages),
                    timed ? Table::num(s.completion_time, 1)
                          : std::string("-")});
  }
  bench::emit(rounds, csv);

  if (timed && !result.rounds.empty()) {
    print_heading(std::cout, "per-phase breakdown (first round)");
    bench::emit(bench::phase_table(result.rounds.front().phases), csv);
  }

  if (const obs::Profiler* profiler = session.profiler()) {
    // Where the host's wall clock went, and the sim x host crosstab: the
    // p2plb_prof reports over the profile's p2plb-prof-1 text.
    std::stringstream text;
    profiler->write_profile(text);
    const proftool::Profile profile = proftool::parse_profile(text);
    print_heading(std::cout, "host-time hot frames");
    bench::emit(proftool::top_table(profile, profile.frames.size()), csv);
    print_heading(std::cout, "sim-time x host-time crosstab");
    bench::emit(proftool::crosstab_table(profile), csv);
  }

  if (session.alerting()) {
    print_heading(std::cout, "alert transitions");
    Table alerts_table({"time", "rule", "event", "value", "threshold"});
    for (const obs::AlertEvent& e : session.alert_events())
      alerts_table.add_row({Table::num(e.t, 1), e.rule,
                            e.fire ? "fire" : "resolve",
                            Table::num(e.value, 3),
                            Table::num(e.threshold, 3)});
    if (session.alert_events().empty())
      alerts_table.add_row({"-", "-", "-", "-", "-"});
    bench::emit(alerts_table, csv);
  }

  print_heading(std::cout, "balance quality (load / fair share)");
  std::vector<double> unit_after;
  for (const chord::NodeIndex i : ring.live_nodes())
    unit_after.push_back(ring.node_load(i) /
                         (fair_before * ring.node(i).capacity));
  const Summary b = summarize(unit_before);
  const Summary a = summarize(unit_after);
  Table quality({"phase", "median", "p95", "p99", "max", "gini"});
  quality.add_row({"before", Table::num(b.median, 3), Table::num(b.p95, 2),
                   Table::num(b.p99, 2), Table::num(b.max, 2),
                   Table::num(gini(unit_before), 3)});
  quality.add_row({"after", Table::num(a.median, 3), Table::num(a.p95, 2),
                   Table::num(a.p99, 2), Table::num(a.max, 2),
                   Table::num(gini(unit_after), 3)});
  bench::emit(quality, csv);

  std::cout << (result.converged
                    ? "\nconverged: no overloaded nodes remain\n"
                    : "\nstopped before full convergence (see unassigned "
                      "column; raise --epsilon or --rounds)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("nodes", "number of DHT nodes", "4096");
  cli.add_flag("servers", "virtual servers per node", "5");
  cli.add_flag("seed", "root RNG seed", "1");
  cli.add_flag("topology", "none | ts5k-large | ts5k-small", "none");
  cli.add_flag("workload", "gaussian | pareto | zipf", "gaussian");
  cli.add_flag("utilization", "mean total load / total capacity", "0.25");
  cli.add_flag("objects", "catalog size for --workload zipf", "100000");
  cli.add_flag("zipf", "Zipf exponent for --workload zipf", "0.8");
  cli.add_flag("mode", "ignorant | aware (aware needs a topology)",
               "ignorant");
  cli.add_flag("epsilon", "target slack", "0.05");
  cli.add_flag("degree", "K-nary tree degree", "2");
  cli.add_flag("threshold", "rendezvous threshold", "30");
  cli.add_flag("rounds", "max balancing rounds", "3");
  cli.add_flag("landmarks", "landmark count (aware mode)", "15");
  cli.add_flag("bits", "Hilbert grid bits per dimension", "2");
  cli.add_flag("timed",
               "run rounds event-driven over simulated latencies (implied "
               "by any observability output)",
               "false");
  p2plb::obstool::Session::add_flags(cli);
  cli.add_flag("csv", "emit CSV tables", "false");
  if (!cli.parse(argc, argv)) return 0;
  return run(cli);
}
