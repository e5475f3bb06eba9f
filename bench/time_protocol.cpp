// Protocol-level timing (Sections 3.1-3.2 claims, measured in simulated
// time rather than round counts):
//
//   * LBI aggregation and dissemination completion time over the K-nary
//     tree with unit remote-message latency (parent-child edges between
//     KT nodes on the same physical node are free) -- the paper's
//     "bound in O(log_K N) time";
//   * soft-state self-repair: time for the maintenance protocol to
//     reconverge after crashing 10% of the nodes, in units of the
//     periodic check interval -- the paper's "completely reconstructed
//     in O(log_K N) time in a top-down fashion";
//   * one full event-driven balancing round (lb::ProtocolRound) on a
//     transit-stub topology with shortest-path latencies: per-phase
//     message/byte/timing breakdown and end-to-end completion time.
//
// The observability flags (tools/session) capture the timed round
// (--timed-nodes).  Performance is measured elsewhere: perfbench/run.py
// is the macro benchmark, tools/bench_delta.py snapshots and compares it,
// and bench/micro_kernels times the kernels -- the event queue (wheel vs
// heap: BM_EngineThroughput/0 vs /1) and each observability sink's
// overhead on a timed round (BM_TracedRound/<sink>).
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "ktree/protocol.h"
#include "ktree/tree.h"
#include "lb/health.h"
#include "lb/protocol_round.h"
#include "session.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace {

using namespace p2plb;

/// The sampling period `--series` implies without `--sample-every`.
constexpr double kSeriesPeriod = 5.0;

/// Binary-search the reconvergence instant to one check period.
sim::Time measure_recovery(sim::Engine& engine,
                           ktree::MaintenanceProtocol& protocol,
                           sim::Time interval, sim::Time budget) {
  const sim::Time start = engine.now();
  while (engine.now() - start < budget) {
    engine.run_until(engine.now() + interval);
    if (protocol.converged()) return engine.now() - start;
  }
  return -1.0;  // did not converge within budget (reported as such)
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("sizes", "comma-separated node counts", "128,512,2048");
  cli.add_flag("degrees", "comma-separated K values", "2,8");
  cli.add_flag("servers", "virtual servers per node", "5");
  cli.add_flag("seed", "root RNG seed", "1");
  cli.add_flag("crash-fraction", "fraction of nodes to crash", "0.1");
  cli.add_flag("timed-nodes",
               "ring size for the end-to-end timed balancing round", "512");
  p2plb::obstool::Session::add_flags(cli, kSeriesPeriod);
  cli.add_flag("csv", "emit CSV instead of aligned tables", "false");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto servers = static_cast<std::size_t>(cli.get_int("servers"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double crash_fraction = cli.get_double("crash-fraction");

  print_heading(std::cout,
                "simulated sweep latency and self-repair time vs N");
  Table t({"N", "K", "aggregate time", "disseminate time", "remote msgs",
           "local hops", "repair time (intervals)", "repair msgs"});
  for (const auto n : cli.get_int_list("sizes")) {
    for (const auto k : cli.get_int_list("degrees")) {
      const auto degree = static_cast<std::uint32_t>(k);
      // --- sweep latency over the converged tree -----------------------
      Rng rng(seed);
      chord::Ring ring;
      for (std::int64_t i = 0; i < n; ++i) {
        const auto node = ring.add_node(1.0);
        for (std::size_t v = 0; v < servers; ++v)
          (void)ring.add_random_virtual_server(node, rng);
      }
      const ktree::KTree tree(ring, degree);
      sim::Engine up_engine, down_engine;
      const auto up = ktree::simulate_aggregation(
          up_engine, tree, ktree::unit_latency(ring));
      const auto down = ktree::simulate_dissemination(
          down_engine, tree, ktree::unit_latency(ring));

      // --- self-repair after a correlated crash ------------------------
      sim::Engine engine;
      constexpr sim::Time kInterval = 1.0;
      ktree::MaintenanceProtocol protocol(engine, ring, degree, kInterval,
                                          ktree::unit_latency(ring));
      protocol.start();
      engine.run_until(4.0 * tree.height() + 20.0);
      const std::uint64_t messages_before_crash = protocol.messages();
      Rng crash_rng(seed + 2);
      const auto crash_count = static_cast<std::size_t>(
          crash_fraction * static_cast<double>(n));
      for (std::size_t c = 0; c < crash_count; ++c) {
        const auto live = ring.live_nodes();
        protocol.crash_node(live[crash_rng.below(live.size())]);
      }
      const sim::Time repair = measure_recovery(
          engine, protocol, kInterval, 6.0 * tree.height() + 60.0);

      t.add_row({std::to_string(n), std::to_string(k),
                 Table::num(up.completion_time, 1),
                 Table::num(down.completion_time, 1),
                 std::to_string(up.messages),
                 std::to_string(up.local_hops),
                 repair < 0 ? std::string("timeout") : Table::num(repair, 0),
                 std::to_string(protocol.messages() -
                                messages_before_crash)});
    }
  }
  bench::emit(t, csv);
  std::cout << "\n(All time columns must grow logarithmically with N and "
               "shrink as K grows.)\n";

  // --- an end-to-end balancing round on a physical topology -----------
  // The whole four-phase protocol as events over ts5k-small shortest-path
  // latencies: where the simulated time of one round actually goes, and
  // how fast the engine chews through it (wall clock, events/sec).  The
  // oracle fill and the event loop are timed separately.
  const auto nodes = static_cast<std::size_t>(cli.get_int("timed-nodes"));
  obstool::Session session(cli, kSeriesPeriod, seed, nodes);
  bench::TimedRoundSetup setup(nodes, servers, seed);
  sim::Engine engine;
  sim::Network net(engine, setup.oracle.latency());
  lb::HealthProbe health(setup.deployment.ring);
  session.attach(engine, net, &health);
  lb::ProtocolRound round(net, setup.deployment.ring, {}, setup.rng);
  const auto t0 = std::chrono::steady_clock::now();
  round.start();
  session.start_sampling();
  engine.run();
  const double wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
  const lb::BalanceReport& report = round.report();
  session.note_round(report.phases);
  session.finish();

  const std::uint64_t events = engine.events_executed();
  print_heading(std::cout,
                "one event-driven balancing round, ts5k-small, N = " +
                    std::to_string(nodes));
  bench::emit(bench::phase_table(report.phases), csv);
  std::cout << "\nround completion time: "
            << Table::num(report.completion_time, 1)
            << " latency units  (heavy " << report.before.heavy_count
            << " -> " << report.after.heavy_count << ", "
            << report.transfers_applied << " transfers, mean hop latency "
            << Table::num(net.totals().mean_latency(), 2) << ")\n"
            << "set-up, oracle fill: " << Table::num(setup.fill_seconds, 3)
            << " s for " << setup.oracle.dijkstra_runs() << " Dijkstra runs\n"
            << "wall clock: " << Table::num(wall_seconds, 3) << " s for "
            << events << " events ("
            << Table::num(static_cast<double>(events) / wall_seconds / 1e6, 2)
            << " M events/s)\n"
            << "(phase 4 starts before phase 3 ends: transfers overlap "
               "the sweep)\n";
  return 0;
}
