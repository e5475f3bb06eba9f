#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>
#include <utility>

#include "chord/ring.h"
#include "common/rng.h"
#include "ktree/protocol.h"
#include "ktree/tree.h"
#include "lb/health.h"
#include "lb/protocol_round.h"
#include "lb/proximity.h"
#include "lb/vst.h"
#include "obs/alert.h"
#include "obs/profiler.h"
#include "obs/window.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "topo/distance_oracle.h"
#include "topo/transit_stub.h"
#include "workload/capacity.h"
#include "workload/load_model.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using namespace p2plb;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kServersPerNode = 5;
constexpr std::uint32_t kDegree = 2;
// Set-ups per set-up sample for workloads whose set-up takes a few ms.
constexpr std::size_t kSmallSetupBatch = 100;

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Laps of one clock: each lap() returns the seconds since the last.
class Stopwatch {
 public:
  double lap() {
    const Clock::time_point now = Clock::now();
    const double s = seconds(last_, now);
    last_ = now;
    return s;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

/// Counts the latency queries a Network makes (traced repetitions only).
struct CountingLatency {
  sim::Latency inner;
  std::uint64_t calls = 0;

  [[nodiscard]] sim::Latency latency() {
    return sim::Latency{this, [](void* ctx, sim::Endpoint from,
                                 sim::Endpoint to) -> sim::Time {
      auto& self = *static_cast<CountingLatency*>(ctx);
      ++self.calls;
      return self.inner(from, to);
    }};
  }
};

sim::Time unit_latency(void* /*ctx*/, sim::Endpoint from, sim::Endpoint to) {
  return from == to ? 0.0 : 1.0;
}

/// Every virtual server has exactly one live owner: its owner is alive
/// and lists it, and the live nodes' lists hold no server twice.
bool single_live_owner(const chord::Ring& ring) {
  bool ok = true;
  ring.for_each_server([&](const chord::VirtualServer& vs) {
    const chord::Node& owner = ring.node(vs.owner);
    ok = ok && owner.alive &&
         std::binary_search(owner.servers.begin(), owner.servers.end(),
                            vs.id);
  });
  std::size_t listed = 0;
  for (const chord::NodeIndex i : ring.live_nodes())
    listed += ring.node(i).servers.size();
  return ok && listed == ring.virtual_server_count();
}

bool same_load(double actual, double expected) {
  return std::abs(actual - expected) <= 1e-9 * std::max(1.0, std::abs(expected));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Profiler self time of every frame the simulator interned.
void record_profile(const obs::Profiler& profiler, Sample& s) {
  for (const obs::Profiler::FrameStat& f : profiler.frame_table())
    s.times["prof." + f.name + ".self_s"] +=
        static_cast<double>(f.self_ns) * 1e-9;
}

void record_engine(const sim::Engine& engine, Sample& s) {
  const sim::EngineIntrospection in = engine.introspection();
  s.model["sim.events"] = static_cast<double>(in.executed);
  s.model["sim.wheel_inserts"] = static_cast<double>(in.wheel_inserts);
  s.model["sim.batch_splices"] = static_cast<double>(in.batch_splices);
  s.model["sim.early_inserts"] = static_cast<double>(in.early_inserts);
  s.model["sim.far_inserts"] = static_cast<double>(in.far_inserts);
  s.model["sim.arena_high_water"] = static_cast<double>(in.arena_high_water);
}

/// An outside KTree build over the current ring (traced repetitions).
void record_tree(const chord::Ring& ring, Sample& s) {
  Stopwatch sw;
  const ktree::KTree tree(ring, kDegree);
  s.times["ktree.build_s"] += sw.lap();
  s.counts["ktree.nodes"] = static_cast<double>(tree.size());
  s.counts["ktree.height"] = static_cast<double>(tree.height());
}

/// Per-phase message counts and simulated durations of one round.
void record_phases(const lb::BalanceReport& r, Sample& s) {
  for (std::size_t p = 0; p < lb::kPhaseCount; ++p) {
    const std::string name = lb::phase_name(static_cast<lb::Phase>(p));
    s.model["lb.msgs." + name] += static_cast<double>(r.phases[p].messages);
    s.model["lb.phase_time." + name] += r.phases[p].duration();
  }
}

std::uint64_t round_messages(const lb::BalanceReport& r) {
  std::uint64_t m = 0;
  for (const lb::PhaseMetrics& p : r.phases) m += p.messages;
  return m;
}

// ---------------------------------------------------------------------------
// round_64k: one ProtocolRound over ts5k-small shortest-path latencies.

class RoundWorkload final : public Workload {
 public:
  RoundWorkload(std::size_t nodes, bool aware, std::uint64_t seed)
      : nodes_(nodes), aware_(aware), seed_(seed) {}

  Sample setup() override {
    deployment_.reset();  // peak memory holds one deployment, not two
    Sample s;
    // The deployment recipe of bench::build_deployment, one layer call
    // at a time; the round's rng continues from it as time_protocol's
    // does, which the continuity test pins.
    Rng rng(seed_ + 17);
    Stopwatch sw;
    auto d = std::make_unique<Deployment>(topo::generate_transit_stub(
        topo::TransitStubParams::ts5k_small(), rng, "ts5k-small"));
    s.times["topo.generate_s"] = sw.lap();
    const std::vector<topo::Vertex> stubs = d->topology.stub_vertices();
    std::vector<std::uint32_t> attachments(nodes_);
    const auto picks =
        rng.sample_indices(stubs.size(), std::min(nodes_, stubs.size()));
    for (std::size_t i = 0; i < nodes_; ++i)
      attachments[i] = stubs[picks[i % picks.size()]];
    d->ring = workload::build_ring(nodes_, kServersPerNode,
                                   workload::CapacityProfile::gnutella_like(),
                                   rng, attachments);
    workload::assign_loads(
        d->ring,
        workload::scaled_load_model(d->ring,
                                    workload::LoadDistribution::kGaussian),
        rng);
    s.times["workload.deploy_s"] = sw.lap();

    // Every attachment vertex's row fits, so rows are dense and never
    // evicted; filling them here keeps Dijkstra out of the round.
    const std::size_t vertices = d->topology.graph.vertex_count();
    d->oracle = std::make_unique<topo::DistanceOracle>(
        d->topology.graph,
        std::min<std::size_t>(std::max<std::size_t>(nodes_, 64), vertices));
    for (const std::uint32_t v :
         std::set<std::uint32_t>(attachments.begin(), attachments.end()))
      (void)d->oracle->distance(v, v == 0 ? 1 : 0);
    s.times["topo.oracle_fill_s"] = sw.lap();
    const auto runs = static_cast<double>(d->oracle->dijkstra_runs());
    s.model["topo.dijkstra_runs"] = runs;
    s.model["topo.oracle_row_bytes"] =
        runs * static_cast<double>(vertices) * sizeof(double);

    if (aware_) {
      Rng prng(seed_ + 1);
      d->keys = lb::build_proximity_map(d->ring, d->topology, {}, prng)
                    .node_keys;
    }
    s.times["lb.proximity_map_s"] = sw.lap();
    d->rng = rng;
    deployment_ = std::move(d);
    return s;
  }

  Sample run(bool traced) override {
    const Deployment& d = *deployment_;
    chord::Ring ring = d.ring;
    Rng rng = d.rng;
    Sample s;
    if (traced) record_tree(ring, s);
    obs::Profiler profiler;  // outlives the engine and network it watches
    sim::Engine engine;
    CountingLatency counting{d.oracle->latency()};
    sim::Network net(engine,
                     traced ? counting.latency() : d.oracle->latency());
    if (traced) {
      engine.attach_profiler(&profiler);
      net.attach_profiler(&profiler);
    }
    const double load0 = ring.total_load();
    const std::size_t vs0 = ring.virtual_server_count();
    const std::uint64_t runs0 = d.oracle->dijkstra_runs();
    lb::ProtocolRoundConfig config;
    config.balancer.mode = aware_ ? lb::BalanceMode::kProximityAware
                                  : lb::BalanceMode::kProximityIgnorant;

    Stopwatch sw;
    s.ops = 1;
    lb::ProtocolRound round(net, ring, config, rng, d.keys);
    const double ctor = sw.lap();
    round.start();
    engine.run();
    const double events = sw.lap();
    s.times["lb.round_ctor_s"] = ctor;
    s.times["sim.event_phase_s"] = events;
    s.sim_s = ctor + events;

    const auto live = static_cast<double>(ring.live_node_count());
    s.model["topo.lazy_dijkstra_runs"] =
        static_cast<double>(d.oracle->dijkstra_runs() - runs0);
    s.model["sim.messages"] = static_cast<double>(net.totals().messages);
    s.model["chord.live_nodes_end"] = live;
    s.model["chord.vs_end"] = static_cast<double>(ring.virtual_server_count());
    record_engine(engine, s);
    if (traced) {
      s.counts["topo.latency_calls"] = static_cast<double>(counting.calls);
      record_profile(profiler, s);
    }
    s.checks["no_lazy_dijkstra"] = d.oracle->dijkstra_runs() == runs0;
    s.checks["load_conserved"] = same_load(ring.total_load(), load0);
    s.checks["vs_conserved"] = ring.virtual_server_count() == vs0;
    s.checks["single_live_owner"] = single_live_owner(ring);
    s.checks["round_done"] = round.done();
    if (!round.done()) return s;
    s.op_seconds.push_back(ctor + events);
    const lb::BalanceReport& r = round.report();
    // Nothing churns under this round: every planned transfer must land.
    s.checks["all_transfers_applied"] =
        r.transfers_applied == r.vsa.assignments.size();

    const std::vector<lb::Transfer> costs =
        lb::transfer_costs(ring, r.vsa.assignments, *d.oracle);
    double moved = 0.0, weighted = 0.0;
    for (const lb::Transfer& t : costs) {
      moved += t.assignment.load;
      weighted += t.distance * t.assignment.load;
    }
    s.model["completion_time"] = r.completion_time;
    s.model["messages_per_node"] =
        ratio(static_cast<double>(round_messages(r)), live);
    s.model["lb.heavy_after_frac"] = r.after.heavy_fraction();
    s.model["lb.moved_load_distance"] = ratio(weighted, moved);
    s.model["lb.assignments"] = static_cast<double>(r.vsa.assignments.size());
    s.model["lb.transfers_applied"] =
        static_cast<double>(r.transfers_applied);
    s.model["lb.transfer_fail_frac"] =
        ratio(static_cast<double>(r.vsa.assignments.size() -
                                  r.transfers_applied),
              static_cast<double>(r.vsa.assignments.size()));
    s.model["lb.unassigned"] = static_cast<double>(
        r.vsa.unassigned_heavy.size() + r.vsa.unassigned_light.size());
    record_phases(r, s);
    return s;
  }

 private:
  struct Deployment {
    topo::TransitStubTopology topology;
    chord::Ring ring;
    std::unique_ptr<topo::DistanceOracle> oracle;  // refers to topology
    std::vector<chord::Key> keys;
    Rng rng;
  };

  std::size_t nodes_;
  bool aware_;
  std::uint64_t seed_;
  std::unique_ptr<Deployment> deployment_;
};

// ---------------------------------------------------------------------------
// churn_4k: timed rounds under Poisson membership churn, crash bursts and
// the online alert plane, on a unit-latency ring.

class ChurnWorkload final : public Workload {
 public:
  ChurnWorkload(std::uint64_t seed, std::string alerts_path)
      : seed_(seed), alerts_path_(std::move(alerts_path)) {}

  Sample setup() override {
    Sample s;
    Stopwatch sw;
    rules_ = obs::load_alert_rules_file(alerts_path_);
    rng_ = Rng(seed_);
    ring_ = workload::build_ring(kNodes, kServersPerNode, capacities_, rng_);
    s.times["workload.deploy_s"] = sw.lap();
    return s;
  }

  Sample run(bool traced) override {
    chord::Ring ring = ring_;
    Rng rng = rng_;
    Sample s;
    if (traced) record_tree(ring, s);
    // Observers outlive the engine and network they are attached to.
    obs::Profiler profiler;
    obs::WindowedAggregator windows(obs::WindowConfig{10.0, 64});
    lb::HealthProbe health(ring, {kEpsilon, "health"});
    obs::AlertEngine alerts(windows, rules_);
    sim::Engine engine;
    CountingLatency counting{sim::Latency{nullptr, &unit_latency}};
    sim::Network net(engine, traced ? counting.latency() : counting.inner);
    if (traced) {
      engine.attach_profiler(&profiler);
      net.attach_profiler(&profiler);
    }
    // Attached as churn_simulation --alerts attaches them.
    net.attach_windows(&windows);
    health.register_windows(windows);
    alerts.attach_metrics(&net.metrics());

    // Ledger of what the ring must hold: loads change only by redraws
    // and crashes, servers only by joins and crashes.
    double expected_load = 0.0;
    std::size_t expected_vs = ring.virtual_server_count();
    auto conserved = [&] {
      return same_load(ring.total_load(), expected_load) &&
             ring.virtual_server_count() == expected_vs;
    };
    bool conservation_ok = true;
    double mutate_s = 0.0, redraw_s = 0.0, ctor_s = 0.0;
    std::uint64_t churn_ops = 0;

    // Churn stops when the last round starts, so that round balances a
    // quiet ring and must resolve imbalance_high.
    const sim::Time churn_end = kInterval * static_cast<double>(kIntervals);
    auto schedule_churn = [&](auto&& self, bool is_join) -> void {
      const sim::Time delay =
          rng.exponential(kInterval / kChurnPerInterval);
      if (engine.now() + delay >= churn_end) return;
      engine.schedule_after(delay, [&, is_join] {
        windows.advance_to(engine.now());
        Stopwatch sw;
        if (is_join) {
          const auto fresh = ring.add_node(capacities_.sample(rng));
          for (std::size_t v = 0; v < kServersPerNode; ++v)
            (void)ring.add_random_virtual_server(fresh, rng);
          expected_vs += kServersPerNode;
        } else {
          // Graceful leave: servers go to random survivors.
          std::vector<chord::NodeIndex> live = ring.live_nodes();
          const auto leaving = live[rng.below(live.size())];
          std::erase(live, leaving);
          for (const chord::Key vs :
               std::vector<chord::Key>(ring.node(leaving).servers))
            ring.transfer_virtual_server(vs, live[rng.below(live.size())]);
          ring.remove_node(leaving);
        }
        mutate_s += sw.lap();
        ++churn_ops;
        self(self, is_join);
      });
    };
    schedule_churn(schedule_churn, true);
    schedule_churn(schedule_churn, false);

    std::vector<std::unique_ptr<lb::ProtocolRound>> rounds;
    std::vector<Clock::time_point> round_start;
    std::vector<double> live_at_start;
    std::vector<double> completion, msgs_per_node, heavy_after;
    double planned = 0.0, applied = 0.0;
    engine.every(kInterval, [&] {
      // Membership events and interval ticks close the window buckets
      // of quiet stretches, as churn_simulation's sampler cadence does,
      // so a bucket's probe reads the ring at its own boundary.
      windows.advance_to(engine.now());
      // Loads are redrawn once per interval for the current arc layout.
      Stopwatch sw;
      workload::assign_loads(
          ring,
          workload::scaled_load_model(ring,
                                      workload::LoadDistribution::kGaussian),
          rng);
      redraw_s += sw.lap();
      expected_load = ring.total_load();
      const std::size_t index = rounds.size();
      ++s.ops;
      round_start.push_back(Clock::now());
      live_at_start.push_back(static_cast<double>(ring.live_node_count()));
      lb::ProtocolRoundConfig config;
      config.balancer.epsilon = kEpsilon;
      rounds.push_back(
          std::make_unique<lb::ProtocolRound>(net, ring, config, rng));
      ctor_s += sw.lap();
      rounds.back()->start([&, index](const lb::BalanceReport& r) {
        s.op_seconds.push_back(seconds(round_start[index], Clock::now()));
        conservation_ok = conservation_ok && conserved();
        completion.push_back(r.completion_time);
        msgs_per_node.push_back(
            static_cast<double>(round_messages(r)) / live_at_start[index]);
        heavy_after.push_back(r.after.heavy_fraction());
        planned += static_cast<double>(r.vsa.assignments.size());
        applied += static_cast<double>(r.transfers_applied);
        record_phases(r, s);
        s.model["lb.assignments"] +=
            static_cast<double>(r.vsa.assignments.size());
        s.model["lb.transfers_applied"] +=
            static_cast<double>(r.transfers_applied);
        s.model["lb.unassigned"] += static_cast<double>(
            r.vsa.unassigned_heavy.size() + r.vsa.unassigned_light.size());
      });
      if (index % kCrashEvery == kCrashEvery / 2) {
        // A crash burst one latency unit into the round: transfers from
        // or to the crashed nodes are skipped at delivery.
        engine.schedule_after(1.0, [&] {
          Stopwatch burst;
          const auto count = static_cast<std::size_t>(
              kCrashFraction * static_cast<double>(ring.live_node_count()));
          for (std::size_t c = 0; c < count; ++c) {
            const std::vector<chord::NodeIndex> live = ring.live_nodes();
            const chord::NodeIndex victim = live[rng.below(live.size())];
            expected_load -= ring.node_load(victim);
            expected_vs -= ring.node(victim).servers.size();
            ring.remove_node(victim);
            ++churn_ops;
          }
          mutate_s += burst.lap();
        });
      }
      return rounds.size() < kIntervals;
    });

    Stopwatch sw;
    engine.run_until(kInterval * (static_cast<double>(kIntervals) + 0.5));
    windows.advance_to(engine.now());
    const double events = sw.lap();
    s.sim_s = events;
    s.times["sim.event_phase_s"] = events;
    s.times["lb.round_ctor_s"] = ctor_s;
    s.times["workload.redraw_s"] = redraw_s;
    s.times["chord.mutate_s"] = mutate_s;

    bool all_done = rounds.size() == kIntervals;
    for (const auto& r : rounds) all_done = all_done && r->done();
    s.checks["rounds_done"] = all_done;
    s.checks["load_and_vs_conserved"] = conservation_ok && conserved();
    s.checks["single_live_owner"] = single_live_owner(ring);
    // imbalance_high fires under churn, and its last transition is a
    // resolve after the quiet last round started.  Under churn it may
    // stay firing: a leave hands its servers to a random survivor.
    bool fired = false;
    const obs::AlertEvent* last = nullptr;
    for (const obs::AlertEvent& e : alerts.events()) {
      if (e.rule != "imbalance_high") continue;
      fired = fired || e.fire;
      last = &e;
    }
    s.checks["imbalance_high_fires_and_resolves"] =
        fired && last != nullptr && !last->fire && last->t > churn_end;

    s.model["completion_time"] = median(completion);
    s.model["messages_per_node"] = median(msgs_per_node);
    s.model["lb.heavy_after_frac"] = median(heavy_after);
    s.model["lb.transfer_fail_frac"] = ratio(planned - applied, planned);
    s.model["workload.churn_ops"] = static_cast<double>(churn_ops);
    s.model["obs.alert_transitions"] =
        static_cast<double>(alerts.events().size());
    s.model["sim.messages"] = static_cast<double>(net.totals().messages);
    s.model["chord.live_nodes_end"] =
        static_cast<double>(ring.live_node_count());
    s.model["chord.vs_end"] = static_cast<double>(ring.virtual_server_count());
    record_engine(engine, s);
    if (traced) {
      s.counts["topo.latency_calls"] = static_cast<double>(counting.calls);
      record_profile(profiler, s);
    }
    return s;
  }

  [[nodiscard]] std::size_t setup_batch() const override {
    return kSmallSetupBatch;
  }

 private:
  static constexpr std::size_t kNodes = 4096;
  static constexpr std::size_t kIntervals = 20;
  static constexpr sim::Time kInterval = 600.0;
  static constexpr double kChurnPerInterval = 24.0;  // joins, and leaves
  static constexpr std::size_t kCrashEvery = 5;  // the 3rd, 8th, ... rounds
  static constexpr double kCrashFraction = 0.01;
  static constexpr double kEpsilon = 0.1;

  std::uint64_t seed_;
  std::string alerts_path_;
  workload::CapacityProfile capacities_ =
      workload::CapacityProfile::gnutella_like();
  std::vector<obs::AlertRule> rules_;
  chord::Ring ring_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// repair_4k: K-nary tree maintenance bootstraps, loses 10% of its nodes
// and repairs itself; periodic timers, no Network, no oracle, no lb.

class RepairWorkload final : public Workload {
 public:
  explicit RepairWorkload(std::uint64_t seed) : seed_(seed) {}

  Sample setup() override {
    Sample s;
    Stopwatch sw;
    Rng rng(seed_);
    ring_ = workload::build_ring(kNodes, kServersPerNode,
                                 workload::CapacityProfile::gnutella_like(),
                                 rng);
    s.times["workload.deploy_s"] = sw.lap();
    return s;
  }

  Sample run(bool traced) override {
    chord::Ring ring = ring_;
    Sample s;
    if (traced) record_tree(ring, s);
    obs::Profiler profiler;
    sim::Engine engine;
    if (traced) engine.attach_profiler(&profiler);
    std::uint64_t latency_calls = 0;
    ktree::VsLatencyFn latency = ktree::unit_latency(ring);
    if (traced)
      latency = [inner = std::move(latency), &latency_calls](chord::Key a,
                                                             chord::Key b) {
        ++latency_calls;
        return inner(a, b);
      };
    ktree::MaintenanceProtocol protocol(engine, ring, kDegree, kCheckInterval,
                                        std::move(latency));
    double check_s = 0.0;
    // Step one check interval at a time until converged(); -1 if the
    // budget runs out.
    auto converge = [&]() -> double {
      const sim::Time start = engine.now();
      while (engine.now() - start < kBudget) {
        engine.run_until(engine.now() + kCheckInterval);
        Stopwatch sw;
        const bool done = protocol.converged();
        check_s += sw.lap();
        if (done) return (engine.now() - start) / kCheckInterval;
      }
      return -1.0;
    };

    Stopwatch sw;
    protocol.start();
    const double bootstrap = converge();
    const double bootstrap_s = sw.lap();
    const auto instances = static_cast<double>(protocol.instance_count());
    const std::size_t vs_before = ring.virtual_server_count();
    // 10% of the nodes crash in bursts; the tree must reconverge after
    // each.  One repair time varies by seed with the depth of the
    // subtrees a burst happens to break, so the reported repair time is
    // the mean over the bursts.
    Rng crash_rng(seed_ + 2);
    std::size_t crashed_vs = 0;
    double mutate_s = 0.0, repair_s = 0.0, repair_total = 0.0;
    bool repaired = true;
    for (std::size_t burst = 0; burst < kBursts; ++burst) {
      ++s.ops;
      for (std::size_t c = 0; c < kCrashesPerBurst; ++c) {
        const std::vector<chord::NodeIndex> live = ring.live_nodes();
        const chord::NodeIndex victim = live[crash_rng.below(live.size())];
        crashed_vs += ring.node(victim).servers.size();
        protocol.crash_node(victim);
      }
      mutate_s += sw.lap();
      const double repair = converge();
      const double host = sw.lap();
      repaired = repaired && repair >= 0.0;
      repair_total += repair;
      repair_s += host;
      // A maintenance round is one check interval: host s per round of
      // this repair.
      if (repair >= 0.0) s.op_seconds.push_back(host / repair);
    }

    s.sim_s = bootstrap_s + mutate_s + repair_s;
    s.times["ktree.bootstrap_s"] = bootstrap_s;
    s.times["ktree.repair_s"] = repair_s;
    s.times["ktree.converged_check_s"] = check_s;
    s.times["chord.mutate_s"] = mutate_s;
    s.times["sim.event_phase_s"] = s.sim_s - mutate_s - check_s;

    s.checks["converged_before_crash"] = bootstrap >= 0.0;
    s.checks["converged_after_every_burst"] = repaired;
    s.checks["vs_conserved"] =
        ring.virtual_server_count() == vs_before - crashed_vs;
    s.checks["single_live_owner"] = single_live_owner(ring);

    const auto live = static_cast<double>(ring.live_node_count());
    s.model["completion_time"] = repair_total / kBursts;
    s.model["ktree.bootstrap_time"] = bootstrap;
    s.model["messages_per_node"] =
        static_cast<double>(protocol.messages()) / live;
    s.model["ktree.instances"] = instances;
    s.model["ktree.maint_messages"] = static_cast<double>(protocol.messages());
    s.model["workload.churn_ops"] =
        static_cast<double>(kCrashesPerBurst * kBursts);
    s.model["chord.live_nodes_end"] = live;
    s.model["chord.vs_end"] = static_cast<double>(ring.virtual_server_count());
    record_engine(engine, s);
    if (traced) {
      s.counts["topo.latency_calls"] = static_cast<double>(latency_calls);
      record_profile(profiler, s);
    }
    return s;
  }

  [[nodiscard]] std::size_t setup_batch() const override {
    return kSmallSetupBatch;
  }

 private:
  static constexpr std::size_t kNodes = 4096;
  static constexpr sim::Time kCheckInterval = 1.0;
  static constexpr std::size_t kBursts = 20;
  static constexpr std::size_t kCrashesPerBurst = kNodes / 10 / kBursts;
  static constexpr sim::Time kBudget = 400.0;

  std::uint64_t seed_;
  chord::Ring ring_;
};

}  // namespace

std::unique_ptr<Workload> make_round_workload(std::size_t nodes,
                                              bool proximity_aware,
                                              std::uint64_t seed) {
  return std::make_unique<RoundWorkload>(nodes, proximity_aware, seed);
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& alerts_path) {
  if (name == "round_64k") return make_round_workload(65536, true, seed);
  if (name == "churn_4k")
    return std::make_unique<ChurnWorkload>(seed, alerts_path);
  if (name == "repair_4k") return std::make_unique<RepairWorkload>(seed);
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::string build_stamp() {
  return std::string(PERFBENCH_COMPILER) + ", " + PERFBENCH_BUILD_TYPE;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

}  // namespace perfbench
