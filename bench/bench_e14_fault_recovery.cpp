// E14 — Sec. VIII: "road works ahead" also means the platform breaking
// under you. A deterministic fault-injection campaign over the E14
// streaming pipeline compares three recovery postures: none (block
// forever), watchdog-restart (detect via expiry, restart the dead core,
// force-release its semaphores), and watchdog-remap (migrate the dead
// core's work to the least-loaded survivor and leave the core dead).
//
// Shape to reproduce: with no recovery, goodput collapses past a knee in
// the fault rate (a single crash wedges the pipeline); watchdog-restart
// holds goodput near 100% with recovery latency bounded by a couple of
// watchdog periods; remap degrades gracefully and never does worse than
// no recovery. Two identity gates ride along: arming an *empty* fault
// plan must leave every perf-corpus workload's execution fingerprint
// bit-identical, and the degradation-aware remap in rw::maps must sit
// between the healthy makespan and at/above the hindsight oracle.
//
// One rw::harness run per (rate, policy) cell plus the gates; results
// land in BENCH_fault.json.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "harness/harness.hpp"
#include "maps/mapping.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"
#include "vpdebug/replay.hpp"

namespace {

using namespace rw;

constexpr std::uint64_t kSeed = 1;

struct BenchConfig {
  std::size_t cores = 4;
  std::uint64_t items = 32;
  std::uint64_t workload_scale = 2;
  std::vector<double> rates_per_ms = {5, 15, 40, 80, 150};
};

std::string cell(double rate, fault::RecoveryPolicy policy) {
  return strformat("r%03.0f_%s", rate, fault::recovery_policy_name(policy));
}

RunMetrics run_cell(const BenchConfig& cfg, double rate,
                    fault::RecoveryPolicy policy) {
  fault::ScenarioConfig scfg;
  scfg.cores = cfg.cores;
  scfg.seed = kSeed;
  scfg.items = cfg.items;
  scfg.fault_rate_per_ms = rate;
  scfg.policy = policy;
  return run_fault_scenario(scfg).to_metrics();
}

/// Fingerprint a perf-corpus workload with and without an armed empty
/// FaultPlan; identical hashes prove the fault machinery is invisible
/// until a fault actually fires.
RunMetrics run_identity_gate(const std::string& workload,
                             std::uint64_t scale) {
  auto one = [&](bool armed) {
    sim::PlatformConfig pcfg = sim::PlatformConfig::homogeneous(4);
    pcfg.trace_enabled = true;
    sim::Platform plat(std::move(pcfg));
    vpdebug::ExecutionRecorder rec(plat);
    std::unique_ptr<fault::FaultInjector> injector;
    if (armed) {
      injector = std::make_unique<fault::FaultInjector>(plat, fault::FaultPlan{});
      injector->arm();
    }
    perf::spawn_workload(workload, plat, kSeed, scale);
    plat.kernel().run();
    struct {
      std::uint64_t fp;
      TimePs makespan;
    } out{rec.fingerprint(), plat.kernel().now()};
    return out;
  };
  const auto off = one(false);
  const auto on = one(true);
  RunMetrics m;
  m.makespan = off.makespan;
  m.set_extra("fp_identical",
              (off.fp == on.fp && off.makespan == on.makespan) ? 1.0 : 0.0);
  m.set_extra("fingerprint_off", static_cast<double>(off.fp % 1000000));
  return m;
}

/// Degradation-aware remap vs the hindsight oracle on a fork-join graph.
RunMetrics run_remap_gate() {
  maps::TaskGraph g;
  const auto src = g.add_task("src", 500);
  const auto join = g.add_task("join", 500);
  for (int i = 0; i < 6; ++i) {
    const auto t = g.add_task("mid" + std::to_string(i), 20'000);
    g.add_edge(src, t, 256);
    g.add_edge(t, join, 256);
  }
  const std::vector<maps::PeDesc> pes(
      4, maps::PeDesc{sim::PeClass::kRisc, mhz(400)});
  const maps::CommCost comm = maps::simple_comm_cost(nanoseconds(100), 0.004);
  const maps::MappingResult healthy = maps::heft_map(g, pes, comm);
  const maps::DegradationReport rep = maps::remap_on_failure(
      g, pes, comm, healthy.task_to_pe, healthy.task_to_pe[2]);
  RunMetrics m;
  m.makespan = rep.remap_makespan;
  m.set_extra("healthy_makespan_ps", static_cast<double>(rep.healthy_makespan));
  m.set_extra("oracle_makespan_ps", static_cast<double>(rep.oracle_makespan));
  m.set_extra("moved_tasks", static_cast<double>(rep.moved_tasks));
  m.set_extra("remap_vs_oracle", rep.remap_vs_oracle());
  m.set_extra("degradation_vs_healthy", rep.degradation_vs_healthy());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      // CI smoke configuration: two rates, fewer items.
      cfg.items = 16;
      cfg.workload_scale = 1;
      cfg.rates_per_ms = {15, 80};
    }
  }
  const std::vector<fault::RecoveryPolicy> policies = {
      fault::RecoveryPolicy::kNone, fault::RecoveryPolicy::kWatchdogRestart,
      fault::RecoveryPolicy::kWatchdogRemap};
  const std::vector<std::string> corpus = {"pipeline", "forkjoin",
                                           "shared_hammer"};

  harness::Scenario scenario("e14_fault_recovery");
  for (const double rate : cfg.rates_per_ms)
    for (const auto policy : policies)
      scenario.add_run(cell(rate, policy),
                       [&cfg, rate, policy](const harness::RunContext&) {
                         return run_cell(cfg, rate, policy);
                       });
  for (const auto& w : corpus)
    scenario.add_run("identity_" + w, [&cfg, &w](const harness::RunContext&) {
      return run_identity_gate(w, cfg.workload_scale);
    });
  scenario.add_run("remap_vs_oracle", [](const harness::RunContext&) {
    return run_remap_gate();
  });
  const auto result = harness::Runner().run(scenario);

  std::printf("E14: fault injection x recovery policy (%llu items, %zu "
              "cores, seed %llu)\n",
              static_cast<unsigned long long>(cfg.items), cfg.cores,
              static_cast<unsigned long long>(kSeed));

  Table t({"rate/ms", "policy", "goodput", "faults", "crashes", "recov",
           "max_rec", "deadlock"});
  bool shape_ok = true;
  for (const double rate : cfg.rates_per_ms) {
    const double none_goodput =
        result.find(cell(rate, fault::RecoveryPolicy::kNone))
            ->metrics.extra_or("fault.goodput");
    for (const auto policy : policies) {
      const auto& m = result.find(cell(rate, policy))->metrics;
      const double goodput = m.extra_or("fault.goodput");
      if (goodput < none_goodput) shape_ok = false;  // recovery >= none
      t.add_row({strformat("%.0f", rate), fault::recovery_policy_name(policy),
                 Table::percent(goodput),
                 Table::num(m.extra_or("fault.injected")),
                 Table::num(m.extra_or("fault.crashes")),
                 Table::num(m.extra_or("fault.recoveries")),
                 format_time(static_cast<TimePs>(
                     m.extra_or("fault.max_recovery_latency_ps"))),
                 m.extra_or("fault.deadlocked") > 0 ? "yes" : "no"});
    }
  }
  t.print("no-recovery collapses past the knee; watchdog policies degrade "
          "gracefully");

  for (const auto& w : corpus) {
    const auto& m = result.find("identity_" + w)->metrics;
    const bool identical = m.extra_or("fp_identical") > 0;
    if (!identical) shape_ok = false;
    std::printf("identity gate [%s]: empty armed plan %s (makespan %s)\n",
                w.c_str(), identical ? "bit-identical" : "DIVERGED",
                format_time(m.makespan).c_str());
  }
  {
    const auto& m = result.find("remap_vs_oracle")->metrics;
    // The online remap sits at or above the oracle and no better than
    // the healthy platform.
    if (m.extra_or("remap_vs_oracle") < 1.0 ||
        m.extra_or("degradation_vs_healthy") < 1.0)
      shape_ok = false;
    std::printf("remap gate: healthy %s -> remap %s (oracle %s, %.0f tasks "
                "moved, %.2fx oracle, %.2fx healthy)\n",
                format_time(static_cast<TimePs>(
                    m.extra_or("healthy_makespan_ps"))).c_str(),
                format_time(m.makespan).c_str(),
                format_time(static_cast<TimePs>(
                    m.extra_or("oracle_makespan_ps"))).c_str(),
                m.extra_or("moved_tasks"), m.extra_or("remap_vs_oracle"),
                m.extra_or("degradation_vs_healthy"));
  }

  std::printf("harness: %zu runs on %zu threads in %.0fms\n",
              result.runs.size(), result.threads_used,
              static_cast<double>(result.wall_ns) / 1e6);
  std::printf("expected shape: none-policy goodput collapses past a knee "
              "(deadlock on first\nwedging crash); watchdog_restart stays "
              "near 100%% with recovery latency bounded\nby ~2 watchdog "
              "periods; watchdog_remap >= none everywhere; identity gates "
              "hold.\n");
  return bench::finish("BENCH_fault.json", {result}, shape_ok);
}
