// E17 — the what-if engine vs re-simulated reality (ISSUE 8).
//
// rw::critpath promises that a trace is enough: re-timing the dependence
// DAG predicts the makespan of a hypothetical edit without re-simulating,
// and the adviser's verified remap never loses to the baseline. This
// bench audits both promises over the corpus on both fabrics. Per cell
// (workload x bus/mesh) it runs the CLI's standard single-edit sweep and
// checks prediction against the re-simulated truth, re-times the
// unedited DAG (which must reproduce the observed makespan exactly), and
// runs advise_remap with its final re-simulation. Four gates ride along:
//   * accuracy — every what-if prediction within 10% of re-simulated
//     truth (EXPERIMENTS.md E17; with these reservation-order executors
//     it is in fact exact);
//   * identity — the unedited replay equals the observed makespan;
//   * never-slower — the adviser's verified mapping beats or matches the
//     baseline on every cell;
//   * scaling — deterministic replay work per DAG node stays under a
//     fixed constant, pinning the O(trace events) claim.
//
// Results land in BENCH_critpath.json with wall-clock fields scrubbed:
// a fixed seed gives a byte-identical document.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "critpath/driver.hpp"
#include "critpath/whatif.hpp"
#include "harness/harness.hpp"

namespace {

using namespace rw;

constexpr std::uint64_t kSeed = 1;
/// Documented accuracy bound (EXPERIMENTS.md, E17): no what-if prediction
/// may miss its re-simulated twin by more than this relative error.
constexpr double kErrorBound = 0.10;
/// O(trace events) gate: deterministic replay operations per DAG node.
/// One retiming touches each node, dependence edge and mesh route hop
/// once, so the ratio is a small constant independent of trace length.
constexpr double kOpsPerNodeBound = 64.0;

/// Audit one corpus workload on one fabric: sweep accuracy, replay
/// identity, adviser outcome and replay-cost scaling, as extras.
RunMetrics audit_workload(const std::string& name,
                          const critpath::CritOptions& opts) {
  RunMetrics m;
  const auto cc = critpath::build_corpus_case(name, opts);
  if (!cc.ok()) {
    m.set_extra("cp.valid", 0.0);
    return m;
  }
  const auto& c = cc.value();
  const critpath::DepGraph dep =
      critpath::trace_mapping(c.graph, c.cfg, c.task_to_pe);
  const critpath::Retimed base = critpath::retime(dep);
  const critpath::Attribution attr = critpath::attribute(dep, base);

  m.makespan = dep.observed_makespan();
  m.set_extra("cp.valid", 1.0);
  m.set_extra("cp.identity",
              base.makespan == dep.observed_makespan() ? 1.0 : 0.0);
  m.set_extra("cp.nodes", static_cast<double>(dep.nodes().size()));
  m.set_extra("cp.dep_edges",
              static_cast<double>(dep.dependence_edge_count()));
  m.set_extra("cp.ops_per_node",
              dep.nodes().empty()
                  ? 0.0
                  : static_cast<double>(base.ops) /
                        static_cast<double>(dep.nodes().size()));

  double worst = 0.0;
  double pred_us = 0.0, resim_us = 0.0;
  std::size_t sweeps = 0;
  for (const critpath::Edit& e : critpath::sweep_edits(dep, attr)) {
    const std::vector<critpath::Edit> one{e};
    const critpath::Validation v =
        critpath::validate(c.graph, c.cfg, c.task_to_pe, one);
    worst = std::max(worst, v.rel_error);
    pred_us += static_cast<double>(v.pred.predicted) * 1e-6;
    resim_us += static_cast<double>(v.truth.edited) * 1e-6;
    ++sweeps;
  }
  m.set_extra("cp.whatifs", static_cast<double>(sweeps));
  m.set_extra("cp.worst_rel_err", worst);
  m.set_extra("cp.predicted_us", pred_us);
  m.set_extra("cp.resim_us", resim_us);

  const critpath::RemapAdvice adv =
      critpath::advise_remap(c.graph, c.cfg, c.task_to_pe, opts.rounds);
  m.set_extra("cp.advise_never_slower",
              adv.resim_makespan <= adv.baseline_makespan ? 1.0 : 0.0);
  m.set_extra("cp.advise_moves", static_cast<double>(adv.moves));
  m.set_extra("cp.advise_speedup", adv.speedup());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;

  critpath::CritOptions opts;
  opts.rounds = tiny ? 2 : 4;
  opts.blocks = tiny ? 4 : 8;
  opts.slices = tiny ? 2 : 4;
  const std::vector<std::string> names =
      tiny ? std::vector<std::string>{"pipeline3", "jpeg"}
           : critpath::corpus_names();

  harness::Scenario scenario("e17_critpath", kSeed);
  std::vector<std::string> cells;
  for (const bool mesh : {false, true}) {
    critpath::CritOptions o = opts;
    o.mesh = mesh;
    for (const std::string& name : names) {
      cells.push_back(std::string(mesh ? "mesh_" : "bus_") + name);
      scenario.add_run(cells.back(), [name, o](const harness::RunContext&) {
        return audit_workload(name, o);
      });
    }
  }
  const auto result = harness::Runner().run(scenario);

  std::printf("E17: what-if predictions vs re-simulated truth (seed %llu)\n",
              static_cast<unsigned long long>(kSeed));
  bool all_valid = true, all_identity = true, never_slower = true;
  double worst_err = 0.0, worst_ops = 0.0;
  Table t({"cell", "observed_us", "whatifs", "worst_rel_err", "moves",
           "advise_speedup", "ops_per_node"});
  for (const std::string& cell : cells) {
    const auto& m = result.find(cell)->metrics;
    if (m.extra_or("cp.valid") != 1.0) all_valid = false;
    if (m.extra_or("cp.identity") != 1.0) all_identity = false;
    if (m.extra_or("cp.advise_never_slower") != 1.0) never_slower = false;
    worst_err = std::max(worst_err, m.extra_or("cp.worst_rel_err"));
    worst_ops = std::max(worst_ops, m.extra_or("cp.ops_per_node"));
    t.add_row({cell,
               strformat("%.2f", static_cast<double>(m.makespan) * 1e-6),
               strformat("%.0f", m.extra_or("cp.whatifs")),
               strformat("%.4f", m.extra_or("cp.worst_rel_err")),
               strformat("%.0f", m.extra_or("cp.advise_moves")),
               strformat("%.3f", m.extra_or("cp.advise_speedup")),
               strformat("%.1f", m.extra_or("cp.ops_per_node"))});
  }
  t.print("per workload x fabric: sweep accuracy and adviser outcome");

  // Both fabrics are audited: at least one bus_ and one mesh_ cell.
  const auto has_prefix = [&cells](const char* prefix) {
    return std::any_of(cells.begin(), cells.end(), [prefix](const auto& c) {
      return c.rfind(prefix, 0) == 0;
    });
  };
  const bool fabrics_ok = has_prefix("bus_") && has_prefix("mesh_");
  const bool err_ok = worst_err <= kErrorBound;
  const bool ops_ok = worst_ops <= kOpsPerNodeBound;
  std::printf("accuracy gate: worst rel err %.4f (bound %.2f) %s\n",
              worst_err, kErrorBound, err_ok ? "OK" : "VIOLATED");
  std::printf("identity gate: unedited replay == observed %s\n",
              all_identity ? "OK" : "VIOLATED");
  std::printf("never-slower gate: %s on %zu cells (%s)\n",
              never_slower ? "OK" : "VIOLATED", cells.size(),
              fabrics_ok ? "bus and mesh" : "NOT both fabrics");
  std::printf("scaling gate: worst %.1f ops/node (bound %.0f) %s\n",
              worst_ops, kOpsPerNodeBound, ops_ok ? "OK" : "VIOLATED");

  std::printf("harness: %zu runs on %zu threads in %.0fms\n",
              result.runs.size(), result.threads_used,
              static_cast<double>(result.wall_ns) / 1e6);
  std::printf("expected shape: rel err 0.0000 everywhere (the replay is "
              "exact for reservation-order executors);\nadviser finds "
              "moves where the baseline overloads a PE and never "
              "regresses.\n");
  return bench::finish("BENCH_critpath.json", {result},
                       all_valid && all_identity && never_slower &&
                           fabrics_ok && err_ok && ops_ok);
}
