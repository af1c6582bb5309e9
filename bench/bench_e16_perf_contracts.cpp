// E16 — static performance contracts vs the platform (ISSUE 7).
//
// The three lint performance passes promise conservative bounds: a
// makespan upper bound, a throughput lower bound (guaranteed period) and
// deadlock-free buffer capacities. This bench is the promise's audit:
// every corpus program, plus a seeded sweep of random mapped DAGs, is
// measured on the real executors and the ratio static/measured (the
// tightness) is reported per program. Two gates ride along:
//   * conservativeness — the simulated makespan never exceeds the static
//     bound, the measured minimal period never exceeds the guaranteed
//     period, and the static capacities run deadlock-free dynamically,
//     on every cell;
//   * tightness — every static/measured ratio is at least 1 (a bound below
//     its measurement is no bound) and the worst stays within the
//     documented bound (EXPERIMENTS.md E16: <= 16x; the bound serializes
//     all work, so it loosens with the parallelism it foregoes).
//
// Results land in BENCH_contracts.json with wall-clock fields scrubbed:
// a fixed seed gives a byte-identical document.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/throughput.hpp"
#include "harness/harness.hpp"
#include "lint/corpus.hpp"
#include "lint/perf_contract.hpp"
#include "maps/mapping.hpp"
#include "maps/perf_bounds.hpp"

namespace {

using namespace rw;

constexpr std::uint64_t kSeed = 1;
/// Documented tightness bound (EXPERIMENTS.md, E16): no static bound may
/// exceed its measured twin by more than this factor on the corpus.
constexpr double kTightnessBound = 16.0;

std::uint64_t iteration_firings(const dataflow::Graph& g) {
  const auto rv = g.repetition_vector();
  if (!rv.ok()) return 0;
  std::uint64_t total = 0;
  for (const std::uint64_t f : rv.value().firings) total += f;
  return total;
}

/// Audit one corpus program: every contract part it carries is checked
/// against the corresponding measurement. `contract.conservative` is the
/// AND of every check; `contract.*_tightness` the static/measured ratios.
RunMetrics audit_program(const lint::CorpusProgram& p) {
  RunMetrics m;
  const lint::PerfContract c = lint::compute_perf_contract(p.target());
  double conservative = 1.0;
  double parts = 0.0;

  if (c.has_makespan) {
    parts += 1.0;
    sim::PlatformConfig pc = p.platform;
    sim::Platform platform(std::move(pc));
    const TimePs simulated =
        maps::execute_on_platform(p.tasks, p.task_to_pe, platform);
    m.makespan = simulated;
    const DurationPs bound = c.makespan.bound.bound;
    if (simulated > bound) conservative = 0.0;
    m.set_extra("contract.makespan_bound_us",
                static_cast<double>(bound) * 1e-6);
    m.set_extra("contract.makespan_simulated_us",
                static_cast<double>(simulated) * 1e-6);
    m.set_extra("contract.makespan_tightness",
                simulated == 0 ? 1.0
                               : static_cast<double>(bound) /
                                     static_cast<double>(simulated));
  }

  if (c.has_throughput) {
    parts += 1.0;
    const DurationPs measured =
        dataflow::min_sustainable_period(p.graph, p.graph_cfg);
    if (measured > 0 && measured > c.period_bound) conservative = 0.0;
    m.set_extra("contract.period_bound_us",
                static_cast<double>(c.period_bound) * 1e-6);
    m.set_extra("contract.period_measured_us",
                static_cast<double>(measured) * 1e-6);
    m.set_extra("contract.period_tightness",
                measured == 0 ? 1.0
                              : static_cast<double>(c.period_bound) /
                                    static_cast<double>(measured));
  }

  if (c.has_buffers) {
    parts += 1.0;
    dataflow::ExecConfig cfg = p.graph_cfg;
    lint::apply_buffer_contract(c, cfg);
    cfg.source_period = std::max(c.period_bound, cfg.source_period);
    cfg.iterations = 8;
    const auto r = dataflow::run_data_driven(p.graph, cfg);
    const bool ok = r.firings >= iteration_firings(p.graph) &&
                    r.internal_corruptions() == 0;
    if (!ok) conservative = 0.0;
    double tokens = 0;
    for (const std::size_t cap : c.buffer_capacities)
      tokens += static_cast<double>(cap);
    m.set_extra("contract.buffers_ok", ok ? 1.0 : 0.0);
    m.set_extra("contract.buffer_tokens", tokens);
  }

  m.set_extra("contract.parts", parts);
  m.set_extra("contract.conservative", conservative);
  return m;
}

/// Audit one random mapped DAG on a random platform (bus or mesh): the
/// makespan contract under machine shapes the corpus does not cover.
RunMetrics audit_random(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  maps::TaskGraph g;
  g.name = strformat("rand%llu", static_cast<unsigned long long>(seed));
  const std::size_t n = 4 + rng.next_below(5);
  std::vector<maps::TaskNodeId> ids;
  for (std::size_t i = 0; i < n; ++i)
    ids.push_back(g.add_task(strformat("t%zu", i),
                             500 + rng.next_below(19'500)));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (j == i + 1 || rng.next_bool(0.35))
        g.add_edge(ids[i], ids[j], 64 + rng.next_below(4'032));

  const std::size_t cores = 2 + rng.next_below(3);
  sim::PlatformConfig pc = sim::PlatformConfig::homogeneous(cores);
  if (rng.next_bool(0.5)) {
    pc.interconnect = sim::PlatformConfig::Icn::kMesh;
    pc.mesh.width = 2;
    pc.mesh.height = 2;
  }
  std::vector<std::size_t> task_to_pe(n);
  for (auto& pe : task_to_pe) pe = rng.next_below(cores);

  const auto b = maps::static_makespan_bound(
      g, maps::pes_from_platform(pc), maps::comm_cost_from_platform(pc),
      task_to_pe);
  sim::Platform platform(std::move(pc));
  const TimePs simulated = maps::execute_on_platform(g, task_to_pe, platform);

  RunMetrics m;
  m.makespan = simulated;
  m.set_extra("contract.parts", 1.0);
  m.set_extra("contract.makespan_bound_us",
              static_cast<double>(b.bound) * 1e-6);
  m.set_extra("contract.makespan_simulated_us",
              static_cast<double>(simulated) * 1e-6);
  m.set_extra("contract.makespan_tightness",
              simulated == 0 ? 1.0
                             : static_cast<double>(b.bound) /
                                   static_cast<double>(simulated));
  m.set_extra("contract.conservative",
              simulated <= b.bound ? 1.0 : 0.0);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t random_cells = 10;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--tiny") == 0) random_cells = 3;

  // Keep the corpus alive across the (parallel) harness runs: Target
  // views are non-owning.
  const auto corpus = lint::build_corpus();

  harness::Scenario scenario("e16_perf_contracts", kSeed);
  std::vector<std::string> cells;
  for (const auto& p : corpus) {
    const auto c = lint::compute_perf_contract(p.target());
    if (!c.has_makespan && !c.has_throughput && !c.has_buffers)
      continue;  // starved_csdf: deadlocked, no bound exists by design
    cells.push_back("corpus_" + p.name);
    scenario.add_run(cells.back(), [&p](const harness::RunContext&) {
      return audit_program(p);
    });
  }
  for (std::uint64_t s = 0; s < random_cells; ++s) {
    cells.push_back(strformat("random_%llu",
                              static_cast<unsigned long long>(s)));
    scenario.add_run(cells.back(), [s](const harness::RunContext&) {
      return audit_random(s);
    });
  }
  const auto result = harness::Runner().run(scenario);

  std::printf("E16: static performance contracts vs measurement "
              "(seed %llu)\n",
              static_cast<unsigned long long>(kSeed));
  bool all_conservative = true;
  double worst_tightness = 1.0, least_tightness = 1.0;
  Table t({"program", "bound_us", "simulated_us", "tightness", "W_us",
           "measured_us", "buffers"});
  for (const std::string& cell : cells) {
    const auto& m = result.find(cell)->metrics;
    if (m.extra_or("contract.conservative") != 1.0)
      all_conservative = false;
    for (const char* key :
         {"contract.makespan_tightness", "contract.period_tightness"}) {
      worst_tightness = std::max(worst_tightness, m.extra_or(key, 1.0));
      least_tightness = std::min(least_tightness, m.extra_or(key, 1.0));
    }
    t.add_row(
        {cell, strformat("%.2f", m.extra_or("contract.makespan_bound_us")),
         strformat("%.2f", m.extra_or("contract.makespan_simulated_us")),
         strformat("%.2f", m.extra_or("contract.makespan_tightness", 1.0)),
         strformat("%.2f", m.extra_or("contract.period_bound_us")),
         strformat("%.2f", m.extra_or("contract.period_measured_us")),
         m.extra_or("contract.parts") >= 3.0
             ? (m.extra_or("contract.buffers_ok") == 1.0 ? "ok" : "WEDGED")
             : "-"});
  }
  t.print("static bound vs measured twin; tightness = bound / measured");

  const bool has_corpus = std::any_of(
      cells.begin(), cells.end(),
      [](const std::string& c) { return c.rfind("corpus_", 0) == 0; });
  const bool tight_ok =
      least_tightness >= 1.0 && worst_tightness <= kTightnessBound;
  std::printf("conservativeness gate: %s on %zu cells%s\n",
              all_conservative ? "OK" : "VIOLATED", cells.size(),
              has_corpus ? "" : " (NO corpus cells)");
  std::printf("tightness gate: %.2fx .. %.2fx (documented range 1.0x .. "
              "%.1fx) %s\n",
              least_tightness, worst_tightness, kTightnessBound,
              tight_ok ? "OK" : "VIOLATED");

  std::printf("harness: %zu runs on %zu threads in %.0fms\n",
              result.runs.size(), result.threads_used,
              static_cast<double>(result.wall_ns) / 1e6);
  std::printf("expected shape: every cell conservative (the contract is a "
              "proof, not a heuristic);\ntightness largest where the "
              "serialized bound foregoes the most parallelism.\n");
  return bench::finish("BENCH_contracts.json", {result},
                       all_conservative && tight_ok && has_corpus);
}
