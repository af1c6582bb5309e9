// rw::fuzz — the invariant oracle.
//
// run_case() executes one CampaignCase end to end and checks every
// global invariant that applies to its family:
//
//   determinism.rerun    — a second identical run is bit-identical
//                          (trace fingerprint + every outcome field),
//   determinism.policy   — flipping the kernel queue policy changes
//                          nothing observable,
//   determinism.exec     — flipping the tiled engine between sequential
//                          and parallel execution changes nothing,
//   liveness.budget      — the run drains instead of hitting the event
//                          budget (runaway/livelock guard),
//   liveness.fault_free  — with no faults and no recovery policy, the
//                          fault pipeline finishes and delivers every
//                          item (a timed watchdog policy may legally
//                          give up, so strict liveness is kNone-only),
//   conservation.items   — the sink never sees an alien or duplicate id,
//   conservation.channel — per-channel sent == received + buffered,
//   integrity.compute    — every retired compute block matches its
//                          reservation (the invariant the seeded PR-5
//                          defect violates),
//   bound.makespan       — the platform replay of a mapping never
//                          exceeds its lint::PerfContract static bound,
//   ert.accounting       — per tenant, completed + rejected == submitted,
//                          and reruns reproduce the tenant fingerprints,
//   run.exception        — no run of the case throws (a rejected platform
//                          config, an illegal access, ...); run_case
//                          itself never throws, so the campaign counts
//                          and shrinks such a case like any other.
//
// Violations carry the stable invariant id plus a human detail line; the
// shrinker's predicate is "still violates this same invariant id".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "fuzz/case.hpp"
#include "fuzz/coverage.hpp"
#include "maps/taskgraph.hpp"

namespace rw::fuzz {

struct Violation {
  std::string invariant;  // stable id, e.g. "determinism.policy"
  std::string detail;
};

/// Which determinism twins to run. The campaign keeps them all on; the
/// shrinker turns off the ones unrelated to the violation it is chasing
/// so candidate evaluation stays cheap.
struct OracleOptions {
  bool rerun_twin = true;
  bool policy_twin = true;
  bool exec_twin = true;
};

struct CaseOutcome {
  std::vector<Violation> violations;
  std::vector<CoverageCell> cells;  // every cell this case's runs hit
  std::uint64_t fingerprint = 0;    // base run's trace digest (0 for ert)
  TimePs makespan = 0;              // base run's simulated end time
  std::uint64_t sub_runs = 0;       // simulations executed for this case

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] bool violates(std::string_view invariant) const {
    for (const Violation& v : violations)
      if (v.invariant == invariant) return true;
    return false;
  }
};

/// Every invariant id the oracle can report, in stable display order.
[[nodiscard]] const std::vector<std::string>& invariant_names();

/// The maps-family task graph derived from (seed, graph_tasks): a chain
/// for connectivity plus seed-drawn cross edges. Exposed for tests.
[[nodiscard]] maps::TaskGraph build_case_graph(const CampaignCase& c);

/// Run the case and check everything that applies. Deterministic: equal
/// (case, options) produce equal outcomes.
[[nodiscard]] CaseOutcome run_case(const CampaignCase& c,
                                   const OracleOptions& opts = {});

}  // namespace rw::fuzz
