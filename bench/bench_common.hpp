// Helpers shared by the experiment benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/harness.hpp"

namespace rw::bench {

/// Zero every wall-clock field of `result` — the scenario total and each
/// run — and drop the extras derived from them (throughputs, millisecond
/// mirrors), so the exported JSON document is byte-identical across
/// reruns. Timing stays on stdout and in the process's gate exit code.
inline harness::ScenarioResult scrub_wall_clock(
    harness::ScenarioResult result,
    const std::vector<std::string>& derived_extras = {"events_per_sec",
                                                      "wall_ms"}) {
  result.wall_ns = 0;
  for (harness::RunRecord& r : result.runs) {
    r.metrics.wall_ns = 0;
    std::erase_if(r.metrics.extra, [&](const auto& kv) {
      return std::find(derived_extras.begin(), derived_extras.end(),
                       kv.first) != derived_extras.end();
    });
  }
  return result;
}

/// The common end of every gated bench, and its exit code. Each bench's
/// gates live here and only here: nothing downstream re-checks the
/// document. The verdict fails when `gates_ok` is false, when any run
/// threw (a thrown run carries zeroed metrics that could slip through a
/// threshold), or when the document cannot be written. The written
/// document is wall-clock scrubbed with `threads` pinned to 1, so it is
/// byte-identical across reruns and hosts.
inline int finish(const std::string& path,
                  std::vector<harness::ScenarioResult> results,
                  bool gates_ok) {
  for (harness::ScenarioResult& r : results) {
    r = scrub_wall_clock(std::move(r));
    r.threads_used = 1;
    for (const harness::RunRecord& run : r.runs)
      if (!run.ok) {
        std::printf("gate FAIL: run %s threw: %s\n", run.label.c_str(),
                    run.error.c_str());
        gates_ok = false;
      }
  }
  if (const auto s = harness::write_json(path, results); !s.ok()) {
    std::printf("error: %s\n", s.error().to_string().c_str());
    return 1;
  }
  return gates_ok ? 0 : 1;
}

}  // namespace rw::bench
