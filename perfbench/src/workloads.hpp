// The four benchmark workloads.
//
// Each workload is a fixed list of inputs generated from the benchmark
// seed; one *run* is one complete simulation of one input (build, spawn,
// run, collect), or one oracle case in fuzz_oracle. Runs record spans
// (spans.hpp) around every call into a library layer, so the traced run
// can split host time per layer without touching the library.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "reference.hpp"

namespace perfbench {

struct RunOutcome {
  Outputs outputs;            // exact simulated results, checked per run
  std::uint64_t events = 0;   // kernel events executed (0 when unknown)
  std::string failure;        // non-empty: the run failed a workload rule
};

/// Which observers a platform-program run attaches. vp_bare attaches
/// none, vp_observed all of them plus report() and the exporters; the
/// traced run's observer twins attach one at a time.
struct Observers {
  bool trace = false;
  bool recorder = false;
  bool session = false;
  bool report = false;  // PerfSession::report() and both exporters
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<std::string>& inputs() const {
    return inputs_;
  }

  /// One complete run of input `i`, spans tagged with `run_id`. Throws
  /// when the library throws.
  virtual RunOutcome run(std::size_t i, std::uint32_t run_id) = 0;

  /// Checks made once per set-up on the first run of every input, against
  /// twins that are not timed (vp_observed against vp_bare). Returns a
  /// failure description per input, "" for a pass.
  virtual std::vector<std::string> setup_checks(
      const std::vector<RunOutcome>& first) {
    return std::vector<std::string>(first.size());
  }

 protected:
  std::string name_;
  std::vector<std::string> inputs_;
};

/// The workload names, in display order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name. `tiny` selects the seconds-long
/// self-check configuration.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool tiny);

// --- Traced-run twins (never run in the untraced runs) -----------------

/// vp_bare's inputs under the observers `obs`, as workload `name`.
std::unique_ptr<Workload> make_observer_twin(std::string name,
                                             std::uint64_t seed, bool tiny,
                                             const Observers& obs);

/// tiled_par's inputs on the sequential tiled engine, as workload
/// "sim.parallel.seq_twin".
std::unique_ptr<Workload> make_sequential_twin(std::uint64_t seed, bool tiny);

}  // namespace perfbench
