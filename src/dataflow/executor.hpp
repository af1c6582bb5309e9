// Time-triggered and data-driven executors for (C)SDF graphs.
//
// The heart of Sec. III. Both executors run the same graph on the same
// cores with the same (possibly overrunning) execution times:
//
//   * kTimeTriggered — "timers periodically trigger the start of the task
//     executions": every firing starts at its design-time offset within a
//     periodic schedule, *whether or not its input data has arrived*. If a
//     producer overran, the consumer reads a stale/unwritten buffer slot
//     (counted as corruption); if a consumer lags, the producer overwrites
//     unread data (also corruption).
//
//   * kDataDriven — "the start of the execution of the tasks is triggered
//     by the arrival of data, except for the source and sink tasks which
//     are periodically triggered by a timer": internal actors fire only
//     when tokens and buffer space exist (back-pressure), so internal
//     corruption is impossible by construction; overruns surface only as
//     source drops or sink underruns, where the paper argues applications
//     are robust.
#pragma once

#include <functional>
#include <vector>

#include "dataflow/graph.hpp"

namespace rw::dataflow {

/// Per-firing actual execution time: (actor, firing index, phase WCET) ->
/// cycles actually needed. Default: exactly the WCET.
using ActorAcet =
    std::function<Cycles(const Actor&, std::uint64_t, Cycles)>;

struct ExecConfig {
  HertzT frequency = mhz(400);
  std::size_t num_cores = 1;       // actors run on core (Actor::core % n)
  DurationPs source_period = microseconds(100);
  std::uint64_t iterations = 100;  // graph iterations to drive
  std::vector<std::size_t> buffer_capacities;  // per edge; empty = default
  ActorAcet acet;                  // nullptr = WCET
};

struct ExecResult {
  std::uint64_t firings = 0;
  std::uint64_t stale_reads = 0;        // consumer ran before producer (TT)
  std::uint64_t overwrites = 0;         // producer clobbered unread data (TT)
  std::uint64_t source_drops = 0;       // source found no buffer space (DD)
  std::uint64_t sink_underruns = 0;     // sink timer found no data (DD)
  std::uint64_t sink_firings = 0;
  TimePs finish = 0;
  std::vector<std::uint64_t> edge_full_blocks;  // per edge: times it gated

  /// Any corruption of data *inside* the graph (the failures applications
  /// are NOT robust to, per Sec. III).
  [[nodiscard]] std::uint64_t internal_corruptions() const {
    return stale_reads + overwrites;
  }
  /// Effective sink throughput in firings per second.
  [[nodiscard]] double sink_throughput_hz() const {
    if (finish == 0) return 0.0;
    return static_cast<double>(sink_firings) * 1e12 /
           static_cast<double>(finish);
  }
};

/// The structural precondition of a periodic schedule: consistent rates,
/// and every source and sink fires exactly once per graph iteration.
Status check_periodic_boundaries(const Graph& g);

/// Run the graph data-driven. Buffer capacities default to
/// max(prod)+max(cons)+initial per edge when not supplied. Throws
/// std::invalid_argument for an invalid graph or one that fails
/// check_periodic_boundaries; an unsustainable period is not an error.
ExecResult run_data_driven(const Graph& g, const ExecConfig& cfg);

/// Run the graph time-triggered against a static periodic schedule derived
/// from WCETs (self-timed WCET simulation supplies the per-firing offsets).
ExecResult run_time_triggered(const Graph& g, const ExecConfig& cfg);

/// The design-time schedule used by run_time_triggered: start offset of
/// every phase firing of one graph iteration, relative to the iteration
/// start, assuming WCETs hold.
struct StaticSchedule {
  struct Slot {
    ActorId actor{};
    std::uint64_t firing = 0;  // firing index within the iteration
    DurationPs offset = 0;
    DurationPs wcet_duration = 0;
  };
  std::vector<Slot> slots;        // sorted by offset
  DurationPs makespan = 0;        // WCET completion of one iteration
};
Result<StaticSchedule> compute_static_schedule(const Graph& g,
                                               const ExecConfig& cfg);

/// Default capacity heuristic for one edge.
std::size_t default_capacity(const Edge& e);

}  // namespace rw::dataflow
