// TraceView: a stable, typed view over a raw execution trace.
//
// Every consumer that walks sim::TraceEvent streams by hand re-derives the
// same pairing rules (start/end per core, send/recv per edge) with slightly
// different bugs; TraceView is the one blessed decoder. It turns the flat
// event log into typed *spans* — compute, transfer and DMA segments with
// resolved start/finish times and identities — and is the input contract of
// rw::critpath's dependence-graph builder.
//
// Recognized encodings (everything else is skipped, never an error):
//   * kTaskStart/kTaskEnd   — one compute span per task; a = task index,
//     start.b = executed cycles, end.b = reference cycles. Emitted by
//     maps::execute_on_platform_traced.
//   * kComputeStart/kComputeEnd — one compute span per labelled block
//     (kernel-run workloads; a core runs one block at a time, paired per
//     core by label); task identity stays kNoTask, start.a = cycles.
//   * kMsgSend/kMsgRecv     — one transfer span per pair; a = packed
//     (src_task<<32)|dst_task, b = bytes, FIFO-paired per key.
//   * kDmaStart/kDmaEnd     — one DMA span per pair (engine serializes,
//     so FIFO pairing is exact); b = length in bytes.
//
// Spans preserve the *encounter order* of their opening events (`seq`).
// For traces produced by reservation-order executors this order is exactly
// the order every platform resource serialized its requests in, which is
// what the critpath replay leans on. The global stream need not be sorted
// by time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/trace.hpp"

namespace rw::perf {

/// Sentinel task identity for spans without one (plain compute blocks).
inline constexpr std::uint64_t kNoTask = ~0ULL;

struct ComputeSpan {
  std::size_t seq = 0;  // index of the opening trace event
  sim::CoreId core{};
  std::string label;
  std::uint64_t task = kNoTask;  // task index when known
  Cycles cycles = 0;             // cycles executed on `core`
  Cycles ref_cycles = 0;         // reference-RISC cycles (0 when unknown)
  TimePs start = 0;
  TimePs finish = 0;

  [[nodiscard]] DurationPs duration() const { return finish - start; }
};

struct TransferSpan {
  std::size_t seq = 0;
  sim::CoreId src_core{};
  sim::CoreId dst_core{};
  std::string label;
  std::uint64_t src_task = kNoTask;
  std::uint64_t dst_task = kNoTask;
  std::uint64_t bytes = 0;
  TimePs start = 0;
  TimePs finish = 0;

  /// Same-PE dependence record: never touched the fabric.
  [[nodiscard]] bool local() const { return src_core == dst_core; }
  [[nodiscard]] DurationPs duration() const { return finish - start; }
};

struct DmaSpan {
  std::size_t seq = 0;
  std::uint64_t bytes = 0;
  TimePs start = 0;
  TimePs finish = 0;

  [[nodiscard]] DurationPs duration() const { return finish - start; }
};

class TraceView {
 public:
  /// Decode `events` (tolerant: unmatched or foreign events are counted in
  /// total_events() but produce no span). A zero-event trace yields a
  /// valid empty view.
  static TraceView from_events(const sim::TraceLog& events);

  [[nodiscard]] const std::vector<ComputeSpan>& computes() const {
    return computes_;
  }
  [[nodiscard]] const std::vector<TransferSpan>& transfers() const {
    return transfers_;
  }
  [[nodiscard]] const std::vector<DmaSpan>& dmas() const { return dmas_; }

  [[nodiscard]] bool empty() const {
    return computes_.empty() && transfers_.empty() && dmas_.empty();
  }
  [[nodiscard]] std::size_t span_count() const {
    return computes_.size() + transfers_.size() + dmas_.size();
  }
  /// Events in the input stream, decoded or not.
  [[nodiscard]] std::size_t total_events() const { return total_events_; }
  /// Events consumed into spans (2 per span by construction).
  [[nodiscard]] std::size_t consumed_events() const {
    return 2 * span_count();
  }

  /// Latest finish over all spans (0 for an empty view).
  [[nodiscard]] TimePs makespan() const { return makespan_; }

 private:
  std::vector<ComputeSpan> computes_;
  std::vector<TransferSpan> transfers_;
  std::vector<DmaSpan> dmas_;
  std::size_t total_events_ = 0;
  TimePs makespan_ = 0;
};

}  // namespace rw::perf
