// Execution tracing.
//
// Sec. VII names "hardware and software tracing capabilities" as a key
// virtual-platform debugging feature: "a history of function execution
// within the different processes, and their access to memories and
// peripherals". Every component of the platform reports events here; the
// vpdebug layer and the experiment harnesses consume them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "sim/perf_hooks.hpp"

namespace rw::sim {

enum class TraceKind : std::uint8_t {
  kTaskStart,
  kTaskEnd,
  kComputeStart,
  kComputeEnd,
  kMsgSend,
  kMsgRecv,
  kMemRead,
  kMemWrite,
  kIrqRaise,
  kIrqAck,
  kDmaStart,
  kDmaEnd,
  kFreqChange,
  kSchedDispatch,
  kSchedPreempt,
  kCustom,
};

const char* trace_kind_name(TraceKind k);

struct TraceEvent {
  TimePs time = 0;
  TraceKind kind = TraceKind::kCustom;
  CoreId core{};
  std::string label;    // task/function/peripheral name
  std::uint64_t a = 0;  // kind-specific (address, irq line, value, ...)
  std::uint64_t b = 0;  // kind-specific (size, old value, ...)

  [[nodiscard]] std::string to_string() const;
};

/// One tile's observation point: an append-only trace buffer (retained
/// only when enabled) plus the tile's ObserverSet. Every component on the
/// tile reports here, so observers see trace events and hook calls alike.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] ObserverSet& observers() { return observers_; }
  /// Whether a record() would be kept or seen by anyone; with neither,
  /// record() returns before building the event.
  [[nodiscard]] bool active() const {
    return enabled_ || !observers_.empty();
  }

  void record(TimePs time, TraceKind kind, CoreId core,
              std::string_view label, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if (!active()) return;
    TraceEvent ev{time, kind, core, std::string(label), a, b};
    for (Observer* o : observers_) o->on_trace(ev);
    if (enabled_) events_.push_back(std::move(ev));
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

  /// Events matching a predicate (convenience for tests and reports).
  [[nodiscard]] std::vector<TraceEvent> filter(TraceKind kind) const {
    std::vector<TraceEvent> out;
    for (const auto& e : events_)
      if (e.kind == kind) out.push_back(e);
    return out;
  }

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
  ObserverSet observers_;
};

}  // namespace rw::sim
