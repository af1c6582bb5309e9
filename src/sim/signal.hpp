// Named boolean signals with observers.
//
// Sec. VII: "A watchpoint can be set on a signal, such as the interrupt
// line of a peripheral." Signals are the debugger-visible wires of the
// platform: interrupt lines, DMA-busy, timer-expired. Every level change
// is reported synchronously to the owning tile's observers (on_signal).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/trace.hpp"

namespace rw::sim {

class Signal {
 public:
  Signal(std::string name, Tracer& tracer, bool level = false)
      : name_(std::move(name)), tracer_(tracer), level_(level) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool level() const { return level_; }
  [[nodiscard]] std::uint64_t toggle_count() const { return toggles_; }

  /// Drive the signal; observers run only on actual level changes.
  void set(bool level) {
    if (level == level_) return;
    const bool old = level_;
    level_ = level;
    ++toggles_;
    for (Observer* o : tracer_.observers()) o->on_signal(*this, old);
  }

  void raise() { set(true); }
  void lower() { set(false); }

  /// Pulse: raise then immediately lower (both edges observable).
  void pulse() {
    set(true);
    set(false);
  }

 private:
  std::string name_;
  Tracer& tracer_;
  bool level_;
  std::uint64_t toggles_ = 0;
};

}  // namespace rw::sim
