// Watchdog timer peripheral (rw::fault detection primitive).
//
// The classic lockup detector: software kicks the watchdog on every unit
// of progress; if no kick arrives within the timeout, the watchdog
// expires and raises its interrupt line — the RecoverySupervisor's cue
// that something stopped making progress. Memory-mapped like every other
// peripheral (kick is a register write), so on-target software and the
// debugger see it the same way.
//
// Liveness subtlety: expiry events are LIVE kernel events, not daemons.
// A hung system has no live events left — a daemon expiry would never
// fire, which is precisely backwards for a watchdog. The cost is that an
// armed watchdog keeps the simulation alive, so whoever arms it must
// disarm it (scenario completion or the supervisor giving up); both
// paths are guaranteed in rw::fault::run_fault_scenario.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/peripherals.hpp"

namespace rw::fault {

class WatchdogPeripheral final : public sim::Peripheral {
 public:
  static constexpr std::size_t kRegTimeoutPs = 0;
  static constexpr std::size_t kRegCtrl = 1;  // bit0 armed; write to arm/disarm
  static constexpr std::size_t kRegKick = 2;  // write-any-value to kick
  static constexpr std::size_t kRegExpiredCount = 3;
  static constexpr std::size_t kRegKickCount = 4;

  WatchdogPeripheral(sim::Kernel& kernel, sim::Tracer& tracer,
                     sim::InterruptController& irqc, std::size_t irq_line,
                     std::string name = "wdt");

  /// Arm with `timeout`; expiry fires that long after the last kick (or
  /// after arming). Expiry auto-re-arms: a dead system keeps expiring
  /// every timeout until someone disarms or recovery restores kicks.
  void arm(DurationPs timeout);
  void kick();
  void disarm();

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] DurationPs timeout() const { return timeout_; }
  [[nodiscard]] std::uint64_t expired_count() const { return expired_count_; }
  [[nodiscard]] std::uint64_t kick_count() const { return kick_count_; }
  [[nodiscard]] std::size_t irq_line() const { return irq_line_; }
  sim::Signal& expired_signal() { return expired_; }

  std::uint64_t read_reg(std::size_t index) const override;
  void write_reg(std::size_t index, std::uint64_t value) override;
  std::vector<sim::RegInfo> registers() const override;
  std::vector<sim::Signal*> signals() override;

 private:
  void schedule_expiry();

  sim::Kernel& kernel_;
  sim::Tracer& tracer_;
  sim::InterruptController& irqc_;
  std::size_t irq_line_;
  DurationPs timeout_ = 0;
  bool armed_ = false;
  std::uint64_t generation_ = 0;  // invalidates superseded expiry events
  std::uint64_t expired_count_ = 0;
  std::uint64_t kick_count_ = 0;
  sim::Signal expired_;
  sim::LabelId arm_label_, disarm_label_, expire_label_;  // trace labels
};

}  // namespace rw::fault
