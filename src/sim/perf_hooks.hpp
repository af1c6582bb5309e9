// The simulator's observation bus.
//
// Sec. VII's core argument for virtual platforms is *non-intrusive
// observability*: "hardware and software tracing capabilities" that real
// silicon cannot offer without perturbing the system under test. Each
// tile's Tracer owns one ObserverSet; every core, memory region,
// peripheral, DMA engine, TileLink and (tile 0's) interconnect reports
// trace events and PMU-style hook calls to the set of its tile, and
// Platform::attach/detach add an observer to every tile's set. Observers
// compose: PMUs, the fault oracle's integrity check, recorders, the race
// detector and the debugger can all watch one platform. With nothing
// attached and trace retention off, a hook site is one empty-set branch
// and builds no event; observers see decisions already taken, so the run
// stays bit-identical (tests/test_perf_pmu.cpp). The sim layer owns only
// this interface; rw::perf, rw::fault and rw::vpdebug implement it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace rw::sim {

struct CoreTag {};
using CoreId = Id<CoreTag>;

struct TraceEvent;
struct MemAccess;
class Signal;
class ObserverSet;

/// One observer on the bus. Hooks have empty default bodies, so an
/// observer overrides only what it watches, and must not mutate
/// simulation state (the debugger only requests a kernel stop). Whichever
/// of an observer and its sets dies first unlinks itself from the other.
class Observer {
 public:
  Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;
  virtual ~Observer();

  // --- trace ---
  /// Every trace event, whether or not the tracer retains it, with its
  /// label resolved (the view outlives the call; see LabelTable).
  virtual void on_trace(const TraceEvent& ev, std::string_view label) {
    (void)ev, (void)label;
  }

  // --- core ---
  /// Core `core` reserved `cycles` of work over [start, finish] at clock
  /// `freq`. Fires for every reservation path (compute awaitables and
  /// direct reserve_from callers such as the MAPS replayer).
  virtual void on_core_reserve(CoreId core, Cycles cycles, TimePs start,
                               TimePs finish, HertzT freq) {
    (void)core, (void)cycles, (void)start, (void)finish, (void)freq;
  }
  /// A labelled compute block retired (fires at the block's end event, so
  /// the timestamps are final). Start/finish bracket the whole block.
  virtual void on_compute_block(CoreId core, std::string_view label,
                                Cycles cycles, TimePs start, TimePs finish) {
    (void)core, (void)label, (void)cycles, (void)start, (void)finish;
  }
  /// DVFS transition on `core`.
  virtual void on_freq_change(CoreId core, HertzT from, HertzT to) {
    (void)core, (void)from, (void)to;
  }

  // --- memory ---
  /// One memory access (poke/peek loader back-doors are not reported).
  virtual void on_mem_access(const MemAccess& acc) { (void)acc; }

  // --- interconnect ---
  /// One fabric transfer. `wait` is time spent queued behind prior traffic
  /// (the contention the paper's "centralized constructs" warning is
  /// about); `duration` is occupancy from grant to delivery; `hops` is the
  /// NoC route length (0 on a shared bus).
  virtual void on_transfer(CoreId src, CoreId dst, std::uint64_t bytes,
                           DurationPs wait, DurationPs duration,
                           std::uint32_t hops) {
    (void)src, (void)dst, (void)bytes, (void)wait, (void)duration,
        (void)hops;
  }
  /// One directed NoC link was occupied for `busy` ps (fires per hop; the
  /// shared bus reports itself as link 0).
  virtual void on_link_busy(std::size_t link, DurationPs busy) {
    (void)link, (void)busy;
  }

  // --- DMA ---
  /// One DMA block copy completed its reservation over [start, finish].
  virtual void on_dma(std::uint64_t bytes, TimePs start, TimePs finish) {
    (void)bytes, (void)start, (void)finish;
  }

  // --- signals ---
  /// A signal changed level (`sig.level()` is the new one).
  virtual void on_signal(const Signal& sig, bool old_level) {
    (void)sig, (void)old_level;
  }

 private:
  friend class ObserverSet;
  std::vector<ObserverSet*> sets_;  // every set this observer is in
};

/// The observers attached to one tile, in attach order. Attaching twice
/// is a no-op. Observers are called synchronously on the tile's own
/// thread; attach/detach only between runs.
class ObserverSet {
 public:
  ObserverSet() = default;
  ObserverSet(const ObserverSet&) = delete;
  ObserverSet& operator=(const ObserverSet&) = delete;
  ~ObserverSet() {
    for (Observer* o : list_) std::erase(o->sets_, this);
  }

  void attach(Observer& o) {
    if (std::find(list_.begin(), list_.end(), &o) != list_.end()) return;
    list_.push_back(&o);
    o.sets_.push_back(this);
  }
  void detach(Observer& o) {
    std::erase(list_, &o);
    std::erase(o.sets_, this);
  }

  [[nodiscard]] bool empty() const { return list_.empty(); }
  [[nodiscard]] auto begin() const { return list_.begin(); }
  [[nodiscard]] auto end() const { return list_.end(); }

 private:
  friend class Observer;
  std::vector<Observer*> list_;
};

inline Observer::~Observer() {
  for (ObserverSet* s : sets_) std::erase(s->list_, this);
}

}  // namespace rw::sim
