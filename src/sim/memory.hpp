// Platform memory model.
//
// Sec. II argues for "strict enforcement of locality, at least for on-chip
// memory": per-core scratchpads plus an optional small shared region. The
// model backs every region with real bytes so that races, corruption and
// debugger inspection (Sec. VII: "illegal access to memories ... can be
// easily identified") are observable facts, not abstractions. Locality
// enforcement is optional and, when enabled, faults any access by a core to
// another core's local memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace rw::sim {

using Addr = std::uint64_t;

struct RegionTag {};
using RegionId = Id<RegionTag>;

/// One mapped memory region.
struct Region {
  RegionId id{};
  std::string name;
  LabelId label = 0;  // `name` in the region's tile tracer table
  Addr base = 0;
  std::uint64_t size = 0;
  Cycles access_latency = 1;   // cycles per access at the accessing core
  CoreId owner{};              // valid => core-local scratchpad
  std::vector<std::uint8_t> bytes;

  /// Tile partition (parallel.hpp): the region's state belongs to one
  /// tile, and accesses are timestamped/traced on that tile's kernel and
  /// tracer. Null clock/trace means tile 0 — the MemorySystem's own
  /// kernel and tracer — which is every region on an untiled platform.
  std::uint32_t tile = 0;
  Kernel* clock = nullptr;
  Tracer* trace = nullptr;

  [[nodiscard]] bool contains(Addr a, std::uint64_t len) const {
    return a >= base && a + len <= base + size;
  }
  [[nodiscard]] bool is_local() const { return owner.is_valid(); }
};

/// A memory access, as seen by Observer::on_mem_access (PMU counters,
/// debugger watchpoints, the race detector).
struct MemAccess {
  TimePs time = 0;
  CoreId core{};
  Addr addr = 0;
  std::uint32_t size = 0;
  bool is_write = false;
  std::uint64_t value = 0;  // value written / value read (0 for blocks)
  bool local = false;       // the accessing core's own scratchpad
  Cycles latency = 0;       // the region's access latency in core cycles
};

/// Address-mapped collection of regions. Accesses are reported on the
/// bus of the region's tile (trace event, then on_mem_access).
class MemorySystem {
 public:
  MemorySystem(Kernel& kernel, Tracer& tracer)
      : kernel_(kernel), tracer_(tracer) {}

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  /// Map a new region; `base` must not overlap an existing region.
  RegionId add_region(std::string name, Addr base, std::uint64_t size,
                      Cycles access_latency, CoreId owner = CoreId{});

  [[nodiscard]] const Region* find_region(Addr a) const;
  [[nodiscard]] const Region& region(RegionId id) const {
    return regions_.at(id.index());
  }
  [[nodiscard]] const std::vector<Region>& regions() const {
    return regions_;
  }

  /// When enabled, a core touching another core's local region is a
  /// locality violation: the access is counted and (configurably) faulted.
  void set_enforce_locality(bool on) { enforce_locality_ = on; }
  [[nodiscard]] std::uint64_t locality_violations() const {
    return locality_violations_.load(std::memory_order_relaxed);
  }

  /// Typed accessors. Addresses must fall inside a mapped region; access
  /// outside any region throws (the "illegal access" of Sec. VII is
  /// reported through the trace before the throw).
  std::uint64_t read_u64(CoreId core, Addr a);
  void write_u64(CoreId core, Addr a, std::uint64_t v);
  std::uint32_t read_u32(CoreId core, Addr a);
  void write_u32(CoreId core, Addr a, std::uint32_t v);
  void read_block(CoreId core, Addr a, std::span<std::uint8_t> out);
  void write_block(CoreId core, Addr a, std::span<const std::uint8_t> in);

  /// Latency of one access to the region containing `a`, in cycles at the
  /// accessing core (the caller turns this into time at its frequency).
  [[nodiscard]] Cycles latency_for(Addr a) const;

  /// Raw (unobserved, zero-latency) access for loaders and checkers.
  void poke(Addr a, std::span<const std::uint8_t> in);
  void peek(Addr a, std::span<std::uint8_t> out) const;

  /// Tile partition plumbing (set by Platform when num_tiles > 1).
  /// set_region_context() rebinds a region to a tile's kernel/tracer;
  /// set_core_tiles() installs the core -> tile map that arms the
  /// cross-tile access guard: a core touching a region on another tile is
  /// a programming error under conservative sync (the tiles' clocks are
  /// not ordered inside an epoch), so the access throws. The shared
  /// region stays on tile 0 and is only reachable from tile-0 cores.
  void set_region_context(RegionId id, std::uint32_t tile, Kernel* clock,
                          Tracer* trace);
  void set_core_tiles(std::vector<std::uint32_t> tiles) {
    core_tiles_ = std::move(tiles);
  }

 private:
  Region& region_for(Addr a, std::uint64_t len, CoreId core, bool is_write);
  /// Report one completed access on the region's tile bus.
  void observe(const Region& r, CoreId core, Addr a, std::uint64_t size,
               bool is_write, std::uint64_t value, bool block = false);
  [[nodiscard]] Kernel& clock_of(const Region& r) const {
    return r.clock != nullptr ? *r.clock : kernel_;
  }
  [[nodiscard]] Tracer& tracer_of(const Region& r) const {
    return r.trace != nullptr ? *r.trace : tracer_;
  }

  Kernel& kernel_;
  Tracer& tracer_;
  std::vector<Region> regions_;
  std::vector<std::uint32_t> core_tiles_;  // empty == untiled, no guard
  bool enforce_locality_ = false;
  // Atomic only because two tiles may fault locally at the same instant;
  // the count itself stays deterministic (each tile's faults are).
  std::atomic<std::uint64_t> locality_violations_{0};
};

}  // namespace rw::sim
