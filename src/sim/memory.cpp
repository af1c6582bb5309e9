#include "sim/memory.hpp"

#include <cstring>
#include <stdexcept>

#include "common/strings.hpp"

namespace rw::sim {

RegionId MemorySystem::add_region(std::string name, Addr base,
                                  std::uint64_t size, Cycles access_latency,
                                  CoreId owner) {
  for (const auto& r : regions_) {
    const bool overlaps = base < r.base + r.size && r.base < base + size;
    if (overlaps)
      throw std::invalid_argument("memory region '" + name + "' overlaps '" +
                                  r.name + "'");
  }
  Region r;
  r.id = RegionId{static_cast<std::uint32_t>(regions_.size())};
  r.name = std::move(name);
  r.label = tracer_.intern(r.name);
  r.base = base;
  r.size = size;
  r.access_latency = access_latency;
  r.owner = owner;
  r.bytes.assign(size, 0);
  regions_.push_back(std::move(r));
  return regions_.back().id;
}

void MemorySystem::set_region_context(RegionId id, std::uint32_t tile,
                                      Kernel* clock, Tracer* trace) {
  Region& r = regions_.at(id.index());
  r.tile = tile;
  r.clock = clock;
  r.trace = trace;
  r.label = tracer_of(r).intern(r.name);
}

const Region* MemorySystem::find_region(Addr a) const {
  for (const auto& r : regions_)
    if (a >= r.base && a < r.base + r.size) return &r;
  return nullptr;
}

Cycles MemorySystem::latency_for(Addr a) const {
  const Region* r = find_region(a);
  return r ? r->access_latency : 1;
}

Region& MemorySystem::region_for(Addr a, std::uint64_t len, CoreId core,
                                 bool is_write) {
  for (auto& r : regions_) {
    if (!r.contains(a, len)) continue;
    // Under tiled execution a region is only reachable from cores on its
    // own tile: the tiles' clocks are not ordered inside an epoch, so a
    // cross-tile load/store would have no defined timestamp (use a
    // TileLink or DMA through the fabric instead).
    if (!core_tiles_.empty() && core.is_valid() &&
        core.index() < core_tiles_.size() &&
        core_tiles_[core.index()] != r.tile) {
      throw std::logic_error(strformat(
          "cross-tile memory access: core%u (tile %u) touched %s (tile %u)",
          core.value(), core_tiles_[core.index()], r.name.c_str(), r.tile));
    }
    if (enforce_locality_ && r.is_local() && core.is_valid() &&
        r.owner != core) {
      locality_violations_.fetch_add(1, std::memory_order_relaxed);
      tracer_of(r).record(clock_of(r).now(),
                          is_write ? TraceKind::kMemWrite : TraceKind::kMemRead,
                          core, "LOCALITY_VIOLATION:" + r.name, a, len);
      throw std::runtime_error(strformat(
          "locality violation: core%u accessed %s (owned by core%u)",
          core.value(), r.name.c_str(), r.owner.value()));
    }
    return r;
  }
  // An unmapped access has no region and hence no tile context; recording
  // it on the tile-0 tracer is only safe when the caller is tile 0 (the
  // throw below terminates the run either way).
  const bool tile0 = core_tiles_.empty() || !core.is_valid() ||
                     core.index() >= core_tiles_.size() ||
                     core_tiles_[core.index()] == 0;
  if (tile0)
    tracer_.record(kernel_.now(),
                   is_write ? TraceKind::kMemWrite : TraceKind::kMemRead, core,
                   "ILLEGAL_ACCESS", a, len);
  throw std::out_of_range(
      strformat("illegal access to unmapped address 0x%llx (%llu bytes)",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(len)));
}

void MemorySystem::observe(const Region& r, CoreId core, Addr a,
                           std::uint64_t size, bool is_write,
                           std::uint64_t value, bool block) {
  Tracer& t = tracer_of(r);
  if (!t.active()) return;
  const TimePs now = clock_of(r).now();
  // Trace payload b: the value of a word access, the length of a block.
  t.record(now, is_write ? TraceKind::kMemWrite : TraceKind::kMemRead, core,
           r.label, a, block ? size : value);
  if (t.observers().empty()) return;
  const MemAccess acc{now,      core,  a, static_cast<std::uint32_t>(size),
                      is_write, value, r.is_local() && r.owner == core,
                      r.access_latency};
  for (Observer* o : t.observers()) o->on_mem_access(acc);
}

std::uint64_t MemorySystem::read_u64(CoreId core, Addr a) {
  Region& r = region_for(a, 8, core, /*is_write=*/false);
  std::uint64_t v = 0;
  std::memcpy(&v, r.bytes.data() + (a - r.base), 8);
  observe(r, core, a, 8, /*is_write=*/false, v);
  return v;
}

void MemorySystem::write_u64(CoreId core, Addr a, std::uint64_t v) {
  Region& r = region_for(a, 8, core, /*is_write=*/true);
  std::memcpy(r.bytes.data() + (a - r.base), &v, 8);
  observe(r, core, a, 8, /*is_write=*/true, v);
}

std::uint32_t MemorySystem::read_u32(CoreId core, Addr a) {
  Region& r = region_for(a, 4, core, /*is_write=*/false);
  std::uint32_t v = 0;
  std::memcpy(&v, r.bytes.data() + (a - r.base), 4);
  observe(r, core, a, 4, /*is_write=*/false, v);
  return v;
}

void MemorySystem::write_u32(CoreId core, Addr a, std::uint32_t v) {
  Region& r = region_for(a, 4, core, /*is_write=*/true);
  std::memcpy(r.bytes.data() + (a - r.base), &v, 4);
  observe(r, core, a, 4, /*is_write=*/true, v);
}

void MemorySystem::read_block(CoreId core, Addr a,
                              std::span<std::uint8_t> out) {
  Region& r = region_for(a, out.size(), core, /*is_write=*/false);
  std::memcpy(out.data(), r.bytes.data() + (a - r.base), out.size());
  observe(r, core, a, out.size(), /*is_write=*/false, 0, /*block=*/true);
}

void MemorySystem::write_block(CoreId core, Addr a,
                               std::span<const std::uint8_t> in) {
  Region& r = region_for(a, in.size(), core, /*is_write=*/true);
  std::memcpy(r.bytes.data() + (a - r.base), in.data(), in.size());
  observe(r, core, a, in.size(), /*is_write=*/true, 0, /*block=*/true);
}

void MemorySystem::poke(Addr a, std::span<const std::uint8_t> in) {
  for (auto& r : regions_) {
    if (r.contains(a, in.size())) {
      std::memcpy(r.bytes.data() + (a - r.base), in.data(), in.size());
      return;
    }
  }
  throw std::out_of_range("poke outside mapped memory");
}

void MemorySystem::peek(Addr a, std::span<std::uint8_t> out) const {
  for (const auto& r : regions_) {
    if (r.contains(a, out.size())) {
      std::memcpy(out.data(), r.bytes.data() + (a - r.base), out.size());
      return;
    }
  }
  throw std::out_of_range("peek outside mapped memory");
}

}  // namespace rw::sim
