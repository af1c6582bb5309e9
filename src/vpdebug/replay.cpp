#include "vpdebug/replay.hpp"

namespace rw::vpdebug {
namespace {

constexpr std::uint64_t kFnvInit = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fold_str(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

ExecutionRecorder::ExecutionRecorder(sim::Platform& platform)
    : slots_(platform.tile_count()) {
  for (std::size_t t = 0; t < slots_.size(); ++t)
    platform.tile_tracer(static_cast<std::uint32_t>(t))
        .observers()
        .attach(slots_[t]);
}

std::uint64_t ExecutionRecorder::fingerprint() const {
  // One tile: exactly the historical single-stream digest.
  if (slots_.size() == 1) return slots_[0].hash;
  // Many tiles: combine (tile, digest, count) in tile order. Counts are
  // folded so a tile swallowing another's events cannot cancel out.
  std::uint64_t h = kFnvInit;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    h = fold_u64(h, t);
    h = fold_u64(h, slots_[t].hash);
    h = fold_u64(h, slots_[t].count);
  }
  return h;
}

std::uint64_t ExecutionRecorder::events() const {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.count;
  return n;
}

void ExecutionRecorder::Slot::on_trace(const sim::TraceEvent& ev) {
  ++count;
  hash = fold_u64(hash, ev.time);
  hash = fold_u64(hash, static_cast<std::uint64_t>(ev.kind));
  hash = fold_u64(hash, ev.core.is_valid() ? ev.core.value() : ~0ULL);
  hash = fold_str(hash, ev.label);
  hash = fold_u64(hash, ev.a);
  hash = fold_u64(hash, ev.b);
}

}  // namespace rw::vpdebug
