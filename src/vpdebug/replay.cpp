#include "vpdebug/replay.hpp"

#include <array>

namespace rw::vpdebug {
namespace {

constexpr std::uint64_t kFnvInit = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// kFnvPrimePow[k] = kFnvPrime^k mod 2^64.
constexpr auto kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kFnvPrime;
  return p;
}();

std::uint64_t fold_str(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t fnv1a_fold_u64(std::uint64_t h, std::uint64_t v) {
  // XOR with a zero byte is the identity, so the run of high zero bytes
  // (most of every timestamp, kind, core and payload) folds as a single
  // multiply by kFnvPrime^k.
  int i = 0;
  for (; v != 0; v >>= 8, ++i) {
    h ^= v & 0xff;
    h *= kFnvPrime;
  }
  return h * kFnvPrimePow[8 - i];
}

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
    h = fnv1a_fold_u64(h, t);
    h = fnv1a_fold_u64(h, slots_[t].hash);
    h = fnv1a_fold_u64(h, slots_[t].count);
  }
  return h;
}

std::uint64_t ExecutionRecorder::events() const {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.count;
  return n;
}

void ExecutionRecorder::Slot::on_trace(const sim::TraceEvent& ev,
                                       std::string_view label) {
  ++count;
  hash = fnv1a_fold_u64(hash, ev.time);
  hash = fnv1a_fold_u64(hash, static_cast<std::uint64_t>(ev.kind));
  hash = fnv1a_fold_u64(hash, ev.core.is_valid() ? ev.core.value() : ~0ULL);
  hash = fold_str(hash, label);
  hash = fnv1a_fold_u64(hash, ev.a);
  hash = fnv1a_fold_u64(hash, ev.b);
}

}  // namespace rw::vpdebug
