// Execution tracing.
//
// Sec. VII names "hardware and software tracing capabilities" as a key
// virtual-platform debugging feature: "a history of function execution
// within the different processes, and their access to memories and
// peripherals". Every component of the platform reports events here; the
// vpdebug layer and the experiment harnesses consume them.
//
// Labels are interned, the way a VCD file declares each signal name once
// and then refers to it by a short code: each Tracer owns a LabelTable,
// components intern their fixed names once at construction, and an event
// carries only a LabelId. Events are 32-byte PODs retained in a chunked
// log that never copies on growth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
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

/// Index of a label in one LabelTable. Only meaningful against the table
/// that issued it; id 0 is the empty label.
using LabelId = std::uint32_t;

/// Append-only string intern table. Each distinct label is stored once
/// and keeps its id for the table's lifetime. A view returned by view()
/// or intern() stays valid until the table is destroyed, however many
/// labels are interned after it: label bytes live in arena blocks that
/// never move or shrink, and moving the table moves the blocks along.
/// Building one costs a few allocations, since every platform tile has
/// one.
class LabelTable {
 public:
  /// Ids fit TraceEvent's 24-bit label field.
  static constexpr std::size_t kIdRange = std::size_t{1} << 24;

  /// `capacity` caps the number of labels at or below kIdRange; interning
  /// a new label past it throws std::length_error. Only tests of that
  /// path pass a smaller cap.
  explicit LabelTable(std::size_t capacity = kIdRange);
  LabelTable(const LabelTable& other);
  LabelTable& operator=(const LabelTable& other);
  LabelTable(LabelTable&&) noexcept = default;
  LabelTable& operator=(LabelTable&&) noexcept = default;

  /// The id of `s`, adding it on first sight.
  LabelId intern(std::string_view s);
  [[nodiscard]] std::string_view view(LabelId id) const { return views_[id]; }
  [[nodiscard]] std::size_t size() const { return views_.size(); }

 private:
  static constexpr std::size_t kBlockBytes = 4096;

  /// Copy `s` into the arena.
  std::string_view store(std::string_view s);
  /// Double the open-addressing index and re-place every id.
  void grow_index();

  std::size_t capacity_;
  std::vector<std::unique_ptr<char[]>> blocks_;  // arena: label bytes
  char* free_ = nullptr;                         // unused tail of a block
  std::size_t free_left_ = 0;
  std::vector<std::string_view> views_;  // id -> label
  std::vector<LabelId> slots_;           // linear probing; id + 1, 0 = empty
};

/// One trace record. `label` indexes the LabelTable of the Tracer (or
/// TraceLog) the event came from; resolve it through TraceLog::label().
struct TraceEvent {
  TimePs time = 0;
  std::uint64_t a = 0;  // kind-specific (address, irq line, value, ...)
  std::uint64_t b = 0;  // kind-specific (size, old value, ...)
  CoreId core{};
  TraceKind kind = TraceKind::kCustom;
  LabelId label : 24 = 0;  // task/function/peripheral name

  [[nodiscard]] std::string to_string(std::string_view label_text) const;
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay 32 bytes");
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// The retained events of one Tracer plus the label table their ids
/// index. Events live in fixed-size chunks, each below glibc's 128 KiB
/// mmap threshold so a freed chunk is reused by the next allocation; the
/// log never moves an event once written. clear() keeps the chunks (and
/// the labels) for the next run.
class TraceLog {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::size_t kChunkEvents = kChunkBytes / sizeof(TraceEvent);
  static_assert((kChunkEvents & (kChunkEvents - 1)) == 0);

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceEvent*;
    using reference = const TraceEvent&;

    const_iterator() = default;
    reference operator*() const { return *p_; }
    pointer operator->() const { return p_; }
    const_iterator& operator++() {
      if ((++i_ & (kChunkEvents - 1)) == 0)
        p_ = i_ < log_->size_ ? log_->chunks_[i_ / kChunkEvents].get()
                              : nullptr;
      else
        ++p_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    friend class TraceLog;
    const_iterator(const TraceLog* log, std::size_t i, const TraceEvent* p)
        : log_(log), i_(i), p_(p) {}
    const TraceLog* log_ = nullptr;
    std::size_t i_ = 0;
    const TraceEvent* p_ = nullptr;
  };

  TraceLog() = default;
  TraceLog(const TraceLog& other);
  TraceLog& operator=(const TraceLog& other);
  TraceLog(TraceLog&& other) noexcept;
  TraceLog& operator=(TraceLog&& other) noexcept;

  void push_back(const TraceEvent& ev) {
    if (tail_ == tail_end_) next_chunk();
    *tail_++ = ev;
    ++size_;
  }
  /// Drop every event; chunks and labels stay.
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const TraceEvent& operator[](std::size_t i) const {
    return chunks_[i / kChunkEvents][i % kChunkEvents];
  }
  [[nodiscard]] const_iterator begin() const {
    return {this, 0, size_ == 0 ? nullptr : chunks_.front().get()};
  }
  [[nodiscard]] const_iterator end() const { return {this, size_, nullptr}; }

  [[nodiscard]] LabelTable& labels() { return labels_; }
  [[nodiscard]] const LabelTable& labels() const { return labels_; }
  [[nodiscard]] std::string_view label(const TraceEvent& ev) const {
    return labels_.view(ev.label);
  }

 private:
  struct ChunkFree {
    void operator()(TraceEvent* p) const { ::operator delete(p); }
  };
  using Chunk = std::unique_ptr<TraceEvent[], ChunkFree>;

  /// Point the tail at the next chunk, allocating one if none is spare.
  void next_chunk();

  LabelTable labels_;
  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
  TraceEvent* tail_ = nullptr;  // next free slot
  TraceEvent* tail_end_ = nullptr;
};

/// One tile's observation point: the tile's label table, an append-only
/// event log (retained only when enabled) and the tile's ObserverSet.
/// Every component on the tile reports here, so observers see trace
/// events and hook calls alike.
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

  /// This tile's id for `s` (see LabelTable). Only the tile's own thread,
  /// or the coordinator between runs, may intern.
  LabelId intern(std::string_view s) { return log_.labels().intern(s); }
  [[nodiscard]] std::string_view label(LabelId id) const {
    return log_.labels().view(id);
  }

  void record(TimePs time, TraceKind kind, CoreId core, LabelId label,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!active()) return;
    const TraceEvent ev{time, a, b, core, kind, label};
    if (!observers_.empty()) {
      const std::string_view text = log_.labels().view(label);
      for (Observer* o : observers_) o->on_trace(ev, text);
    }
    if (enabled_) log_.push_back(ev);
  }
  /// As above for a label without an id yet; interns it only when the
  /// event is kept or observed.
  void record(TimePs time, TraceKind kind, CoreId core,
              std::string_view label, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if (!active()) return;
    record(time, kind, core, intern(label), a, b);
  }

  [[nodiscard]] const TraceLog& events() const { return log_; }
  void clear() { log_.clear(); }

  /// Events matching a predicate (convenience for tests and reports).
  [[nodiscard]] std::vector<TraceEvent> filter(TraceKind kind) const {
    std::vector<TraceEvent> out;
    for (const auto& e : log_)
      if (e.kind == kind) out.push_back(e);
    return out;
  }

 private:
  bool enabled_ = false;
  TraceLog log_;
  ObserverSet observers_;
};

}  // namespace rw::sim
