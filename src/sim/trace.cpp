#include "sim/trace.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "common/strings.hpp"

namespace rw::sim {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kTaskStart: return "task_start";
    case TraceKind::kTaskEnd: return "task_end";
    case TraceKind::kComputeStart: return "compute_start";
    case TraceKind::kComputeEnd: return "compute_end";
    case TraceKind::kMsgSend: return "msg_send";
    case TraceKind::kMsgRecv: return "msg_recv";
    case TraceKind::kMemRead: return "mem_read";
    case TraceKind::kMemWrite: return "mem_write";
    case TraceKind::kIrqRaise: return "irq_raise";
    case TraceKind::kIrqAck: return "irq_ack";
    case TraceKind::kDmaStart: return "dma_start";
    case TraceKind::kDmaEnd: return "dma_end";
    case TraceKind::kFreqChange: return "freq_change";
    case TraceKind::kSchedDispatch: return "sched_dispatch";
    case TraceKind::kSchedPreempt: return "sched_preempt";
    case TraceKind::kCustom: return "custom";
  }
  return "?";
}

std::string TraceEvent::to_string(std::string_view label_text) const {
  std::string core_str =
      core.is_valid() ? strformat("core%u", core.value()) : "-";
  return strformat("[%12llu ps] %-14s %-6s %-20.*s a=%llu b=%llu",
                   static_cast<unsigned long long>(time),
                   trace_kind_name(kind), core_str.c_str(),
                   static_cast<int>(label_text.size()), label_text.data(),
                   static_cast<unsigned long long>(a),
                   static_cast<unsigned long long>(b));
}

// ------------------------------------------------------------ LabelTable

LabelTable::LabelTable(std::size_t capacity)
    : capacity_(capacity < kIdRange ? capacity : kIdRange), slots_(64, 0) {
  views_.reserve(32);
  intern("");
}

LabelTable::LabelTable(const LabelTable& other) : LabelTable(other.capacity_) {
  for (std::size_t id = 1; id < other.size(); ++id) intern(other.views_[id]);
}

LabelTable& LabelTable::operator=(const LabelTable& other) {
  if (this != &other) *this = LabelTable(other);
  return *this;
}

LabelId LabelTable::intern(std::string_view s) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(s) & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask)
    if (views_[slots_[i] - 1] == s) return slots_[i] - 1;
  if (views_.size() >= capacity_)
    throw std::length_error(strformat(
        "label table full: %zu labels, cannot intern '%.*s'", views_.size(),
        static_cast<int>(s.size()), s.data()));
  const auto id = static_cast<LabelId>(views_.size());
  views_.push_back(store(s));
  slots_[i] = id + 1;
  if (2 * views_.size() > slots_.size()) grow_index();  // load <= 1/2
  return id;
}

std::string_view LabelTable::store(std::string_view s) {
  if (s.empty()) return "";  // a static, never a null data()
  if (s.size() > free_left_) {
    const std::size_t n = s.size() > kBlockBytes ? s.size() : kBlockBytes;
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(n));
    free_ = blocks_.back().get();
    free_left_ = n;
  }
  std::copy(s.begin(), s.end(), free_);
  const std::string_view stored(free_, s.size());
  free_ += s.size();
  free_left_ -= s.size();
  return stored;
}

void LabelTable::grow_index() {
  std::vector<LabelId> slots(2 * slots_.size(), 0);
  const std::size_t mask = slots.size() - 1;
  for (std::size_t id = 0; id < views_.size(); ++id) {
    std::size_t i = std::hash<std::string_view>{}(views_[id]) & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = static_cast<LabelId>(id + 1);
  }
  slots_.swap(slots);
}

// ------------------------------------------------------------- TraceLog

TraceLog::TraceLog(const TraceLog& other) : labels_(other.labels_) {
  for (const TraceEvent& ev : other) push_back(ev);
}

TraceLog& TraceLog::operator=(const TraceLog& other) {
  if (this != &other) *this = TraceLog(other);
  return *this;
}

TraceLog::TraceLog(TraceLog&& other) noexcept
    : labels_(std::move(other.labels_)),
      chunks_(std::move(other.chunks_)),
      size_(std::exchange(other.size_, 0)),
      tail_(std::exchange(other.tail_, nullptr)),
      tail_end_(std::exchange(other.tail_end_, nullptr)) {
  other.chunks_.clear();
}

TraceLog& TraceLog::operator=(TraceLog&& other) noexcept {
  if (this != &other) {
    labels_ = std::move(other.labels_);
    chunks_ = std::move(other.chunks_);
    other.chunks_.clear();
    size_ = std::exchange(other.size_, 0);
    tail_ = std::exchange(other.tail_, nullptr);
    tail_end_ = std::exchange(other.tail_end_, nullptr);
  }
  return *this;
}

void TraceLog::clear() {
  size_ = 0;
  tail_ = chunks_.empty() ? nullptr : chunks_.front().get();
  tail_end_ = chunks_.empty() ? nullptr : tail_ + kChunkEvents;
}

void TraceLog::next_chunk() {
  const std::size_t next = size_ / kChunkEvents;  // size_ is chunk-aligned
  if (next == chunks_.size())
    chunks_.emplace_back(
        static_cast<TraceEvent*>(::operator new(kChunkBytes)));
  tail_ = chunks_[next].get();
  tail_end_ = tail_ + kChunkEvents;
}

}  // namespace rw::sim
