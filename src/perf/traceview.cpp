#include "perf/traceview.hpp"

#include <algorithm>
#include <deque>
#include <map>

namespace rw::perf {

TraceView TraceView::from_events(const sim::TraceLog& events) {
  TraceView v;
  v.total_events_ = events.size();

  // Open-span bookkeeping. Task spans key on the task index, message spans
  // FIFO-queue on the packed (src<<32)|dst key (an edge may transfer more
  // than once), compute blocks key on the core (one block at a time), and
  // the DMA engine serializes so one FIFO suffices.
  std::map<std::uint64_t, std::size_t> open_tasks;          // task -> index
  std::map<std::uint64_t, std::deque<std::size_t>> open_msgs;  // key -> FIFO
  // core -> (index, label id)
  std::map<std::size_t, std::pair<std::size_t, sim::LabelId>> open_blocks;
  std::deque<std::size_t> open_dmas;

  std::size_t next = 0;
  for (const sim::TraceEvent& ev : events) {
    const std::size_t i = next++;
    switch (ev.kind) {
      case sim::TraceKind::kTaskStart: {
        ComputeSpan s;
        s.seq = i;
        s.core = ev.core;
        s.label = events.label(ev);
        s.task = ev.a;
        s.cycles = ev.b;
        s.start = ev.time;
        s.finish = ev.time;
        open_tasks[ev.a] = v.computes_.size();
        v.computes_.push_back(std::move(s));
        break;
      }
      case sim::TraceKind::kTaskEnd: {
        auto it = open_tasks.find(ev.a);
        if (it == open_tasks.end()) break;  // unmatched end: skip
        ComputeSpan& s = v.computes_[it->second];
        s.finish = ev.time;
        s.ref_cycles = ev.b;
        open_tasks.erase(it);
        break;
      }
      case sim::TraceKind::kComputeStart: {
        if (!ev.core.is_valid()) break;
        ComputeSpan s;
        s.seq = i;
        s.core = ev.core;
        s.label = events.label(ev);
        s.cycles = ev.a;
        s.start = ev.time;
        s.finish = ev.time;
        open_blocks[ev.core.index()] = {v.computes_.size(), ev.label};
        v.computes_.push_back(std::move(s));
        break;
      }
      case sim::TraceKind::kComputeEnd: {
        if (!ev.core.is_valid()) break;
        auto it = open_blocks.find(ev.core.index());
        if (it == open_blocks.end()) break;
        const auto [idx, label] = it->second;
        if (label != ev.label) break;  // stale block (crash/migration)
        v.computes_[idx].finish = ev.time;
        open_blocks.erase(it);
        break;
      }
      case sim::TraceKind::kMsgSend: {
        TransferSpan s;
        s.seq = i;
        s.src_core = ev.core;
        s.dst_core = ev.core;  // until the recv names the destination
        s.label = events.label(ev);
        s.src_task = ev.a >> 32;
        s.dst_task = ev.a & 0xffffffffULL;
        s.bytes = ev.b;
        s.start = ev.time;
        s.finish = ev.time;
        open_msgs[ev.a].push_back(v.transfers_.size());
        v.transfers_.push_back(std::move(s));
        break;
      }
      case sim::TraceKind::kMsgRecv: {
        auto it = open_msgs.find(ev.a);
        if (it == open_msgs.end() || it->second.empty()) break;
        TransferSpan& s = v.transfers_[it->second.front()];
        it->second.pop_front();
        s.dst_core = ev.core;
        s.finish = ev.time;
        break;
      }
      case sim::TraceKind::kDmaStart: {
        DmaSpan s;
        s.seq = i;
        s.bytes = ev.b;
        s.start = ev.time;
        s.finish = ev.time;
        open_dmas.push_back(v.dmas_.size());
        v.dmas_.push_back(s);
        break;
      }
      case sim::TraceKind::kDmaEnd: {
        if (open_dmas.empty()) break;
        DmaSpan& s = v.dmas_[open_dmas.front()];
        open_dmas.pop_front();
        s.finish = ev.time;
        break;
      }
      default:
        break;  // not a span event
    }
  }

  // Drop spans whose end never arrived: a half-open span has no duration
  // and would poison happens-before edges downstream. Erase back-to-front
  // so stored indices stay valid while scanning.
  auto drop_open = [](auto& spans, auto is_open) {
    spans.erase(std::remove_if(spans.begin(), spans.end(), is_open),
                spans.end());
  };
  if (!open_tasks.empty() || !open_blocks.empty()) {
    std::vector<bool> open(v.computes_.size(), false);
    for (const auto& [task, idx] : open_tasks) open[idx] = true;
    for (const auto& [core, block] : open_blocks) open[block.first] = true;
    std::size_t i = 0;
    drop_open(v.computes_, [&](const ComputeSpan&) { return open[i++]; });
  }
  if (std::any_of(open_msgs.begin(), open_msgs.end(),
                  [](const auto& kv) { return !kv.second.empty(); })) {
    std::vector<bool> open(v.transfers_.size(), false);
    for (const auto& [key, fifo] : open_msgs)
      for (const std::size_t idx : fifo) open[idx] = true;
    std::size_t i = 0;
    drop_open(v.transfers_, [&](const TransferSpan&) { return open[i++]; });
  }
  if (!open_dmas.empty()) {
    std::vector<bool> open(v.dmas_.size(), false);
    for (const std::size_t idx : open_dmas) open[idx] = true;
    std::size_t i = 0;
    drop_open(v.dmas_, [&](const DmaSpan&) { return open[i++]; });
  }

  for (const auto& s : v.computes_) v.makespan_ = std::max(v.makespan_, s.finish);
  for (const auto& s : v.transfers_)
    v.makespan_ = std::max(v.makespan_, s.finish);
  for (const auto& s : v.dmas_) v.makespan_ = std::max(v.makespan_, s.finish);
  return v;
}

}  // namespace rw::perf
