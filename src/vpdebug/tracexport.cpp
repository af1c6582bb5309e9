#include "vpdebug/tracexport.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.hpp"

namespace rw::vpdebug {

std::vector<ExecutedBlock> function_history(const sim::TraceLog& trace,
                                            sim::CoreId core) {
  std::vector<ExecutedBlock> out;
  // Compute blocks may nest per label: open (label id, start) pairs.
  std::vector<std::pair<sim::LabelId, TimePs>> open;
  for (const auto& ev : trace) {
    if (ev.core != core) continue;
    if (ev.kind == sim::TraceKind::kComputeStart) {
      open.emplace_back(ev.label, ev.time);
    } else if (ev.kind == sim::TraceKind::kComputeEnd) {
      // Close the most recent open block with this label.
      for (auto it = open.rbegin(); it != open.rend(); ++it) {
        if (it->first == ev.label) {
          out.push_back(ExecutedBlock{std::string(trace.label(ev)),
                                      it->second, ev.time});
          open.erase(std::next(it).base());
          break;
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ExecutedBlock& a, const ExecutedBlock& b) {
              return a.start < b.start;
            });
  return out;
}

std::string render_gantt(const sim::TraceLog& trace,
                         std::size_t num_cores, TimePs t0, TimePs t1,
                         std::size_t width) {
  if (t1 <= t0 || width == 0) return "";
  // Stable legend: label -> letter, in first-appearance order.
  std::map<std::string, char> legend;
  auto letter_for = [&](const std::string& label) {
    auto it = legend.find(label);
    if (it != legend.end()) return it->second;
    const char c = static_cast<char>('a' + (legend.size() % 26));
    legend.emplace(label, c);
    return c;
  };

  std::string out;
  for (std::size_t c = 0; c < num_cores; ++c) {
    std::string row(width, '.');
    for (const auto& blk : function_history(
             trace, sim::CoreId{static_cast<std::uint32_t>(c)})) {
      if (blk.end <= t0 || blk.start >= t1) continue;
      const TimePs s = std::max(blk.start, t0);
      const TimePs e = std::min(blk.end, t1);
      const auto from = static_cast<std::size_t>(
          (s - t0) * width / (t1 - t0));
      auto to = static_cast<std::size_t>((e - t0) * width / (t1 - t0));
      to = std::max(to, from + 1);
      const char ch = letter_for(blk.label);
      for (std::size_t i = from; i < std::min(to, width); ++i) row[i] = ch;
    }
    out += strformat("core%-2zu |%s|\n", c, row.c_str());
  }
  out += "legend:";
  for (const auto& [label, ch] : legend)
    out += strformat(" %c=%s", ch, label.c_str());
  out += "\n";
  return out;
}

std::string export_vcd(const sim::TraceLog& trace,
                       std::size_t num_cores) {
  // Which IRQ lines ever appear?
  std::set<std::uint64_t> irq_lines;
  for (const auto& ev : trace)
    if (ev.kind == sim::TraceKind::kIrqRaise ||
        ev.kind == sim::TraceKind::kIrqAck)
      irq_lines.insert(ev.a);

  std::string vcd;
  vcd += "$timescale 1ps $end\n$scope module platform $end\n";
  auto core_id = [](std::size_t c) {
    return strformat("b%zu", c);
  };
  auto irq_id = [](std::uint64_t l) {
    return strformat("q%llu", static_cast<unsigned long long>(l));
  };
  for (std::size_t c = 0; c < num_cores; ++c)
    vcd += strformat("$var wire 1 %s core%zu_busy $end\n",
                     core_id(c).c_str(), c);
  for (const auto l : irq_lines)
    vcd += strformat("$var wire 1 %s irq%llu $end\n", irq_id(l).c_str(),
                     static_cast<unsigned long long>(l));
  vcd += "$upscope $end\n$enddefinitions $end\n";

  // Initial values.
  vcd += "#0\n";
  for (std::size_t c = 0; c < num_cores; ++c)
    vcd += strformat("0%s\n", core_id(c).c_str());
  for (const auto l : irq_lines)
    vcd += strformat("0%s\n", irq_id(l).c_str());

  // Busy depth per core (nested compute blocks keep the wire high).
  std::vector<int> depth(num_cores, 0);
  TimePs last_time = 0;
  bool time_open = true;
  auto at_time = [&](TimePs t) {
    if (t != last_time || !time_open) {
      vcd += strformat("#%llu\n", static_cast<unsigned long long>(t));
      last_time = t;
      time_open = true;
    }
  };

  for (const auto& ev : trace) {
    switch (ev.kind) {
      case sim::TraceKind::kComputeStart: {
        if (!ev.core.is_valid() || ev.core.index() >= num_cores) break;
        if (depth[ev.core.index()]++ == 0) {
          at_time(ev.time);
          vcd += strformat("1%s\n", core_id(ev.core.index()).c_str());
        }
        break;
      }
      case sim::TraceKind::kComputeEnd: {
        if (!ev.core.is_valid() || ev.core.index() >= num_cores) break;
        if (--depth[ev.core.index()] == 0) {
          at_time(ev.time);
          vcd += strformat("0%s\n", core_id(ev.core.index()).c_str());
        }
        break;
      }
      case sim::TraceKind::kIrqRaise:
        at_time(ev.time);
        vcd += strformat("1%s\n", irq_id(ev.a).c_str());
        break;
      case sim::TraceKind::kIrqAck:
        at_time(ev.time);
        vcd += strformat("0%s\n", irq_id(ev.a).c_str());
        break;
      default:
        break;
    }
  }
  return vcd;
}

}  // namespace rw::vpdebug
