#include "dataflow/executor.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace rw::dataflow {

std::size_t default_capacity(const Edge& e) {
  std::uint32_t pmax = 0, cmax = 0;
  for (const auto r : e.prod_rates) pmax = std::max(pmax, r);
  for (const auto r : e.cons_rates) cmax = std::max(cmax, r);
  return static_cast<std::size_t>(pmax) + cmax + e.initial_tokens;
}

namespace {

struct EdgeRt {
  std::uint64_t written = 0;  // tokens ever produced (incl. initial)
  std::uint64_t read = 0;     // tokens ever consumed
  std::size_t capacity = 0;
  [[nodiscard]] std::uint64_t level() const { return written - read; }
};

struct Event {
  TimePs time;
  int kind;  // 0 = start-request / tick, 1 = completion
  std::uint64_t seq;
  std::size_t actor;
  std::uint64_t payload;  // firing index or slot index
  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    // Completions (kind 1) run before start requests at the same instant,
    // so data produced "at t" is visible to a consumer starting "at t".
    if (kind != o.kind) return kind < o.kind;
    return seq > o.seq;
  }
};

using EventQueue =
    std::priority_queue<Event, std::vector<Event>, std::greater<>>;

struct Runtime {
  const Graph& g;
  const ExecConfig& cfg;
  std::vector<EdgeRt> edges;
  std::vector<std::uint64_t> fired;     // firings started, per actor
  std::vector<TimePs> core_free;
  std::vector<std::vector<EdgeId>> ins, outs;
  std::vector<bool> is_source, is_sink;
  ExecResult res;
  EventQueue q;
  std::uint64_t seq = 0;

  explicit Runtime(const Graph& graph, const ExecConfig& config)
      : g(graph), cfg(config) {
    const auto& es = g.edges();
    edges.resize(es.size());
    for (std::size_t i = 0; i < es.size(); ++i) {
      edges[i].written = es[i].initial_tokens;
      edges[i].capacity = cfg.buffer_capacities.empty()
                              ? default_capacity(es[i])
                              : cfg.buffer_capacities.at(i);
    }
    const std::size_t n = g.actors().size();
    fired.assign(n, 0);
    core_free.assign(std::max<std::size_t>(cfg.num_cores, 1), 0);
    ins.resize(n);
    outs.resize(n);
    is_source.assign(n, false);
    is_sink.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      ins[i] = g.in_edges(ActorId{static_cast<std::uint32_t>(i)});
      outs[i] = g.out_edges(ActorId{static_cast<std::uint32_t>(i)});
      is_source[i] = ins[i].empty();
      is_sink[i] = outs[i].empty();
    }
    res.edge_full_blocks.assign(es.size(), 0);
  }

  [[nodiscard]] std::size_t core_of(std::size_t actor) const {
    return g.actors()[actor].core % core_free.size();
  }

  [[nodiscard]] Cycles firing_cycles(std::size_t actor,
                                     std::uint64_t firing) const {
    const Actor& a = g.actors()[actor];
    const Cycles wcet = a.phase_wcet[firing % a.phases()];
    return cfg.acet ? cfg.acet(a, firing, wcet) : wcet;
  }

  [[nodiscard]] DurationPs firing_duration(std::size_t actor,
                                           std::uint64_t firing) const {
    return cycles_to_ps(firing_cycles(actor, firing), cfg.frequency);
  }

  [[nodiscard]] std::uint32_t in_rate(const Edge& e,
                                      std::uint64_t firing) const {
    return e.cons_rates[firing % e.cons_rates.size()];
  }
  [[nodiscard]] std::uint32_t out_rate(const Edge& e,
                                       std::uint64_t firing) const {
    return e.prod_rates[firing % e.prod_rates.size()];
  }

  [[nodiscard]] bool inputs_ready(std::size_t actor) const {
    for (const EdgeId eid : ins[actor]) {
      const Edge& e = g.edge(eid);
      if (edges[eid.index()].level() < in_rate(e, fired[actor]))
        return false;
    }
    return true;
  }

  bool outputs_have_space(std::size_t actor, bool count_blocks) {
    bool ok = true;
    for (const EdgeId eid : outs[actor]) {
      const Edge& e = g.edge(eid);
      const auto& rt = edges[eid.index()];
      if (rt.capacity - std::min<std::uint64_t>(rt.level(), rt.capacity) <
          out_rate(e, fired[actor])) {
        ok = false;
        if (count_blocks) ++res.edge_full_blocks[eid.index()];
      }
    }
    return ok;
  }

  /// Consume inputs now; schedule completion (which produces outputs).
  void start_firing(std::size_t actor, TimePs start) {
    const std::uint64_t f = fired[actor]++;
    for (const EdgeId eid : ins[actor])
      edges[eid.index()].read += in_rate(g.edge(eid), f);
    const DurationPs dur = firing_duration(actor, f);
    core_free[core_of(actor)] = start + dur;
    ++res.firings;
    if (is_sink[actor]) ++res.sink_firings;
    q.push(Event{start + dur, 1, seq++, actor, f});
    res.finish = std::max(res.finish, start + dur);
  }

  void produce_outputs(std::size_t actor, std::uint64_t f,
                       bool check_overwrite) {
    for (const EdgeId eid : outs[actor]) {
      auto& rt = edges[eid.index()];
      rt.written += out_rate(g.edge(eid), f);
      if (check_overwrite && rt.level() > rt.capacity) {
        ++res.overwrites;
        ++res.edge_full_blocks[eid.index()];
        // Ring-buffer semantics: the oldest unread tokens are destroyed;
        // keep the level at capacity so counters stay meaningful.
        rt.read = rt.written - rt.capacity;
      }
    }
  }
};

}  // namespace

// ----------------------------------------------------------- data-driven

Status check_periodic_boundaries(const Graph& g) {
  const auto rv = g.repetition_vector();
  if (!rv.ok()) return rv.error();
  // The periodic-source/sink model ticks each source and sink once per
  // graph iteration; rate-mismatched sources would need sub-period timers.
  for (std::size_t a = 0; a < g.actors().size(); ++a) {
    const auto aid = ActorId{static_cast<std::uint32_t>(a)};
    const bool boundary = g.in_edges(aid).empty() || g.out_edges(aid).empty();
    if (boundary && rv.value().firings[a] != 1)
      return make_error("source/sink actor '" + g.actors()[a].name +
                        "' must fire exactly once per iteration (has " +
                        std::to_string(rv.value().firings[a]) + ")");
  }
  return Status::ok_status();
}

ExecResult run_data_driven(const Graph& g, const ExecConfig& cfg) {
  if (auto s = g.validate(); !s.ok())
    throw std::invalid_argument("invalid graph: " + s.error().to_string());
  if (auto s = check_periodic_boundaries(g); !s.ok())
    throw std::invalid_argument("no periodic schedule: " +
                                s.error().to_string());
  Runtime rt(g, cfg);

  // Sink timers are offset by the design-time latency so the pipeline has
  // filled when the first sink tick arrives. An unsustainable period has
  // no schedule; its sinks tick from 0 and the overload shows as drops
  // and underruns.
  DurationPs sink_offset = 0;
  if (auto sched = compute_static_schedule(g, cfg); sched.ok())
    sink_offset = sched.value().makespan;

  // Tick events for sources and sinks. kind 0 events carry payload = tick#.
  for (std::size_t a = 0; a < g.actors().size(); ++a) {
    if (rt.is_source[a] || rt.is_sink[a]) {
      const DurationPs offset = rt.is_sink[a] ? sink_offset : 0;
      for (std::uint64_t n = 0; n < cfg.iterations; ++n)
        rt.q.push(Event{offset + n * cfg.source_period, 0, rt.seq++, a, n});
    }
  }

  const std::uint64_t max_events =
      cfg.iterations * (g.actors().size() + g.edges().size() + 4) * 64 +
      65536;
  std::uint64_t budget = max_events;

  auto try_start_internal = [&](TimePs now) {
    // Fire every enabled internal actor whose core is idle; repeat until
    // quiescent (a firing may enable another on an idle core).
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t a = 0; a < g.actors().size(); ++a) {
        if (rt.is_source[a] || rt.is_sink[a]) continue;
        if (rt.core_free[rt.core_of(a)] > now) continue;
        if (!rt.inputs_ready(a)) continue;
        if (!rt.outputs_have_space(a, /*count_blocks=*/true)) continue;
        rt.start_firing(a, now);
        progress = true;
      }
    }
  };

  while (!rt.q.empty() && budget-- > 0) {
    const Event ev = rt.q.top();
    rt.q.pop();
    const TimePs now = ev.time;
    if (ev.kind == 1) {
      rt.produce_outputs(ev.actor, ev.payload, /*check_overwrite=*/false);
    } else if (rt.is_source[ev.actor]) {
      // Periodic source: fires if back-pressure allows, else the sample is
      // dropped at the edge of the system (robust, per the paper).
      if (rt.outputs_have_space(ev.actor, /*count_blocks=*/true)) {
        const TimePs start =
            std::max(now, rt.core_free[rt.core_of(ev.actor)]);
        rt.start_firing(ev.actor, start);
      } else {
        ++rt.res.source_drops;
      }
    } else if (rt.is_sink[ev.actor]) {
      // Periodic sink: consumes if data arrived, else underruns (the
      // previous sample would be repeated — quality loss, not corruption).
      if (rt.inputs_ready(ev.actor)) {
        const TimePs start =
            std::max(now, rt.core_free[rt.core_of(ev.actor)]);
        rt.start_firing(ev.actor, start);
      } else {
        ++rt.res.sink_underruns;
      }
    }
    try_start_internal(now);
  }
  return rt.res;
}

// -------------------------------------------------- static schedule (WCET)

Result<StaticSchedule> compute_static_schedule(const Graph& g,
                                               const ExecConfig& cfg) {
  if (auto s = g.validate(); !s.ok()) return s.error();
  if (auto s = check_periodic_boundaries(g); !s.ok()) return s.error();
  const auto rv = g.repetition_vector();

  // Per-core utilization must fit the period: each core executes
  // rv.cycles[a] * wcet_sum(a) cycles per graph iteration. This is the
  // load-based feasibility test; the warm-up simulation below can be
  // fooled by its own drain phase (actors bunch at their private rate
  // once sources stop), so it must not be the only gate.
  {
    const std::size_t cores = std::max<std::size_t>(1, cfg.num_cores);
    std::vector<std::uint64_t> core_cycles(cores, 0);
    for (std::size_t a = 0; a < g.actors().size(); ++a)
      core_cycles[g.actors()[a].core % cores] +=
          rv.value().cycles[a] * g.actors()[a].wcet_sum();
    for (std::size_t c = 0; c < cores; ++c) {
      if (cycles_to_ps(core_cycles[c], cfg.frequency) > cfg.source_period)
        return make_error(
            "period " + format_time(cfg.source_period) +
            " unsustainable: core " + std::to_string(c) + " needs " +
            format_time(cycles_to_ps(core_cycles[c], cfg.frequency)) +
            " per iteration");
    }
  }

  // Self-timed WCET simulation with unbounded buffers: sources throttled
  // to the period, everything else fires on data. The offsets of the last
  // warm-up iteration are the schedule; if they have not stabilized the
  // requested period is unsustainable.
  constexpr std::uint64_t kWarm = 8;
  ExecConfig wcfg = cfg;
  wcfg.acet = nullptr;  // design time uses WCETs

  Runtime rt(g, wcfg);
  for (auto& e : rt.edges) e.capacity = UINT64_MAX / 4;  // unbounded

  std::vector<std::vector<TimePs>> starts(g.actors().size());

  for (std::size_t a = 0; a < g.actors().size(); ++a)
    if (rt.is_source[a])
      for (std::uint64_t n = 0; n < kWarm; ++n)
        rt.q.push(Event{n * cfg.source_period, 0, rt.seq++, a, n});

  // If there are no sources (fully cyclic graph), seed with whichever
  // actors are initially enabled; they self-time from t=0.
  auto record_start = [&](std::size_t a, TimePs t) {
    starts[a].push_back(t);
  };

  auto fire_enabled = [&](TimePs now) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t a = 0; a < g.actors().size(); ++a) {
        if (rt.is_source[a]) continue;
        if (rt.fired[a] >= kWarm * rv.value().firings[a]) continue;
        if (rt.core_free[rt.core_of(a)] > now) continue;
        if (!rt.inputs_ready(a)) continue;
        record_start(a, now);
        rt.start_firing(a, now);
        progress = true;
      }
    }
  };

  std::uint64_t budget = 1'000'000;
  while (!rt.q.empty() && budget-- > 0) {
    const Event ev = rt.q.top();
    rt.q.pop();
    if (ev.kind == 1) {
      rt.produce_outputs(ev.actor, ev.payload, false);
    } else {
      const TimePs start =
          std::max(ev.time, rt.core_free[rt.core_of(ev.actor)]);
      record_start(ev.actor, start);
      rt.start_firing(ev.actor, start);
    }
    fire_enabled(ev.time);
  }

  const auto& firings_per_iter = rv.value().firings;
  const TimePs last_iter_begin = (kWarm - 1) * cfg.source_period;

  StaticSchedule sched;
  for (std::size_t a = 0; a < g.actors().size(); ++a) {
    const std::uint64_t fpi = firings_per_iter[a];
    if (starts[a].size() < kWarm * fpi)
      return make_error("actor '" + g.actors()[a].name +
                        "' did not complete the warm-up: graph deadlocks "
                        "or period is unsustainable");
    for (std::uint64_t j = 0; j < fpi; ++j) {
      const TimePs cur = starts[a][(kWarm - 1) * fpi + j];
      const TimePs prev = starts[a][(kWarm - 2) * fpi + j];
      // Stabilized self-timed execution repeats with the source period.
      if (cur - prev > cfg.source_period)
        return make_error("period " + format_time(cfg.source_period) +
                          " unsustainable for actor '" +
                          g.actors()[a].name + "'");
      StaticSchedule::Slot slot;
      slot.actor = ActorId{static_cast<std::uint32_t>(a)};
      slot.firing = j;
      slot.offset = cur - last_iter_begin;
      slot.wcet_duration = cycles_to_ps(
          g.actors()[a].phase_wcet[j % g.actors()[a].phases()],
          cfg.frequency);
      sched.makespan =
          std::max(sched.makespan, slot.offset + slot.wcet_duration);
      sched.slots.push_back(slot);
    }
  }
  std::sort(sched.slots.begin(), sched.slots.end(),
            [](const StaticSchedule::Slot& x, const StaticSchedule::Slot& y) {
              if (x.offset != y.offset) return x.offset < y.offset;
              return x.actor < y.actor;
            });
  return sched;
}

// --------------------------------------------------------- time-triggered

ExecResult run_time_triggered(const Graph& g, const ExecConfig& cfg) {
  auto sched = compute_static_schedule(g, cfg);
  if (!sched.ok())
    throw std::runtime_error("time-triggered schedule infeasible: " +
                             sched.error().to_string());
  Runtime rt(g, cfg);

  // Every slot of every iteration becomes a start-request event.
  for (std::uint64_t n = 0; n < cfg.iterations; ++n) {
    for (std::size_t s = 0; s < sched.value().slots.size(); ++s) {
      const auto& slot = sched.value().slots[s];
      rt.q.push(Event{n * cfg.source_period + slot.offset, 0, rt.seq++,
                      slot.actor.index(), s});
    }
  }

  while (!rt.q.empty()) {
    const Event ev = rt.q.top();
    rt.q.pop();
    if (ev.kind == 1) {
      rt.produce_outputs(ev.actor, ev.payload, /*check_overwrite=*/true);
      continue;
    }
    // Start request: if the core is still busy (an earlier firing overran)
    // the start cascades later; otherwise the firing begins *now*, reading
    // its inputs whether or not they were produced (the time-triggered
    // hazard).
    const std::size_t a = ev.actor;
    const TimePs core_free = rt.core_free[rt.core_of(a)];
    if (core_free > ev.time) {
      rt.q.push(Event{core_free, 0, rt.seq++, a, ev.payload});
      continue;
    }
    const std::uint64_t f = rt.fired[a];
    for (const EdgeId eid : rt.ins[a]) {
      const Edge& e = g.edge(eid);
      const auto need = rt.in_rate(e, f);
      auto& ert = rt.edges[eid.index()];
      if (ert.written < ert.read + need) {
        // Producer has not delivered yet: the consumer reads stale data.
        ++rt.res.stale_reads;
        // It still advances its read pointer over the (garbage) slots.
        ert.written = ert.read + need;  // materialize the garbage tokens
      }
    }
    rt.start_firing(a, ev.time);
  }
  return rt.res;
}

}  // namespace rw::dataflow
