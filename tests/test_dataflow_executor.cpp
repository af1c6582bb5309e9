#include "dataflow/executor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "dataflow/buffers.hpp"

namespace rw::dataflow {
namespace {

/// Car-radio-like filter chain: src -> fir -> iir -> snk, rate 1.
Graph radio_chain(Cycles fir = 20'000, Cycles iir = 15'000) {
  Graph g;
  const auto s = g.add_actor("src", 1'000, 0);
  const auto f = g.add_actor("fir", fir, 1);
  const auto i = g.add_actor("iir", iir, 2);
  const auto k = g.add_actor("snk", 1'000, 3);
  g.connect(s, f, 1, 1);
  g.connect(f, i, 1, 1);
  g.connect(i, k, 1, 1);
  return g;
}

/// Fork-join whose branches differ in latency: a one-stage short branch
/// beside a three-stage long one, every actor on its own core. Tokens of
/// the short branch wait for the long one, so its edges need capacity 2.
Graph skewed_forkjoin() {
  Graph g;
  const auto s = g.add_actor("src", 500, 0);
  const auto a = g.add_actor("short", 5'000, 1);
  const auto b1 = g.add_actor("long1", 32'000, 2);
  const auto b2 = g.add_actor("long2", 32'000, 3);
  const auto b3 = g.add_actor("long3", 32'000, 4);
  const auto j = g.add_actor("join", 1'000, 5);
  const auto k = g.add_actor("snk", 500, 6);
  g.connect(s, a, 1, 1);
  g.connect(s, b1, 1, 1);
  g.connect(b1, b2, 1, 1);
  g.connect(b2, b3, 1, 1);
  g.connect(a, j, 1, 1);
  g.connect(b3, j, 1, 1);
  g.connect(j, k, 1, 1);
  return g;
}

ExecConfig radio_cfg(std::uint64_t iters = 50) {
  ExecConfig cfg;
  cfg.frequency = mhz(400);
  cfg.num_cores = 4;
  cfg.source_period = microseconds(100);  // 40k cycles at 400 MHz
  cfg.iterations = iters;
  return cfg;
}

TEST(StaticSchedule, ChainOffsetsFollowPrecedence) {
  const auto g = radio_chain();
  const auto s = compute_static_schedule(g, radio_cfg());
  ASSERT_TRUE(s.ok()) << s.error().to_string();
  // 4 actors, 1 firing each.
  ASSERT_EQ(s.value().slots.size(), 4u);
  // Offsets must be ordered src <= fir <= iir <= snk along the chain.
  DurationPs off[4];
  for (const auto& slot : s.value().slots)
    off[slot.actor.index()] = slot.offset;
  EXPECT_LE(off[0], off[1]);
  EXPECT_LT(off[1], off[2]);
  EXPECT_LT(off[2], off[3]);
  EXPECT_GT(s.value().makespan, 0u);
}

TEST(StaticSchedule, RejectsUnsustainablePeriod) {
  const auto g = radio_chain(/*fir=*/200'000);  // 500us of work per sample
  auto cfg = radio_cfg();
  cfg.source_period = microseconds(100);
  const auto s = compute_static_schedule(g, cfg);
  EXPECT_FALSE(s.ok());
}

TEST(StaticSchedule, RejectsMultiFiringSource) {
  Graph g;
  const auto a = g.add_actor("src", 1);
  const auto b = g.add_actor("b", 1);
  g.connect(a, b, 1, 2);  // source must fire twice per iteration
  EXPECT_FALSE(compute_static_schedule(g, radio_cfg()).ok());
}

TEST(DataDriven, CleanRunDeliversEverySample) {
  const auto g = radio_chain();
  const auto r = run_data_driven(g, radio_cfg());
  EXPECT_EQ(r.source_drops, 0u);
  EXPECT_EQ(r.sink_underruns, 0u);
  EXPECT_EQ(r.internal_corruptions(), 0u);
  EXPECT_EQ(r.sink_firings, 50u);
}

TEST(TimeTriggered, CleanRunWithHonestWcets) {
  const auto g = radio_chain();
  const auto r = run_time_triggered(g, radio_cfg());
  EXPECT_EQ(r.internal_corruptions(), 0u);
  EXPECT_EQ(r.sink_firings, 50u);
}

TEST(TimeTriggered, SameThroughputAsDataDrivenWhenClean) {
  const auto g = radio_chain();
  const auto dd = run_data_driven(g, radio_cfg());
  const auto tt = run_time_triggered(g, radio_cfg());
  EXPECT_EQ(dd.sink_firings, tt.sink_firings);
}

/// Overrun injector: firing takes `factor`x WCET with probability p.
ActorAcet overrun_injector(double p, double factor, std::uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng, p, factor](const Actor& a, std::uint64_t, Cycles wcet) {
    if (a.name == "src" || a.name == "snk") return wcet;
    return rng->next_bool(p)
               ? static_cast<Cycles>(static_cast<double>(wcet) * factor)
               : wcet;
  };
}

TEST(TimeTriggered, WcetOverrunsCorruptData) {
  // The central Sec. III claim, time-triggered half: overruns beyond the
  // "unreliable worst-case execution time estimate" corrupt buffers.
  const auto g = radio_chain();
  auto cfg = radio_cfg(200);
  cfg.acet = overrun_injector(0.3, 3.0, 42);
  const auto r = run_time_triggered(g, cfg);
  EXPECT_GT(r.internal_corruptions(), 0u);
}

TEST(DataDriven, WcetOverrunsDoNotCorrupt) {
  // ...and the data-driven half: the same overruns cause no corruption,
  // only boundary effects (drops/underruns).
  const auto g = radio_chain();
  auto cfg = radio_cfg(200);
  cfg.acet = overrun_injector(0.3, 3.0, 42);
  const auto r = run_data_driven(g, cfg);
  EXPECT_EQ(r.internal_corruptions(), 0u);
  EXPECT_EQ(r.stale_reads, 0u);
  EXPECT_EQ(r.overwrites, 0u);
}

TEST(DataDriven, SevereOverloadSurfacesAtBoundariesOnly) {
  const auto g = radio_chain();
  auto cfg = radio_cfg(200);
  cfg.acet = overrun_injector(0.8, 5.0, 7);  // brutal overload
  const auto r = run_data_driven(g, cfg);
  EXPECT_EQ(r.internal_corruptions(), 0u);
  EXPECT_GT(r.source_drops + r.sink_underruns, 0u);
}

TEST(DataDriven, BackPressureBoundsBufferLevels) {
  const auto g = radio_chain();
  auto cfg = radio_cfg(100);
  cfg.buffer_capacities = {2, 2, 2};
  cfg.acet = overrun_injector(0.5, 4.0, 3);
  const auto r = run_data_driven(g, cfg);
  // No overwrite can ever happen with back-pressure.
  EXPECT_EQ(r.overwrites, 0u);
}

TEST(DataDriven, AperiodicExecutionStillMeetsSinkTicks) {
  // Jittery (but not overrunning) execution: tasks run aperiodically,
  // sinks still see data on every tick — Sec. III's "data-driven systems
  // can execute tasks aperiodically, while satisfying timing constraints".
  const auto g = radio_chain();
  auto cfg = radio_cfg(200);
  auto rng = std::make_shared<Rng>(11);
  cfg.acet = [rng](const Actor&, std::uint64_t, Cycles wcet) {
    // Anywhere from 10% to 100% of WCET.
    return std::max<Cycles>(1, wcet / 10 + rng->next_below(wcet * 9 / 10));
  };
  const auto r = run_data_driven(g, cfg);
  EXPECT_EQ(r.sink_underruns, 0u);
  EXPECT_EQ(r.sink_firings, 200u);
}

TEST(Executors, DeterministicAcrossRuns) {
  const auto g = radio_chain();
  auto cfg = radio_cfg(100);
  cfg.acet = overrun_injector(0.3, 2.5, 99);
  const auto a = run_time_triggered(g, cfg);
  cfg.acet = overrun_injector(0.3, 2.5, 99);  // fresh RNG, same seed
  const auto b = run_time_triggered(g, cfg);
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  EXPECT_EQ(a.overwrites, b.overwrites);
  EXPECT_EQ(a.finish, b.finish);
}

TEST(Executors, MultiRateGraphRuns) {
  // src -(1:1)-> dec(1:4 in) ... use downsampler: src fires 4x per dec.
  Graph g;
  const auto s = g.add_actor("src", 1'000, 0);
  const auto d = g.add_actor("dec", 30'000, 1);
  const auto k = g.add_actor("snk", 1'000, 2);
  g.connect(s, d, 1, 1);
  g.connect(d, k, 1, 1);
  ExecConfig cfg = radio_cfg(40);
  const auto r = run_data_driven(g, cfg);
  EXPECT_EQ(r.sink_underruns, 0u);
}

TEST(Buffers, LowerBoundsRespectRatesAndTokens) {
  Graph g;
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  g.connect(a, b, 3, 2, /*initial=*/1);
  const auto lb = capacity_lower_bounds(g);
  ASSERT_EQ(lb.size(), 1u);
  EXPECT_EQ(lb[0], 4u);  // max(3,2) + 1 initial
}

TEST(Buffers, ComputedCapacitiesAreWaitFree) {
  const auto g = radio_chain();
  const auto sizing = compute_buffer_capacities(g, radio_cfg());
  ASSERT_TRUE(sizing.wait_free);
  // Verify the contract by running with exactly those capacities.
  auto cfg = radio_cfg(300);
  cfg.buffer_capacities = sizing.capacities;
  const auto r = run_data_driven(g, cfg);
  EXPECT_EQ(r.source_drops, 0u);
  EXPECT_EQ(r.sink_underruns, 0u);
}

TEST(Buffers, MinimalityOneLess) {
  // Dropping any computed capacity below its lower bound must break
  // wait-freedom or be impossible; check that shrinking the whole vector
  // by one where possible causes drops/underruns. The rate-1 chains size
  // every buffer to 1, so this uses the skewed fork-join.
  const auto g = skewed_forkjoin();
  auto cfg = radio_cfg(300);
  cfg.num_cores = g.actors().size();
  cfg.source_period = microseconds(95);
  const auto sizing = compute_buffer_capacities(g, cfg);
  ASSERT_TRUE(sizing.wait_free);
  cfg.buffer_capacities = sizing.capacities;
  bool any_shrinkable = false;
  for (auto& c : cfg.buffer_capacities) {
    if (c > 1) {
      --c;
      any_shrinkable = true;
    }
  }
  ASSERT_TRUE(any_shrinkable) << "every computed capacity is 1";
  const auto r = run_data_driven(g, cfg);
  EXPECT_GT(r.source_drops + r.sink_underruns, 0u);
}

TEST(Buffers, InfeasiblePeriodReported) {
  const auto g = radio_chain(/*fir=*/200'000);  // can't keep up
  const auto sizing = compute_buffer_capacities(g, radio_cfg());
  EXPECT_FALSE(sizing.wait_free);
}

TEST(Buffers, RateMismatchedSinkFailsWithTheScheduleError) {
  // src -> A at rates 1:2: the sink A fires once per iteration, but the
  // source twice, so no periodic schedule exists. The executor must say
  // so instead of ticking the sink from offset 0 into underruns, which
  // buffer sizing would misreport as an unsustainable period.
  Graph g;
  const auto s = g.add_actor("src", 1'000, 0);
  const auto a = g.add_actor("A", 1'000, 1);
  g.connect(s, a, 1, 2);
  const auto sched = compute_static_schedule(g, radio_cfg());
  ASSERT_FALSE(sched.ok());
  const std::string why = sched.error().to_string();
  EXPECT_NE(why.find("'src' must fire exactly once"), std::string::npos);
  EXPECT_FALSE(check_periodic_boundaries(g).ok());
  for (const bool sizing : {false, true}) {
    try {
      if (sizing)
        (void)compute_buffer_capacities(g, radio_cfg());
      else
        (void)run_data_driven(g, radio_cfg());
      ADD_FAILURE() << "no error (sizing=" << sizing << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

TEST(Buffers, TighterPeriodNeedsMoreBuffering) {
  // Multi-core chain with imbalance: shorter periods require deeper
  // decoupling buffers (classic back-pressure result).
  Graph g;
  const auto s = g.add_actor("src", 500, 0);
  const auto a = g.add_actor("slowA", 35'000, 1);
  const auto b = g.add_actor("fastB", 5'000, 2);
  const auto k = g.add_actor("snk", 500, 3);
  g.connect(s, a, 1, 1);
  g.connect(a, b, 1, 1);
  g.connect(b, k, 1, 1);

  auto loose = radio_cfg();
  loose.source_period = microseconds(200);
  auto tight = radio_cfg();
  tight.source_period = microseconds(95);

  const auto sl = compute_buffer_capacities(g, loose);
  const auto st = compute_buffer_capacities(g, tight);
  ASSERT_TRUE(sl.wait_free);
  ASSERT_TRUE(st.wait_free);
  EXPECT_GE(st.capacity_sum(), sl.capacity_sum());
}

}  // namespace
}  // namespace rw::dataflow
