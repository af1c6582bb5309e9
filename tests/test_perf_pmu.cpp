#include <gtest/gtest.h>

#include <memory>

#include "perf/pmu.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/parallel.hpp"
#include "sim/platform.hpp"
#include "sim/process.hpp"
#include "vpdebug/replay.hpp"

namespace rw::perf {
namespace {

sim::Process computer(sim::Platform& p, std::size_t core, Cycles c,
                      const char* label, int reps) {
  for (int i = 0; i < reps; ++i) {
    co_await p.core(core).compute(c, label);
    co_await sim::delay(p.kernel(), microseconds(1));
  }
}

std::unique_ptr<sim::Platform> make_platform(std::size_t cores = 2) {
  auto cfg = sim::PlatformConfig::homogeneous(cores, mhz(400));
  cfg.trace_enabled = true;
  return std::make_unique<sim::Platform>(std::move(cfg));
}

TEST(PmuTest, CountsComputeBlocksAndBusyCycles) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  sim::spawn(plat->kernel(), computer(*plat, 0, 10'000, "fir", 3));
  sim::spawn(plat->kernel(), computer(*plat, 1, 4'000, "iir", 2));
  plat->kernel().run();

  EXPECT_EQ(pmu.core(0).busy_cycles, 30'000u);
  EXPECT_EQ(pmu.core(0).compute_blocks, 3u);
  EXPECT_EQ(pmu.core(0).reservations, 3u);
  EXPECT_EQ(pmu.core(0).busy_ps, cycles_to_ps(30'000, mhz(400)));
  EXPECT_EQ(pmu.core(1).busy_cycles, 8'000u);
  EXPECT_EQ(pmu.core(1).compute_blocks, 2u);
  // The PMU's busy time must agree with the core's own account.
  EXPECT_EQ(pmu.core(0).busy_ps, plat->core(0).busy_time());
}

TEST(PmuTest, SplitsLocalAndSharedAccesses) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  auto& mem = plat->memory();
  const sim::CoreId c0{0};

  mem.write_u64(c0, plat->scratchpad_base(c0), 1);       // local write
  (void)mem.read_u64(c0, plat->scratchpad_base(c0));     // local read
  mem.write_u32(c0, plat->shared_base(), 2);             // shared write
  (void)mem.read_u32(c0, plat->shared_base());           // shared read
  // Another core's scratchpad is remote: counted as shared.
  (void)mem.read_u64(c0, plat->scratchpad_base(sim::CoreId{1}));

  const CoreCounters& c = pmu.core(0);
  EXPECT_EQ(c.mem_reads, 3u);
  EXPECT_EQ(c.mem_writes, 2u);
  EXPECT_EQ(c.local_accesses, 2u);
  EXPECT_EQ(c.shared_accesses, 3u);
  EXPECT_EQ(c.bytes_read, 8u + 4u + 8u);
  EXPECT_EQ(c.bytes_written, 8u + 4u);
  // Stalls: scratchpad latency 1 cycle x2, shared latency 12 x2, remote
  // scratchpad 1 — per the default platform config.
  EXPECT_EQ(c.stall_cycles, 1u + 1u + 12u + 12u + 1u);
}

TEST(PmuTest, PokePeekAreNotCounted) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  plat->memory().poke(plat->shared_base(), buf);
  plat->memory().peek(plat->shared_base(), buf);
  EXPECT_EQ(pmu.core(0).mem_reads, 0u);
  EXPECT_EQ(pmu.core(0).mem_writes, 0u);
  EXPECT_EQ(pmu.unattributed().mem_reads, 0u);
}

TEST(PmuTest, DmaCountsBytesAndUnattributedAccesses) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->dma().start(plat->shared_base(), plat->shared_base() + 4096, 256);
  plat->kernel().run();

  EXPECT_EQ(pmu.dma().transfers, 1u);
  EXPECT_EQ(pmu.dma().bytes, 256u);
  EXPECT_GT(pmu.dma().busy_ps, 0u);
  // The engine's block copy runs without a core identity.
  EXPECT_EQ(pmu.unattributed().mem_reads, 1u);
  EXPECT_EQ(pmu.unattributed().mem_writes, 1u);
  EXPECT_EQ(pmu.unattributed().bytes_read, 256u);
  for (std::size_t i = 0; i < plat->core_count(); ++i)
    EXPECT_EQ(pmu.core(i).mem_reads, 0u);
}

TEST(PmuTest, SharedBusTransfersFillIcnCounters) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  auto& icn = plat->interconnect();
  const auto [s1, f1] =
      icn.reserve_transfer(sim::CoreId{0}, sim::CoreId{1}, 1024, 0);
  // Immediately queue a second transfer: it must wait behind the first.
  const auto [s2, f2] =
      icn.reserve_transfer(sim::CoreId{1}, sim::CoreId{0}, 1024, 0);

  EXPECT_EQ(pmu.icn().transfers, 2u);
  EXPECT_EQ(pmu.icn().bytes, 2048u);
  EXPECT_EQ(pmu.icn().wait_ps, s2 - static_cast<TimePs>(0));
  EXPECT_EQ(pmu.icn().busy_ps, (f1 - s1) + (f2 - s2));
  ASSERT_EQ(pmu.icn().link_busy_ps.size(), 1u);  // the one shared bus
  EXPECT_EQ(pmu.icn().link_busy_ps[0], pmu.icn().busy_ps);
  EXPECT_EQ(pmu.icn().hops, 0u);
}

TEST(PmuTest, MeshTransfersCountHopsAndLinks) {
  auto cfg = sim::PlatformConfig::homogeneous(4, mhz(400));
  cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
  cfg.mesh.width = 2;
  cfg.mesh.height = 2;
  sim::Platform plat(std::move(cfg));
  Pmu pmu(plat.core_count());
  plat.attach(pmu);

  // Corner to corner on a 2x2 mesh: 2 hops (XY route).
  plat.interconnect().reserve_transfer(sim::CoreId{0}, sim::CoreId{3}, 64,
                                       0);
  EXPECT_EQ(pmu.icn().transfers, 1u);
  EXPECT_EQ(pmu.icn().hops, 2u);
  std::size_t used_links = 0;
  for (const auto b : pmu.icn().link_busy_ps)
    if (b > 0) ++used_links;
  EXPECT_EQ(used_links, 2u);

  // Local delivery (src == dst) is free and hopless.
  plat.interconnect().reserve_transfer(sim::CoreId{1}, sim::CoreId{1}, 64,
                                       0);
  EXPECT_EQ(pmu.icn().transfers, 2u);
  EXPECT_EQ(pmu.icn().hops, 2u);
}

TEST(PmuTest, FreqChangesCounted) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->core(0).set_frequency(mhz(800));
  plat->core(0).set_frequency(mhz(800));  // no-op: same frequency
  plat->core(0).set_frequency(mhz(400));
  EXPECT_EQ(pmu.core(0).freq_changes, 2u);
  EXPECT_EQ(pmu.core(1).freq_changes, 0u);
}

TEST(PmuTest, DetachStopsCounting) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->core(0).reserve(1000);
  plat->detach(pmu);
  plat->core(0).reserve(1000);
  EXPECT_EQ(pmu.core(0).busy_cycles, 1000u);
  EXPECT_EQ(pmu.core(0).reservations, 1u);
}

TEST(PmuTest, SnapshotAndResetRoundTrip) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->core(0).reserve(1000);
  const PmuSnapshot s = pmu.snapshot(plat->kernel().now());
  EXPECT_EQ(s.cores[0].busy_cycles, 1000u);
  pmu.reset();
  EXPECT_EQ(pmu.core(0).busy_cycles, 0u);
  EXPECT_EQ(pmu.snapshot(0).cores[0], CoreCounters{});
}

// The tentpole's zero-overhead criterion: attaching the observation stack
// (PMU counters + non-intrusive sampler + epoch windows) leaves the
// simulation bit-identical — same trace fingerprint, same makespan.
TEST(PmuTest, AttachedObserversLeaveSimulationBitIdentical) {
  auto scenario_makespan = [](bool observed, std::uint64_t& fingerprint) {
    auto plat = make_platform(4);
    std::unique_ptr<PerfSession> session;
    if (observed) session = std::make_unique<PerfSession>(*plat);
    vpdebug::ExecutionRecorder rec(*plat);
    spawn_workload("forkjoin", *plat, /*seed=*/42, /*scale=*/2);
    plat->kernel().run();
    fingerprint = rec.fingerprint();
    return plat->kernel().now();
  };

  std::uint64_t fp_base = 0, fp_observed = 0;
  const TimePs t_base = scenario_makespan(false, fp_base);
  const TimePs t_observed = scenario_makespan(true, fp_observed);
  EXPECT_EQ(t_base, t_observed);
  EXPECT_EQ(fp_base, fp_observed);
}

// Same property through the harness lens: RunMetrics of an instrumented
// run with everything detached again equals the baseline's, sim_equal-wise.
TEST(PmuTest, DetachedSessionMetricsSimEqualBaseline) {
  auto run_once = [](bool observe) {
    auto plat = make_platform(4);
    RunMetrics m;
    if (observe) {
      PerfSession session(*plat);
      spawn_workload("pipeline", *plat, 7, 2);
      plat->kernel().run();
      session.detach();
      m.makespan = plat->kernel().now();
    } else {
      spawn_workload("pipeline", *plat, 7, 2);
      plat->kernel().run();
      m.makespan = plat->kernel().now();
    }
    m.mean_core_utilization = 0.0;
    return m;
  };
  EXPECT_TRUE(run_once(true).sim_equal(run_once(false)));
}

// Observers compose on the bus: two PMUs, an ExecutionRecorder and trace
// retention attached together leave the run bit-identical to the bare
// run, and each one reports exactly what it reports when attached alone.
struct ComposeRun {
  TimePs makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  PmuSnapshot pmu_a, pmu_b;
  std::vector<std::string> trace;  // every tile's retained events
};

ComposeRun run_composed(const sim::PlatformConfig& base,
                        const std::string& workload, bool trace, bool recorder,
                        int pmus) {
  sim::PlatformConfig cfg = base;
  cfg.trace_enabled = trace;
  sim::Platform plat(std::move(cfg));
  Pmu pmu_a(plat.core_count()), pmu_b(plat.core_count());
  if (pmus > 0) plat.attach(pmu_a);
  if (pmus > 1) plat.attach(pmu_b);
  std::unique_ptr<vpdebug::ExecutionRecorder> rec;
  if (recorder) rec = std::make_unique<vpdebug::ExecutionRecorder>(plat);
  EXPECT_TRUE(spawn_workload(workload, plat, /*seed=*/9, /*scale=*/2));
  // Real tile threads on any host, so TSan sees the fan-out into sinks
  // shared across tiles.
  if (plat.engine()) plat.engine()->set_force_threads(true);
  plat.run();
  if (plat.engine()) EXPECT_TRUE(plat.engine()->last_run_parallel());

  ComposeRun r;
  r.makespan = plat.now();
  r.events = plat.engine() ? plat.engine()->events_executed()
                           : plat.kernel().events_executed();
  if (rec) r.fingerprint = rec->fingerprint();
  r.pmu_a = pmu_a.snapshot(r.makespan);
  r.pmu_b = pmu_b.snapshot(r.makespan);
  for (std::uint32_t t = 0; t < plat.tile_count(); ++t)
    for (const sim::TraceEvent& ev : plat.tile_tracer(t).events())
      r.trace.push_back(ev.to_string(plat.tile_tracer(t).events().label(ev)));
  return r;
}

TEST(ObserverBus, ComposedObserversMatchBareAndSoloRuns) {
  struct Config {
    std::string name;
    sim::PlatformConfig cfg;
    std::vector<std::string> workloads;
  };
  std::vector<Config> configs;
  for (const bool mesh : {false, true}) {
    auto cfg = sim::PlatformConfig::homogeneous(4, mhz(400));
    if (mesh) {
      cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
      cfg.mesh.width = 2;
      cfg.mesh.height = 2;
    }
    configs.push_back({mesh ? "mesh" : "bus", cfg,
                       {"pipeline", "forkjoin", "shared_hammer",
                        "tiled_pipeline"}});
  }
  auto tiled = sim::PlatformConfig::homogeneous(4, mhz(400));
  sim::apply_tiling(tiled, 2, /*partition_cores=*/true);
  ASSERT_EQ(tiled.kernel.exec, sim::ExecMode::kParallel);
  configs.push_back({"parallel2", tiled, {"tiled_pipeline"}});

  for (const Config& c : configs) {
    for (const std::string& w : c.workloads) {
      SCOPED_TRACE(c.name + "/" + w);
      const ComposeRun bare = run_composed(c.cfg, w, false, false, 0);
      const ComposeRun rec = run_composed(c.cfg, w, false, true, 0);
      const ComposeRun pmu = run_composed(c.cfg, w, false, false, 1);
      const ComposeRun trace = run_composed(c.cfg, w, true, false, 0);
      const ComposeRun all = run_composed(c.cfg, w, true, true, 2);

      for (const ComposeRun* solo : {&rec, &pmu, &trace, &all}) {
        EXPECT_EQ(solo->makespan, bare.makespan);
        EXPECT_EQ(solo->events, bare.events);
      }
      EXPECT_GT(rec.events, 0u);
      EXPECT_EQ(all.fingerprint, rec.fingerprint);
      EXPECT_GT(pmu.pmu_a.cores[0].busy_cycles, 0u);
      EXPECT_EQ(all.pmu_a, pmu.pmu_a);
      EXPECT_EQ(all.pmu_b, all.pmu_a);
      EXPECT_FALSE(trace.trace.empty());
      EXPECT_EQ(all.trace, trace.trace);
    }
  }
}

// An observer that outlives its platform, or dies before it, is safe
// either way: each side unlinks the other on destruction.
TEST(ObserverBus, DetachesOnDestructionInEitherOrder) {
  auto plat = make_platform();
  auto early = std::make_unique<Pmu>(plat->core_count());
  Pmu late(plat->core_count());
  plat->attach(*early);
  plat->attach(late);
  plat->attach(late);  // attaching twice is a no-op
  early.reset();
  sim::spawn(plat->kernel(), computer(*plat, 0, 1'000, "w", 2));
  plat->run();
  EXPECT_EQ(late.core(0).compute_blocks, 2u);  // counted once, not twice
  plat.reset();  // `late` is still alive and must not point at the bus
}

}  // namespace
}  // namespace rw::perf
