#include "workloads.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "perf/export.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"
#include "spans.hpp"
#include "vpdebug/replay.hpp"

namespace perfbench {
namespace {

using namespace rw;

/// Seed of the `i`-th generated input, a pure function of the benchmark
/// seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  Rng rng(seed * 0x100000001b3ULL + i);
  return rng.next_u64();
}

constexpr std::uint64_t kFnvInit = 1469598103934665603ULL;

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnvInit) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t v, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// ------------------------------------------------ platform programs

struct Program {
  const char* workload;  // perf::spawn_workload name
  const char* tag;       // input-name prefix
  std::uint64_t scale;   // full size; chosen so runs take similar time
};

// Scales give every full-size bare run a similar host time, so the run
// time distribution has no gaps for its quantiles to fall into.
constexpr Program kPrograms[] = {
    {"pipeline", "pipeline", 80},
    {"forkjoin", "forkjoin", 384},
    {"shared_hammer", "hammer", 64},
    {"tiled_pipeline", "tiledpipe", 64},
};
constexpr std::uint64_t kTinyScale = 2;

struct VpInput {
  const Program* program = nullptr;
  bool mesh = false;
  std::uint64_t seed = 0;
  std::uint64_t scale = 0;
  std::string name;
};

/// The four programs on a 4-core bus platform, then on a 4-core mesh.
std::vector<VpInput> vp_inputs(std::uint64_t seed, bool tiny) {
  std::vector<VpInput> out;
  for (const bool mesh : {false, true}) {
    for (const Program& p : kPrograms) {
      VpInput in;
      in.program = &p;
      in.mesh = mesh;
      in.seed = derive_seed(seed, out.size());
      in.scale = tiny ? kTinyScale : p.scale;
      in.name = std::string(p.tag) + (mesh ? "_mesh" : "_bus");
      out.push_back(std::move(in));
    }
  }
  return out;
}

sim::PlatformConfig vp_config(bool mesh) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
  if (mesh) {
    cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
  }
  return cfg;
}

std::uint64_t events_of(sim::Platform& plat) {
  return plat.engine() ? plat.engine()->events_executed()
                       : plat.kernel().events_executed();
}

/// Kernel events the PerfSession's daemons executed: one per profiler
/// tick, plus one per epoch the collector's tick closed. report() closes
/// a trailing partial epoch itself; only tick-closed epochs end on a
/// multiple of the epoch width.
std::uint64_t daemon_events(const perf::PerfReport& rep) {
  const DurationPs width = perf::PerfConfig{}.epoch_width;
  std::uint64_t n = rep.profiler_ticks;
  for (const perf::Epoch& e : rep.epochs)
    if (e.end % width == 0) ++n;
  return n;
}

RunOutcome run_vp(const VpInput& in, const Observers& obs,
                  const std::string& root, std::uint32_t run_id) {
  const Scope run_span(root, run_id);
  RunOutcome out;
  sim::PlatformConfig cfg = vp_config(in.mesh);
  cfg.trace_enabled = obs.trace;

  std::unique_ptr<sim::Platform> plat;
  std::unique_ptr<perf::PerfSession> session;
  std::unique_ptr<vpdebug::ExecutionRecorder> rec;
  {
    const Scope s("sim.platform_build", run_id);
    plat = std::make_unique<sim::Platform>(std::move(cfg));
  }
  if (obs.session) {
    const Scope s("perf.session_attach", run_id);
    session = std::make_unique<perf::PerfSession>(*plat);
  }
  if (obs.recorder) {
    const Scope s("vpdebug.recorder_attach", run_id);
    rec = std::make_unique<vpdebug::ExecutionRecorder>(*plat);
  }
  {
    const Scope s("perf.spawn", run_id);
    if (!perf::spawn_workload(in.program->workload, *plat, in.seed,
                              in.scale))
      throw std::runtime_error("unknown program " +
                               std::string(in.program->workload));
  }
  {
    const Scope s("sim.run", run_id);
    plat->run();
  }

  out.events = events_of(*plat);
  out.outputs.emplace_back("makespan_ps", plat->now());
  out.outputs.emplace_back("events", out.events);
  if (obs.trace)
    out.outputs.emplace_back("trace_events", plat->tracer().events().size());
  if (rec) {
    out.outputs.emplace_back("fingerprint", rec->fingerprint());
    out.outputs.emplace_back("recorder_events", rec->events());
  }
  if (obs.report && session) {
    perf::PerfReport rep;
    {
      const Scope s("perf.report", run_id);
      rep = session->report();
    }
    std::string chrome;
    std::string json;
    {
      const Scope s("perf.export", run_id);
      chrome = perf::to_chrome_trace(plat->tracer().events());
      json = perf::to_json(rep);
    }
    const perf::CoreCounters t = rep.totals();
    out.outputs.emplace_back("daemon_events", daemon_events(rep));
    out.outputs.emplace_back("pmu_busy_cycles", t.busy_cycles);
    out.outputs.emplace_back("pmu_stall_cycles", t.stall_cycles);
    out.outputs.emplace_back("pmu_shared_accesses", t.shared_accesses);
    out.outputs.emplace_back("pmu_fabric_wait_ps", rep.pmu.icn.wait_ps);
    out.outputs.emplace_back("export_json_fnv", fnv1a(json));
    out.outputs.emplace_back("export_trace_bytes", chrome.size());
  }
  {
    const Scope s("sim.platform_teardown", run_id);
    session.reset();
    rec.reset();
    plat.reset();
  }
  return out;
}

class VpWorkload : public Workload {
 public:
  VpWorkload(std::string name, std::uint64_t seed, bool tiny, Observers obs)
      : obs_(obs), items_(vp_inputs(seed, tiny)) {
    name_ = std::move(name);
    for (const VpInput& in : items_) {
      inputs_.push_back(in.name);
      roots_.push_back(name_ + "/" + in.name);
    }
  }

  RunOutcome run(std::size_t i, std::uint32_t run_id) override {
    return run_vp(items_[i], obs_, roots_[i], run_id);
  }

  /// With observers attached, every input must still reproduce the bare
  /// run: the same makespan, and the same kernel events once the
  /// observers' daemon events are taken out.
  std::vector<std::string> setup_checks(
      const std::vector<RunOutcome>& first) override {
    std::vector<std::string> fails(first.size());
    if (!obs_.session) return fails;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const RunOutcome bare =
          run_vp(items_[i], Observers{}, name_ + ".bare_twin/" + inputs_[i],
                 0);
      const Outputs& o = first[i].outputs;
      if (output(o, "makespan_ps") != output(bare.outputs, "makespan_ps"))
        fails[i] = "makespan differs from the bare run";
      else if (output(o, "events") - output(o, "daemon_events") !=
               output(bare.outputs, "events"))
        fails[i] = "non-daemon event count differs from the bare run";
    }
    return fails;
  }

 private:
  Observers obs_;
  std::vector<VpInput> items_;
  std::vector<std::string> roots_;
};

// ------------------------------------------------ tiled engine

constexpr std::uint32_t kTiles = 2;
constexpr std::uint64_t kTiledScale = 32;
constexpr std::size_t kTiledSeeds = 2;

struct TiledInput {
  std::uint64_t seed = 0;
  std::uint64_t scale = 0;
  std::string name;
};

std::vector<TiledInput> tiled_inputs(std::uint64_t seed, bool tiny) {
  std::vector<TiledInput> out;
  for (std::size_t k = 0; k < kTiledSeeds; ++k) {
    TiledInput in;
    in.seed = derive_seed(seed, 100 + k);
    in.scale = tiny ? kTinyScale : kTiledScale;
    in.name = "tiledpipe_s" + std::to_string(k);
    out.push_back(std::move(in));
  }
  return out;
}

RunOutcome run_tiled(const TiledInput& in, sim::ExecMode mode,
                     const std::string& root, std::uint32_t run_id) {
  const Scope run_span(root, run_id);
  RunOutcome out;
  sim::PlatformConfig cfg = vp_config(/*mesh=*/false);
  sim::apply_tiling(cfg, kTiles, /*partition_cores=*/true);
  cfg.kernel.exec = mode;

  std::unique_ptr<sim::Platform> plat;
  {
    const Scope s("sim.platform_build", run_id);
    plat = std::make_unique<sim::Platform>(std::move(cfg));
  }
  {
    const Scope s("perf.spawn", run_id);
    perf::spawn_workload("tiled_pipeline", *plat, in.seed, in.scale);
  }
  {
    const Scope s("sim.parallel.run", run_id);
    plat->run();
  }
  sim::TiledEngine* engine = plat->engine();
  if (engine == nullptr) throw std::runtime_error("platform is not tiled");
  if (mode == sim::ExecMode::kParallel && !engine->last_run_parallel())
    out.failure = "tiled engine fell back to sequential execution";

  out.events = engine->events_executed();
  out.outputs.emplace_back("makespan_ps", plat->now());
  out.outputs.emplace_back("events", out.events);
  out.outputs.emplace_back("epochs", engine->epochs());
  out.outputs.emplace_back("cross_posts", engine->cross_posts());
  {
    const Scope s("sim.platform_teardown", run_id);
    plat.reset();
  }
  return out;
}

class TiledWorkload : public Workload {
 public:
  TiledWorkload(std::string name, std::uint64_t seed, bool tiny,
                sim::ExecMode mode)
      : mode_(mode), items_(tiled_inputs(seed, tiny)) {
    name_ = std::move(name);
    for (const TiledInput& in : items_) {
      inputs_.push_back(in.name);
      roots_.push_back(name_ + "/" + in.name);
    }
  }

  RunOutcome run(std::size_t i, std::uint32_t run_id) override {
    return run_tiled(items_[i], mode_, roots_[i], run_id);
  }

 private:
  sim::ExecMode mode_;
  std::vector<TiledInput> items_;
  std::vector<std::string> roots_;
};

// ------------------------------------------------ fuzz oracle

// Cases per family in one block, in the proportions fuzz::generate_case
// draws families (fuzz/generator.cpp). Each family takes its cases from
// its own seed range, and within a family alternate cases are tiled
// (tiles > 1, so the parallel engine and its exec twin run) or not — half
// and half, as the generator draws tile counts. Fixing both mixes keeps
// the run-time distribution, whose slow tail is the tiled cases, the same
// for every benchmark seed. fuzz_untiled keeps the family mix and takes
// untiled cases only: its host time does not hang on thread wake-ups.
constexpr std::uint32_t kFamilyCases[fuzz::kNumFamilies] = {2, 2, 2, 2,
                                                             6, 2, 1};
constexpr std::size_t kFuzzBlocks = 60;
constexpr std::size_t kTinyFuzzBlocks = 1;

class FuzzWorkload : public Workload {
 public:
  /// With `tiled` false every case has one tile, so no case starts a
  /// thread and the exec-mode twin never runs.
  FuzzWorkload(std::string name, std::uint64_t seed, bool tiny, bool tiled) {
    name_ = std::move(name);
    fuzz::GeneratorConfig gen;
    gen.tiny = tiny;
    std::uint64_t next_seed[fuzz::kNumFamilies];
    for (std::size_t f = 0; f < fuzz::kNumFamilies; ++f)
      next_seed[f] = derive_seed(seed, 200 + f);
    const std::size_t blocks = tiny ? kTinyFuzzBlocks : kFuzzBlocks;
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t f = 0; f < fuzz::kNumFamilies; ++f) {
        const auto family = static_cast<fuzz::Family>(f);
        gen.family_mask = fuzz::family_bit(family);
        for (std::uint32_t j = 0; j < kFamilyCases[f]; ++j) {
          // ert runs no platform, so its tile count is meaningless.
          const bool any_tiling = family == fuzz::Family::kErt;
          const bool want_tiled = tiled && j % 2 == 1;
          fuzz::CampaignCase c;
          do {
            const Scope s("fuzz.generate", 0);
            c = fuzz::generate_case(next_seed[f]++, gen);
          } while (!any_tiling && (c.tiles > 1) != want_tiled);
          inputs_.push_back(fuzz::family_name(family) + std::string("_") +
                            std::to_string(b * kFamilyCases[f] + j));
          roots_.push_back(name_ + "/" + fuzz::family_name(family));
          cases_.push_back(std::move(c));
        }
      }
    }
  }

  RunOutcome run(std::size_t i, std::uint32_t run_id) override {
    const Scope run_span(roots_[i], run_id);
    fuzz::CaseOutcome oc;
    {
      const Scope s("fuzz.run_case", run_id);
      oc = fuzz::run_case(cases_[i]);
    }
    RunOutcome out;
    out.outputs.emplace_back(
        "digest", fnv1a(oc.makespan, fnv1a(oc.fingerprint,
                                           fnv1a(cases_[i].seed, kFnvInit))));
    out.outputs.emplace_back("sub_runs", oc.sub_runs);
    out.outputs.emplace_back("coverage_cells", oc.cells.size());
    out.outputs.emplace_back("violations", oc.violations.size());
    if (!oc.ok())
      out.failure = "oracle violation " + oc.violations.front().invariant +
                    ": " + oc.violations.front().detail;
    return out;
  }

 private:
  std::vector<fuzz::CampaignCase> cases_;
  std::vector<std::string> roots_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "vp_bare", "vp_observed", "tiled_par", "fuzz_oracle", "fuzz_untiled"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "vp_bare")
    return std::make_unique<VpWorkload>("vp_bare", seed, tiny, Observers{});
  if (name == "vp_observed")
    return std::make_unique<VpWorkload>("vp_observed", seed, tiny,
                                        Observers{true, true, true, true});
  if (name == "tiled_par")
    return std::make_unique<TiledWorkload>("tiled_par", seed, tiny,
                                           sim::ExecMode::kParallel);
  if (name == "fuzz_oracle")
    return std::make_unique<FuzzWorkload>("fuzz_oracle", seed, tiny, true);
  if (name == "fuzz_untiled")
    return std::make_unique<FuzzWorkload>("fuzz_untiled", seed, tiny, false);
  return nullptr;
}

std::unique_ptr<Workload> make_observer_twin(std::string name,
                                             std::uint64_t seed, bool tiny,
                                             const Observers& obs) {
  return std::make_unique<VpWorkload>(std::move(name), seed, tiny, obs);
}

std::unique_ptr<Workload> make_sequential_twin(std::uint64_t seed, bool tiny) {
  return std::make_unique<TiledWorkload>("sim.parallel.seq_twin", seed, tiny,
                                         sim::ExecMode::kSequential);
}

}  // namespace perfbench
