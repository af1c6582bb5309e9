#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "harness/harness.hpp"
#include "perf/driver.hpp"
#include "perf/export.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"

namespace rw::perf {
namespace {

std::unique_ptr<sim::Platform> make_platform(std::size_t cores = 4) {
  auto cfg = sim::PlatformConfig::homogeneous(cores, mhz(400));
  cfg.trace_enabled = true;
  return std::make_unique<sim::Platform>(std::move(cfg));
}

struct Exports {
  std::string json, chrome, folded, csv;
};

Exports run_and_export(const char* workload) {
  auto plat = make_platform();
  PerfConfig cfg;
  cfg.profiler.period = microseconds(5);
  cfg.epoch_width = microseconds(25);
  PerfSession session(*plat, cfg);
  spawn_workload(workload, *plat, /*seed=*/9, /*scale=*/2);
  plat->kernel().run();
  const PerfReport report = session.report();
  Exports e;
  e.json = to_json(report);
  e.chrome = to_chrome_trace(plat->tracer().events());
  e.folded = to_folded_stacks(report.profile);
  e.csv = to_csv(report.epochs, report.num_cores);
  return e;
}

std::uint64_t fnv1a(std::string_view doc,
                    std::uint64_t h = 1469598103934665603ull) {
  for (const char c : doc) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The headline determinism claim: every export format is a pure function
// of the workload, byte for byte, across two fresh identical runs.
TEST(ExportTest, AllFormatsByteIdenticalAcrossRuns) {
  const Exports a = run_and_export("pipeline");
  const Exports b = run_and_export("pipeline");
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.folded, b.folded);
  EXPECT_EQ(a.csv, b.csv);
}

// Golden bytes of the JSON exporters for one fixed run (4-core bus,
// pipeline, seed 9, scale 2, trace and PerfSession on). Determinism alone
// would let a formatting change through unnoticed; these pin the exact
// number rendering and escaping of both documents.
TEST(ExportTest, GoldenPipelineExportBytes) {
  const Exports e = run_and_export("pipeline");
  EXPECT_EQ(e.chrome.size(), 11734u);
  EXPECT_EQ(fnv1a(e.chrome), 443237117529205708ull);
  EXPECT_EQ(e.json.size(), 4600u);
  EXPECT_EQ(fnv1a(e.json), 772296469931160214ull);
}

TEST(ExportTest, ChromeTraceIsWellFormedJson) {
  const Exports e = run_and_export("forkjoin");
  // Minimal structural checks on the trace-event doc: an array of "X"
  // complete events with the fields Perfetto requires.
  EXPECT_EQ(e.chrome.front(), '{');
  EXPECT_NE(e.chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(e.chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(e.chrome.find("\"dur\":"), std::string::npos);
  EXPECT_NE(e.chrome.find("\"serial\""), std::string::npos);  // a label
}

TEST(ExportTest, FoldedStacksCarryCorePrefixedLabels) {
  const Exports e = run_and_export("forkjoin");
  EXPECT_NE(e.folded.find("core0;serial "), std::string::npos);
  EXPECT_NE(e.folded.find(";parallel "), std::string::npos);
  // Every line is "stack count\n".
  std::istringstream in(e.folded);
  std::string stack;
  std::uint64_t count = 0;
  std::size_t lines = 0;
  while (in >> stack >> count) {
    EXPECT_NE(stack.find("core"), std::string::npos);
    EXPECT_GT(count, 0u);
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ExportTest, CsvHasHeaderPlusOneRowPerEpoch) {
  auto plat = make_platform(2);
  PerfConfig cfg;
  cfg.profile = false;
  cfg.epoch_width = microseconds(25);
  PerfSession session(*plat, cfg);
  spawn_workload("shared_hammer", *plat, 2, 1);
  plat->kernel().run();
  const PerfReport report = session.report();
  const std::string csv = to_csv(report.epochs, report.num_cores);

  std::size_t newlines = 0;
  for (const char c : csv)
    if (c == '\n') ++newlines;
  EXPECT_EQ(newlines, report.epochs.size() + 1);
  EXPECT_EQ(csv.rfind("epoch,start_ps,end_ps", 0), 0u);
  EXPECT_NE(csv.find("core0_util"), std::string::npos);
  EXPECT_NE(csv.find("core1_util"), std::string::npos);
}

// Regression: a session over a platform that never runs a workload must
// yield a zero-event trace that every exporter turns into a valid empty
// document — no asserts, no divisions by a zero makespan or epoch width.
TEST(ExportTest, ZeroEventSessionExportsAreValid) {
  auto plat = make_platform(3);
  PerfSession session(*plat, PerfConfig{});
  plat->kernel().run();  // nothing spawned: the kernel retires instantly
  const PerfReport report = session.report();
  EXPECT_EQ(plat->tracer().events().size(), 0u);
  EXPECT_EQ(report.makespan, 0u);
  EXPECT_EQ(report.mean_utilization(), 0.0);

  const std::string chrome = to_chrome_trace(plat->tracer().events());
  EXPECT_EQ(chrome, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n");
  EXPECT_EQ(to_folded_stacks(report.profile), "");
  const std::string csv = to_csv(report.epochs, report.num_cores);
  EXPECT_EQ(csv.rfind("epoch,start_ps,end_ps", 0), 0u);
  EXPECT_EQ(csv.find('\n'), csv.size() - 1);  // header only
  const std::string json = to_json(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"makespan_ps\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"epochs\": []"), std::string::npos);
}

TEST(ExportTest, EmptyInputsProduceValidSkeletons) {
  EXPECT_EQ(to_chrome_trace({}),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n");
  SamplingProfiler::Profile p;
  EXPECT_EQ(to_folded_stacks(p), "");
  const std::string csv = to_csv({}, 2);
  EXPECT_EQ(csv.rfind("epoch,", 0), 0u);  // header only
}

// ------------------------------------------------ chrome trace oracle

// The Chrome exporter as first written on json::Writer: every number
// through Writer::value(double). The real exporter must emit the same
// bytes by its integer fast path.
std::string oracle_chrome_trace(const sim::TraceLog& trace) {
  json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  std::vector<const sim::TraceEvent*> open;
  for (const auto& ev : trace) {
    if (!ev.core.is_valid()) continue;
    const std::size_t c = ev.core.index();
    if (c >= open.size()) open.resize(c + 1, nullptr);
    if (ev.kind == sim::TraceKind::kComputeStart) {
      open[c] = &ev;
    } else if (ev.kind == sim::TraceKind::kComputeEnd && open[c] != nullptr &&
               trace.label(ev) == trace.label(*open[c])) {
      const TimePs start = open[c]->time;
      w.begin_object();
      w.key("name").value(trace.label(ev));
      w.key("cat").value("compute");
      w.key("ph").value("X");
      w.key("ts").value(static_cast<double>(start) * 1e-6);
      w.key("dur").value(static_cast<double>(ev.time - start) * 1e-6);
      w.key("pid").value(std::uint64_t{0});
      w.key("tid").value(static_cast<std::uint64_t>(c));
      w.end_object();
      open[c] = nullptr;
    }
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

void add_event(sim::TraceLog& t, TimePs time, sim::TraceKind kind,
               sim::CoreId core, std::string_view label) {
  t.push_back(sim::TraceEvent{time, 0, 0, core, kind, t.labels().intern(label)});
}

void add_block(sim::TraceLog& t, std::uint32_t core, TimePs start, TimePs end,
               std::string_view label = "b") {
  add_event(t, start, sim::TraceKind::kComputeStart, sim::CoreId{core}, label);
  add_event(t, end, sim::TraceKind::kComputeEnd, sim::CoreId{core}, label);
}

/// Blocks that put `ps` in both number positions: once as ts, once as dur.
void add_value(sim::TraceLog& t, TimePs ps) {
  add_block(t, 0, ps, ps);
  add_block(t, 1, 0, ps);
}

bool product_is_quotient(TimePs ps) {
  return static_cast<double>(ps) * 1e-6 == static_cast<double>(ps) / 1e6;
}

TEST(ChromeExportOracle, PerfProgramsOnBusAndMesh) {
  for (const char* program :
       {"pipeline", "forkjoin", "shared_hammer", "tiled_pipeline"}) {
    for (const bool mesh : {false, true}) {
      auto cfg = sim::PlatformConfig::homogeneous(4);
      cfg.trace_enabled = true;
      if (mesh) {
        cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
        cfg.mesh.width = 2;
        cfg.mesh.height = 2;
      }
      sim::Platform plat(std::move(cfg));
      ASSERT_TRUE(spawn_workload(program, plat, /*seed=*/5, /*scale=*/8));
      plat.run();
      const auto& trace = plat.tracer().events();
      const std::string got = to_chrome_trace(trace);
      EXPECT_NE(got.find("\"ph\":\"X\""), std::string::npos) << program;
      EXPECT_EQ(got, oracle_chrome_trace(trace))
          << program << (mesh ? " on mesh" : " on bus");
    }
  }
}

TEST(ChromeExportOracle, SyntheticTimesAcrossEveryNumberPath) {
  std::vector<TimePs> values;
  // ps < 100 goes through the writer ("0", then exponent form); all of
  // 100..99 999 and a sample up to 999 999 take the fixed-point range.
  for (TimePs ps = 0; ps < 100'000; ++ps) values.push_back(ps);
  Rng rng(15);
  for (int i = 0; i < 20'000; ++i)
    values.push_back(100'000 + rng.next_below(900'000));
  // Every decade up to 10^15, its edges and random values inside it.
  for (TimePs p10 = 1'000'000; p10 <= 1'000'000'000'000'000ULL; p10 *= 10) {
    for (const TimePs ps : {p10 - 1, p10, p10 + 1, p10 + 500'000})
      values.push_back(ps);
    for (int i = 0; i < 2'000; ++i)
      values.push_back(p10 / 10 + rng.next_below(p10 - p10 / 10));
  }
  // At and beyond 10^15 the writer takes over again.
  for (int i = 0; i < 1'000; ++i)
    values.push_back(1'000'000'000'000'000ULL + rng.next_u64() % (1ULL << 62));
  values.push_back(std::numeric_limits<TimePs>::max() - 1);
  values.push_back(std::numeric_limits<TimePs>::max());

  // Both sides of the fast path's quotient check occur, in range.
  std::size_t exact = 0;
  std::size_t inexact = 0;
  for (const TimePs ps : values)
    if (ps >= 100 && ps < 1'000'000'000'000'000ULL)
      ++(product_is_quotient(ps) ? exact : inexact);
  EXPECT_GT(exact, 10'000u);
  EXPECT_GT(inexact, 1'000u);

  sim::TraceLog trace;
  for (const TimePs ps : values) add_value(trace, ps);
  EXPECT_EQ(to_chrome_trace(trace), oracle_chrome_trace(trace));
}

TEST(ChromeExportOracle, LabelsNeedingEscapes) {
  sim::TraceLog trace;
  const std::string labels[] = {"quote\"d", "back\\slash", "tab\there",
                                std::string("ctl\x01" "byte"), "",
                                "nl\nand\rcr"};
  TimePs t = 0;
  for (const std::string& l : labels) {
    add_block(trace, 2, t + 1'000, t + 2'500'000, l);
    t += 3'000'000;
  }
  const std::string got = to_chrome_trace(trace);
  EXPECT_EQ(got, oracle_chrome_trace(trace));
  EXPECT_NE(got.find("quote\\\"d"), std::string::npos);
  EXPECT_NE(got.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(got.find("tab\\there"), std::string::npos);
  EXPECT_NE(got.find("ctl\\u0001byte"), std::string::npos);
  const auto doc = json::parse(got);
  ASSERT_TRUE(doc.ok());
  const json::Value* events = doc.value().get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), std::size(labels));
  for (std::size_t i = 0; i < std::size(labels); ++i)
    EXPECT_EQ(events->at(i).get_string("name"), labels[i]);
}

TEST(ChromeExportOracle, UnmatchedEventsAndInvalidCores) {
  using K = sim::TraceKind;
  sim::TraceLog trace;
  auto add = [&](TimePs time, K kind, sim::CoreId core, std::string_view l) {
    add_event(trace, time, kind, core, l);
  };
  // An end with no start, then a start that never ends.
  add(5'000, K::kComputeEnd, sim::CoreId{0}, "orphan");
  add(6'000, K::kComputeStart, sim::CoreId{1}, "never_ends");
  // An end whose label differs from the open start.
  add(7'000, K::kComputeStart, sim::CoreId{0}, "a");
  add(8'000, K::kComputeEnd, sim::CoreId{0}, "b");
  // A restarted block: the second start replaces the first.
  add(9'000, K::kComputeStart, sim::CoreId{2}, "x");
  add(9'500, K::kComputeStart, sim::CoreId{2}, "x");
  add(12'345'678, K::kComputeEnd, sim::CoreId{2}, "x");
  // Invalid cores are skipped, even with a matching pair.
  add(10'000, K::kComputeStart, sim::CoreId{}, "nocore");
  add(11'000, K::kComputeEnd, sim::CoreId{}, "nocore");
  // Other kinds in between, and a core far above the rest.
  add(11'500, K::kMemRead, sim::CoreId{0}, "");
  add(12'000, K::kComputeStart, sim::CoreId{40}, "far");
  add(13'000, K::kCustom, sim::CoreId{40}, "far");
  add(14'000, K::kComputeEnd, sim::CoreId{40}, "far");
  // The label-mismatched block on core 0 is still open: close it.
  add(15'000, K::kComputeEnd, sim::CoreId{0}, "a");
  const std::string got = to_chrome_trace(trace);
  EXPECT_EQ(got, oracle_chrome_trace(trace));
  const auto doc = json::parse(got);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().get("traceEvents")->size(), 3u);  // x, far, a
  EXPECT_EQ(got.find("orphan"), std::string::npos);
  EXPECT_EQ(got.find("never_ends"), std::string::npos);
  EXPECT_EQ(got.find("nocore"), std::string::npos);
}

// Harness integration: the exports ride RunMetrics extras (as a split
// 64-bit FNV hash) and must be identical whether the harness fans runs
// out over threads or runs them serially.
TEST(ExportTest, HarnessSerialAndParallelProduceSameExports) {
  auto scenario = [] {
    harness::Scenario s("perf_export_determinism");
    for (const char* w : {"pipeline", "forkjoin"})
      s.add_run(w, [w](const harness::RunContext&) {
        const Exports e = run_and_export(w);
        std::uint64_t h = fnv1a(e.json);  // FNV-1a over all exports
        for (const std::string* doc : {&e.chrome, &e.folded, &e.csv})
          h = fnv1a(*doc, h);
        RunMetrics m;
        m.set_extra("export_hash_lo", static_cast<double>(h & 0xffffffffull));
        m.set_extra("export_hash_hi", static_cast<double>(h >> 32));
        return m;
      });
    return s;
  };
  const auto serial = harness::Runner({.threads = 1}).run(scenario());
  const auto parallel = harness::Runner({.threads = 4}).run(scenario());
  EXPECT_TRUE(serial.sim_equal(parallel));
}

TEST(DriverTest, ListPrintsRegistryAndExitsZero) {
  const auto opts = parse_prof_args({"--list"});
  ASSERT_TRUE(opts.ok());
  std::ostringstream out;
  const auto report = run_prof(opts.value(), out);
  EXPECT_EQ(report.exit_code, 0);
  for (const auto& w : workload_registry())
    EXPECT_NE(out.str().find(w.name), std::string::npos);
}

TEST(DriverTest, ParseRejectsUnknownOptionsAndWorkloads) {
  EXPECT_FALSE(parse_prof_args({"--bogus"}).ok());
  EXPECT_FALSE(parse_prof_args({"not_a_workload"}).ok());
  EXPECT_FALSE(parse_prof_args({"--cores"}).ok());  // missing value
  const auto ok = parse_prof_args({"--governor", "--mesh", "--cores", "9",
                                   "--seed", "3", "--scale", "2",
                                   "--period-us", "7", "--epoch-us", "40",
                                   "--no-files", "pipeline"});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().governor);
  EXPECT_TRUE(ok.value().mesh);
  EXPECT_EQ(ok.value().cores, 9u);
  EXPECT_EQ(ok.value().period, microseconds(7));
  EXPECT_FALSE(ok.value().write_files);
  ASSERT_EQ(ok.value().workloads.size(), 1u);
}

TEST(DriverTest, JsonOutputIsDeterministic) {
  auto run_json = [] {
    auto opts = parse_prof_args({"--json", "--no-files", "--scale", "1",
                                 "pipeline"});
    EXPECT_TRUE(opts.ok());
    std::ostringstream out;
    const auto report = run_prof(opts.value(), out);
    EXPECT_EQ(report.exit_code, 0);
    return out.str();
  };
  const std::string a = run_json();
  EXPECT_EQ(a, run_json());
  EXPECT_NE(a.find("\"schema\": \"rw-perf-run-1\""), std::string::npos);
  EXPECT_NE(a.find("\"workload\": \"pipeline\""), std::string::npos);
}

TEST(DriverTest, GovernorRunReportsTransitions) {
  auto opts = parse_prof_args({"--governor", "--no-files", "--scale", "1",
                               "forkjoin"});
  ASSERT_TRUE(opts.ok());
  std::ostringstream out;
  const auto report = run_prof(opts.value(), out);
  EXPECT_EQ(report.exit_code, 0);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_GT(report.outcomes[0].governor_transitions, 0u);
  // The governed run still produced a full perf report.
  EXPECT_GT(report.outcomes[0].report.totals().busy_cycles, 0u);
}

}  // namespace
}  // namespace rw::perf
