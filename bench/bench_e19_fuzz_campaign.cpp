// E19: fuzz-campaign determinism and coverage.
//
// Runs the same rwfuzz campaign twice in one process and gates on three
// properties the DESIGN.md contract promises:
//
//  * determinism — the campaign report (schema rw-fuzz-campaign-1) and
//    the wall-scrubbed per-batch harness records are byte-identical
//    across the two executions;
//  * green — the stock invariants hold on every generated case, so the
//    campaign reports zero failures;
//  * coverage — the sweep plus directed fill reaches >=80% of the
//    reachable (family x fault-kind x policy x exec) matrix.
//
// Results land in BENCH_fuzz.json with wall-clock fields scrubbed
// (byte-identical across reruns, like BENCH_kernel.json); the measured
// wall time stays on stdout.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fuzz/campaign.hpp"
#include "harness/harness.hpp"

namespace {

using namespace rw;

struct CampaignRun {
  fuzz::CampaignReport report;
  std::string report_json;
  std::string batches_json;  // wall-scrubbed harness records
  double wall_ms = 0.0;
};

CampaignRun execute(const fuzz::CampaignConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  CampaignRun run;
  run.report = fuzz::run_campaign(cfg);
  const auto t1 = std::chrono::steady_clock::now();
  run.wall_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
      1e6;
  run.report_json = run.report.to_json();
  std::vector<harness::ScenarioResult> scrubbed;
  scrubbed.reserve(run.report.batches.size());
  for (const harness::ScenarioResult& b : run.report.batches)
    scrubbed.push_back(bench::scrub_wall_clock(b));
  run.batches_json = harness::to_json(scrubbed);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::CampaignConfig cfg;
  cfg.seeds = 400;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--tiny") == 0) {
      cfg.seeds = 120;
      cfg.tiny = true;
    }

  std::printf("== E19: fuzz campaign (%llu seeds%s), run twice\n\n",
              static_cast<unsigned long long>(cfg.seeds),
              cfg.tiny ? ", tiny" : "");
  const CampaignRun a = execute(cfg);
  const CampaignRun b = execute(cfg);

  a.report.summary_table().print("campaign totals (first execution)");
  a.report.coverage.to_table().print(
      "coverage: family x fault kind, each cell hit/reachable "
      "(policy x exec collapsed)");

  const bool report_identical = a.report_json == b.report_json;
  const bool batches_identical = a.batches_json == b.batches_json;
  const bool green = a.report.green() && b.report.green();
  const double coverage = a.report.coverage.fraction();
  const bool coverage_ok = coverage >= 0.8;

  std::printf("wall: first %.0fms, second %.0fms\n", a.wall_ms, b.wall_ms);
  std::printf("gates: report %s; scrubbed batches %s; failures %zu "
              "(green %s); coverage %.1f%% (>=80%% gate %s)\n",
              report_identical ? "identical" : "DIVERGENT",
              batches_identical ? "identical" : "DIVERGENT",
              a.report.failures.size(), green ? "pass" : "FAIL",
              coverage * 100.0, coverage_ok ? "pass" : "FAIL");

  std::printf("expected shape: both executions byte-identical, zero "
              "failures, full-matrix coverage from the directed fill.\n");
  return bench::finish(
      "BENCH_fuzz.json", a.report.batches,
      report_identical && batches_identical && green && coverage_ok);
}
