// E15 — the rw::ert multi-tenant job service under open-loop load.
//
// N tenants submit template jobs with Poisson arrivals through the one
// Session/JobSpec API; the sweep (tenant count x arrival rate) measures
// p50/p99 end-to-end latency and goodput per cell. Three gates ride
// along:
//   * identity — a single-tenant single-job Session run must reproduce
//     run_jobspec_direct() metrics exactly (same execution model, zero
//     service residue);
//   * shared-pool isolation — an abusive tenant flooding the shared pool
//     may not move a well-behaved tenant's p99 beyond the documented
//     bound (DESIGN.md: <= 2.0x quiet-cell p99, enforced by the
//     fair-share cap under contention);
//   * reserved isolation — with a hard reservation the victim's
//     completion fingerprint is bit-identical no matter the neighbor's
//     load (ratio exactly 1.0).
//
// One rw::harness run per cell; results land in BENCH_ert.json with the
// nondeterministic wall-clock fields scrubbed, so a fixed seed gives a
// byte-identical document.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "ert/service.hpp"
#include "ert/templates.hpp"
#include "harness/harness.hpp"

namespace {

using namespace rw;

constexpr std::uint64_t kSeed = 1;
/// Documented shared-pool isolation bound (see DESIGN.md, rw::ert): the
/// abusive-neighbor cell may inflate the victim's p99 by at most this
/// factor over the quiet cell.
constexpr double kSharedIsolationBound = 2.0;

struct BenchConfig {
  std::size_t cores = 8;
  std::uint64_t jobs_per_tenant = 24;
  std::vector<std::size_t> tenant_counts = {2, 4};
  std::vector<std::uint64_t> gaps_us = {80, 30, 12};  // mean inter-arrival
};

/// Submit `n` template jobs open-loop with Poisson arrivals. The stream
/// is a pure function of (tenant_seed, n, mean_gap) — in particular it is
/// independent of what any other tenant does, which the isolation gates
/// rely on.
std::vector<ert::JobHandle> submit_open_loop(
    ert::Session& session, std::uint64_t tenant_seed, std::uint64_t n,
    DurationPs mean_gap, std::vector<std::string> names = {}) {
  if (names.empty()) names = ert::template_names();
  Rng rng(tenant_seed);
  TimePs arrival = 0;
  std::vector<ert::JobHandle> handles;
  handles.reserve(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    arrival += static_cast<DurationPs>(
        rng.next_exponential(static_cast<double>(mean_gap)));
    ert::JobSpec spec =
        ert::make_template(names[static_cast<std::size_t>(j) % names.size()]);
    spec.arrival = arrival;
    handles.push_back(session.submit(std::move(spec)));
  }
  return handles;
}

DurationPs percentile(std::vector<DurationPs> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string cell(std::size_t tenants, std::uint64_t gap_us) {
  return strformat("t%zu_gap%03llu", tenants,
                   static_cast<unsigned long long>(gap_us));
}

/// One sweep cell: `tenants` equal-share tenants, Poisson arrivals with
/// the given mean gap, merged latency percentiles + goodput.
RunMetrics run_cell(const BenchConfig& cfg, std::size_t tenants,
                    std::uint64_t gap_us) {
  ert::ServiceConfig scfg;
  scfg.total_cores = cfg.cores;
  scfg.record_trace = false;
  ert::Service service(scfg);

  std::vector<ert::Session> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    auto s = service.open_session(ert::TenantConfig{
        .name = strformat("t%zu", t),
        .share = 1.0 / static_cast<double>(tenants)});
    sessions.push_back(s.value());
  }
  std::vector<ert::JobHandle> handles;
  for (std::size_t t = 0; t < tenants; ++t) {
    auto h = submit_open_loop(sessions[t], kSeed * 0x9e3779b97f4a7c15ULL + t,
                              cfg.jobs_per_tenant, microseconds(gap_us));
    handles.insert(handles.end(), h.begin(), h.end());
  }
  service.drain();

  std::vector<DurationPs> latencies;
  std::uint64_t completed = 0, rejected = 0, misses = 0;
  for (const ert::TenantStats& s : service.all_tenant_stats()) {
    latencies.insert(latencies.end(), s.latencies.begin(),
                     s.latencies.end());
    completed += s.completed;
    rejected += s.rejected;
    misses += s.deadline_misses;
  }
  RunMetrics m;
  m.makespan = service.now();
  m.deadline_misses = misses;
  m.set_extra("ert.completed", static_cast<double>(completed));
  m.set_extra("ert.rejected", static_cast<double>(rejected));
  m.set_extra("ert.p50_us",
              static_cast<double>(percentile(latencies, 50.0)) * 1e-6);
  m.set_extra("ert.p99_us",
              static_cast<double>(percentile(latencies, 99.0)) * 1e-6);
  m.set_extra("ert.goodput_jobs_per_ms",
              m.makespan == 0 ? 0.0
                              : static_cast<double>(completed) /
                                    (static_cast<double>(m.makespan) / 1e9));
  return m;
}

/// Victim p99 quiet vs beside an abusive tenant. The victim's submission
/// stream is identical in both services; only the neighbor changes. The
/// victim's jobs are gangs that fit inside its 25% share (max 2 of 8
/// cores), so the documented bound measures queueing interference — the
/// fair-share cap legitimately shrinks gangs larger than the share.
RunMetrics run_isolation(const BenchConfig& cfg, bool reserved) {
  const std::uint64_t victim_seed = kSeed * 0x9e3779b97f4a7c15ULL + 17;
  const std::uint64_t victim_jobs = 16;
  const DurationPs victim_gap = microseconds(300);  // well-behaved
  const std::vector<std::string> victim_mix = {"pipeline", "diamond",
                                               "cic_chain"};

  auto victim_stats = [&](bool abusive_neighbor) {
    ert::ServiceConfig scfg;
    scfg.total_cores = cfg.cores;
    scfg.record_trace = false;
    ert::Service service(scfg);
    auto victim = service.open_session(ert::TenantConfig{
        .name = "victim", .share = 0.25, .reserved = reserved});
    auto victim_handles = submit_open_loop(victim.value(), victim_seed,
                                           victim_jobs, victim_gap,
                                           victim_mix);
    if (abusive_neighbor) {
      auto abuser = service.open_session(
          ert::TenantConfig{.name = "abuser", .share = 0.75});
      // 8x the victim's volume at 30x its rate: a flood, not a workload.
      auto abuse_handles = submit_open_loop(
          abuser.value(), victim_seed + 1, victim_jobs * 8,
          victim_gap / 30);
      service.drain();
    } else {
      service.drain();
    }
    return service.tenant_stats(0);
  };

  const ert::TenantStats quiet = victim_stats(false);
  const ert::TenantStats loaded = victim_stats(true);
  const double quiet_p99 = static_cast<double>(quiet.percentile(99.0));
  const double loaded_p99 = static_cast<double>(loaded.percentile(99.0));

  RunMetrics m;
  m.makespan = static_cast<TimePs>(loaded_p99);
  m.set_extra("ert.quiet_p99_us", quiet_p99 * 1e-6);
  m.set_extra("ert.loaded_p99_us", loaded_p99 * 1e-6);
  m.set_extra("ert.p99_ratio",
              quiet_p99 == 0 ? 1.0 : loaded_p99 / quiet_p99);
  m.set_extra("ert.fingerprint_equal",
              quiet.fingerprint == loaded.fingerprint ? 1.0 : 0.0);
  return m;
}

/// Single-tenant single-job Session vs run_jobspec_direct: RunMetrics
/// must be equal on every deterministic field.
RunMetrics run_identity(const std::string& tmpl) {
  ert::ServiceConfig scfg;
  ert::Service service(scfg);
  auto session = service.open_session(ert::TenantConfig{.name = "solo"});
  const ert::JobSpec spec = ert::make_template(tmpl);
  const ert::JobHandle handle = session.value().submit(spec);
  const auto& outcome = handle.result();
  const auto direct = ert::run_jobspec_direct(spec, scfg);

  RunMetrics m = outcome.ok() ? outcome.value().metrics : RunMetrics{};
  m.set_extra("ert.identical",
              outcome.ok() && direct.ok() &&
                      outcome.value().metrics.sim_equal(direct.value())
                  ? 1.0
                  : 0.0);
  return m;
}

/// ISSUE 7 gate: with the static-admission precheck enabled, a realtime
/// job whose static makespan bound cannot meet its deadline is rejected
/// at submit with the typed reason, while the identical job with an
/// honest deadline is admitted and — the bound being conservative —
/// meets it. Purpose-built specs only: the stock templates' realtime
/// deadlines are not statically provable (conservative bounds reject
/// them), which is exactly why the precheck defaults off and no other
/// cell enables it.
RunMetrics run_static_admission() {
  ert::ServiceConfig scfg;
  scfg.static_admission = true;
  ert::Service service(scfg);
  auto session = service.open_session(ert::TenantConfig{.name = "rt"});

  ert::JobSpec spec;
  spec.name = "rt_probe";
  const auto a = spec.graph.add_task("a", 4'000);
  const auto b = spec.graph.add_task("b", 4'000);
  spec.graph.add_edge(a, b, 256);
  spec.qos = ert::QosClass::kRealtime;
  const DurationPs bound = ert::static_makespan_bound_ps(spec, scfg);

  ert::JobSpec doomed = spec;
  doomed.deadline = bound + scfg.arbitration_latency - 1;
  const ert::JobHandle hd = session.value().submit(doomed);

  ert::JobSpec honest = spec;
  honest.deadline = bound + scfg.arbitration_latency;
  const ert::JobHandle ho = session.value().submit(honest);

  RunMetrics m;
  m.makespan = ho.result().ok() ? ho.result().value().finished : 0;
  m.set_extra("ert.static_bound_us", static_cast<double>(bound) * 1e-6);
  m.set_extra("ert.static_rejected",
              !hd.result().ok() &&
                      hd.result().error().to_string().find(
                          "static-infeasible") != std::string::npos
                  ? 1.0
                  : 0.0);
  m.set_extra("ert.static_admitted",
              ho.result().ok() && ho.result().value().deadline_met ? 1.0
                                                                   : 0.0);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      // CI smoke configuration: one tenant count, two rates, fewer jobs.
      cfg.jobs_per_tenant = 10;
      cfg.tenant_counts = {2};
      cfg.gaps_us = {80, 20};
    }
  }

  harness::Scenario scenario("e15_ert_service", kSeed);
  for (const std::size_t tenants : cfg.tenant_counts)
    for (const std::uint64_t gap : cfg.gaps_us)
      scenario.add_run(cell(tenants, gap),
                       [&cfg, tenants, gap](const harness::RunContext&) {
                         return run_cell(cfg, tenants, gap);
                       });
  scenario.add_run("isolation_shared", [&cfg](const harness::RunContext&) {
    return run_isolation(cfg, /*reserved=*/false);
  });
  scenario.add_run("isolation_reserved", [&cfg](const harness::RunContext&) {
    return run_isolation(cfg, /*reserved=*/true);
  });
  for (const std::string& tmpl : ert::template_names())
    scenario.add_run("identity_" + tmpl,
                     [tmpl](const harness::RunContext&) {
                       return run_identity(tmpl);
                     });
  scenario.add_run("static_admission", [](const harness::RunContext&) {
    return run_static_admission();
  });
  const auto result = harness::Runner().run(scenario);

  std::printf("E15: ert service open-loop sweep (%zu cores, %llu "
              "jobs/tenant, seed %llu)\n",
              cfg.cores,
              static_cast<unsigned long long>(cfg.jobs_per_tenant),
              static_cast<unsigned long long>(kSeed));

  bool shape_ok = true;
  Table t({"tenants", "gap_us", "p50_us", "p99_us", "jobs/ms", "rejected",
           "makespan"});
  for (const std::size_t tenants : cfg.tenant_counts) {
    for (const std::uint64_t gap : cfg.gaps_us) {
      const auto& m = result.find(cell(tenants, gap))->metrics;
      const double p50 = m.extra_or("ert.p50_us");
      const double p99 = m.extra_or("ert.p99_us");
      // Every cell completed jobs, and its p99 sits at or above its p50.
      if (m.extra_or("ert.completed") <= 0.0 || p99 < p50) shape_ok = false;
      t.add_row({Table::num(static_cast<std::uint64_t>(tenants)),
                 Table::num(gap), strformat("%.1f", p50),
                 strformat("%.1f", p99),
                 strformat("%.2f", m.extra_or("ert.goodput_jobs_per_ms")),
                 Table::num(m.extra_or("ert.rejected")),
                 format_time(m.makespan)});
    }
  }
  t.print("latency rises as the mean arrival gap shrinks; goodput "
          "saturates at capacity");

  {
    const auto& m = result.find("isolation_shared")->metrics;
    const double ratio = m.extra_or("ert.p99_ratio");
    if (ratio > kSharedIsolationBound) shape_ok = false;
    std::printf("isolation gate [shared]: victim p99 %.1fus quiet -> "
                "%.1fus beside flood (%.2fx, bound %.1fx) %s\n",
                m.extra_or("ert.quiet_p99_us"),
                m.extra_or("ert.loaded_p99_us"), ratio,
                kSharedIsolationBound,
                ratio <= kSharedIsolationBound ? "OK" : "VIOLATED");
  }
  {
    const auto& m = result.find("isolation_reserved")->metrics;
    const bool exact = m.extra_or("ert.p99_ratio") == 1.0 &&
                       m.extra_or("ert.fingerprint_equal") == 1.0;
    if (!exact) shape_ok = false;
    std::printf("isolation gate [reserved]: p99 ratio %.4f, fingerprint "
                "%s\n",
                m.extra_or("ert.p99_ratio"),
                m.extra_or("ert.fingerprint_equal") == 1.0
                    ? "bit-identical"
                    : "DIVERGED");
  }
  if (ert::template_names().empty()) shape_ok = false;  // no identity gate
  for (const std::string& tmpl : ert::template_names()) {
    const auto& m = result.find("identity_" + tmpl)->metrics;
    const bool identical = m.extra_or("ert.identical") == 1.0;
    if (!identical) shape_ok = false;
    std::printf("identity gate [%s]: session == direct %s (makespan %s)\n",
                tmpl.c_str(), identical ? "exactly" : "DIVERGED",
                format_time(m.makespan).c_str());
  }

  {
    const auto& m = result.find("static_admission")->metrics;
    const bool rejected = m.extra_or("ert.static_rejected") == 1.0;
    const bool admitted = m.extra_or("ert.static_admitted") == 1.0;
    if (!rejected || !admitted) shape_ok = false;
    std::printf("admission gate [static]: infeasible realtime job %s at "
                "submit; honest twin %s its deadline (bound %.1fus)\n",
                rejected ? "rejected" : "NOT REJECTED",
                admitted ? "admitted and met" : "MISSED",
                m.extra_or("ert.static_bound_us"));
  }

  std::printf("harness: %zu runs on %zu threads in %.0fms\n",
              result.runs.size(), result.threads_used,
              static_cast<double>(result.wall_ns) / 1e6);
  std::printf("expected shape: per-cell p99 >= p50 with latency growing "
              "as arrivals densify;\nshared-pool victim p99 stays within "
              "the documented %.1fx bound; a reserved\nvictim is "
              "bit-identical under any neighbor load; Session == direct "
              "path exactly.\n",
              kSharedIsolationBound);
  return bench::finish("BENCH_ert.json", {result}, shape_ok);
}
