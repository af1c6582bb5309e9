#include "fuzz/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/shrink.hpp"

namespace rw::fuzz {
namespace {

/// Sweep batch size: small enough that the wall cap and the failure cap
/// react promptly, large enough to keep the pool saturated.
constexpr std::uint64_t kBatchRuns = 256;

/// Directed fill retries per dark cell (a directed plan can come out
/// empty for unlucky seeds; nearby deterministic seeds fix that).
constexpr std::uint32_t kDirectedAttempts = 8;

struct Collected {
  std::uint64_t index = 0;
  CampaignCase c;
  CaseOutcome out;
};

/// Twins the shrink predicate needs: only the one whose invariant is
/// being chased (rerun stays on for ert, whose accounting check folds
/// the rerun comparison in). Everything else is wasted simulation.
OracleOptions shrink_options(const std::string& invariant) {
  OracleOptions o;
  if (invariant == "run.exception") return o;  // any twin may be the throw
  o.rerun_twin =
      invariant == "determinism.rerun" || invariant.rfind("ert.", 0) == 0;
  o.policy_twin = invariant == "determinism.policy";
  o.exec_twin = invariant == "determinism.exec";
  return o;
}

}  // namespace

std::string FailureReport::regression_stub() const {
  const CampaignCase& c = shrunk ? minimal : original;
  std::string body = c.to_json();
  if (body.empty() || body.back() != '\n') body += '\n';
  std::string out;
  out += strformat("// Generated by rwfuzz: invariant '%s' violated.\n",
                   violation.invariant.c_str());
  out += strformat(
      "// Seed %llu; shrunk in %llu steps (%llu oracle evaluations).\n",
      static_cast<unsigned long long>(case_seed),
      static_cast<unsigned long long>(shrink_steps),
      static_cast<unsigned long long>(shrink_attempts));
  out += "// Paste into a test linking rw_fuzz to pin the fix.\n";
  out += strformat("TEST(FuzzRegression, Seed%llu) {\n",
                   static_cast<unsigned long long>(case_seed));
  out += "  static constexpr const char* kCaseJson = R\"json(\n";
  out += body;
  out += ")json\";\n";
  out +=
      "  const auto parsed = rw::fuzz::CampaignCase::from_json(kCaseJson);\n"
      "  ASSERT_TRUE(parsed.ok()) << parsed.error().message;\n"
      "  const rw::fuzz::CaseOutcome outcome ="
      " rw::fuzz::run_case(parsed.value());\n";
  out += strformat(
      "  EXPECT_FALSE(outcome.violates(\"%s\"))\n"
      "      << \"regression reproduced: %s\";\n",
      violation.invariant.c_str(), violation.invariant.c_str());
  out += "}\n";
  return out;
}

Table CampaignReport::summary_table() const {
  Table t({"metric", "value"});
  t.add_row({"cases", Table::num(cases)});
  t.add_row({"directed cases", Table::num(directed_cases)});
  t.add_row({"sub-runs", Table::num(sub_runs)});
  t.add_row({"faulted cases", Table::num(faulted_cases)});
  for (std::size_t f = 0; f < kNumFamilies; ++f)
    t.add_row({strformat("family %s", family_name(static_cast<Family>(f))),
               Table::num(family_cases[f])});
  t.add_row({"failures", Table::num(static_cast<std::uint64_t>(
                             failures.size()))});
  t.add_row({"shrink runs", Table::num(shrink_runs)});
  t.add_row({"coverage",
             strformat("%llu/%llu (%s)",
                       static_cast<unsigned long long>(coverage.hit_count()),
                       static_cast<unsigned long long>(
                           CoverageMatrix::reachable_count()),
                       Table::percent(coverage.fraction()).c_str())});
  t.add_row({"time capped", time_capped ? "yes" : "no"});
  return t;
}

std::string CampaignReport::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-fuzz-campaign-1");
  w.key("cases").value(cases);
  w.key("directed_cases").value(directed_cases);
  w.key("sub_runs").value(sub_runs);
  w.key("faulted_cases").value(faulted_cases);
  w.key("families").begin_object();
  for (std::size_t f = 0; f < kNumFamilies; ++f)
    w.key(family_name(static_cast<Family>(f))).value(family_cases[f]);
  w.end_object();
  w.key("shrink_runs").value(shrink_runs);
  w.key("time_capped").value(time_capped);
  w.key("coverage").begin_object();
  w.key("hit").value(static_cast<std::uint64_t>(coverage.hit_count()));
  w.key("reachable")
      .value(static_cast<std::uint64_t>(CoverageMatrix::reachable_count()));
  w.key("fraction").value(coverage.fraction());
  w.key("unhit").begin_array();
  for (const CoverageCell& cell : coverage.unhit_reachable())
    w.value(cell.key());
  w.end_array();
  w.end_object();
  w.key("failures").begin_array();
  for (const FailureReport& f : failures) {
    w.begin_object();
    w.key("seed").value(f.case_seed);
    w.key("invariant").value(f.violation.invariant);
    w.key("detail").value(f.violation.detail);
    w.key("violations").begin_array();
    for (const Violation& v : f.violations) w.value(v.invariant);
    w.end_array();
    w.key("shrunk").value(f.shrunk);
    w.key("shrink_steps").value(static_cast<std::uint64_t>(f.shrink_steps));
    w.key("shrink_attempts")
        .value(static_cast<std::uint64_t>(f.shrink_attempts));
    w.key("shrink_at_budget").value(f.shrink_at_budget);
    w.key("original").raw(f.original.to_json());
    w.key("minimal").raw(f.minimal.to_json());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

CampaignReport run_campaign(const CampaignConfig& cfg) {
  CampaignReport rep;
  GeneratorConfig gcfg;
  gcfg.tiny = cfg.tiny;
  gcfg.family_mask = cfg.family_mask;
  harness::Runner runner(harness::RunnerConfig{cfg.threads});

  const auto t0 = std::chrono::steady_clock::now();
  const auto expired = [&] {
    if (cfg.minutes <= 0.0) return false;
    const double mins =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        60.0;
    return mins >= cfg.minutes;
  };

  // Shared bookkeeping for both phases: tally the case, then record and
  // shrink it if it failed (up to the failure cap).
  const auto absorb = [&](CampaignCase&& c, CaseOutcome&& out,
                          bool directed) {
    ++rep.cases;
    if (directed) ++rep.directed_cases;
    rep.sub_runs += out.sub_runs;
    if (c.plan.size() != 0) ++rep.faulted_cases;
    ++rep.family_cases[static_cast<std::size_t>(c.family)];
    for (const CoverageCell& cell : out.cells) rep.coverage.mark(cell);
    if (out.ok() || rep.failures.size() >= cfg.max_failures) return;

    FailureReport fr;
    fr.case_seed = c.seed;
    fr.original = c;
    fr.violation = out.violations.front();
    fr.violations = std::move(out.violations);
    fr.minimal = std::move(c);
    if (cfg.shrink) {
      const std::string inv = fr.violation.invariant;
      const OracleOptions sopts = shrink_options(inv);
      std::uint64_t evals = 0;
      const ShrinkResult sr = shrink_case(
          fr.original,
          [&](const CampaignCase& cand) {
            ++evals;
            return run_case(cand, sopts).violates(inv);
          });
      fr.shrunk = true;
      fr.minimal = sr.minimal;
      fr.shrink_steps = sr.steps;
      fr.shrink_attempts = sr.attempts;
      fr.shrink_at_budget = sr.at_budget;
      rep.shrink_runs += evals;
    }
    rep.failures.push_back(std::move(fr));
  };

  // Phase 1: the random sweep, batched over the harness pool.
  std::uint64_t next = 0;
  while (next < cfg.seeds && rep.failures.size() < cfg.max_failures) {
    if (expired()) {
      rep.time_capped = true;
      break;
    }
    const std::uint64_t batch = std::min(kBatchRuns, cfg.seeds - next);
    harness::Scenario scenario(
        strformat("rwfuzz.batch%llu",
                  static_cast<unsigned long long>(next / kBatchRuns)),
        cfg.base_seed);
    std::mutex mu;
    std::vector<Collected> got;
    got.reserve(batch);
    for (std::uint64_t i = 0; i < batch; ++i) {
      const std::uint64_t global = next + i;
      scenario.add_run(
          strformat("s%llu", static_cast<unsigned long long>(global)),
          [&, global](const harness::RunContext& ctx) {
            CampaignCase c = generate_case(ctx.seed, gcfg);
            CaseOutcome out = run_case(c);
            RunMetrics m;
            m.makespan = out.makespan;
            m.set_extra("fuzz.family",
                        static_cast<double>(static_cast<int>(c.family)));
            m.set_extra("fuzz.sub_runs", static_cast<double>(out.sub_runs));
            m.set_extra("fuzz.cells", static_cast<double>(out.cells.size()));
            m.set_extra("fuzz.violations",
                        static_cast<double>(out.violations.size()));
            m.set_extra("fuzz.faulted", c.plan.size() != 0 ? 1.0 : 0.0);
            {
              const std::lock_guard<std::mutex> lock(mu);
              got.push_back({global, std::move(c), std::move(out)});
            }
            return m;
          });
    }
    rep.batches.push_back(runner.run(scenario));
    std::sort(got.begin(), got.end(),
              [](const Collected& a, const Collected& b) {
                return a.index < b.index;
              });
    for (Collected& g : got)
      absorb(std::move(g.c), std::move(g.out), /*directed=*/false);
    next += batch;
  }

  // Phase 2: directed fill — aim a single-kind case at every cell still
  // dark. Serial: the worklist is at most the reachable set.
  if (cfg.directed_fill && rep.failures.size() < cfg.max_failures) {
    for (const CoverageCell& cell : rep.coverage.unhit_reachable()) {
      if (cfg.family_mask != 0 &&
          (cfg.family_mask & family_bit(cell.family)) == 0)
        continue;
      if (expired()) {
        rep.time_capped = true;
        break;
      }
      DirectedTarget target;
      target.family = cell.family;
      target.kind = cell.kind;
      target.policy = cell.policy;
      target.parallel = cell.parallel;
      GeneratorConfig dcfg;
      dcfg.tiny = cfg.tiny;
      dcfg.target = &target;
      for (std::uint32_t attempt = 0;
           attempt < kDirectedAttempts && !rep.coverage.hit(cell);
           ++attempt) {
        const std::uint64_t seed = harness::Scenario::derive_seed(
            cfg.base_seed, "rwfuzz.directed", cell.key(), attempt);
        CampaignCase c = generate_case(seed, dcfg);
        if (cell.kind != CoverageCell::kFaultFree && c.plan.size() == 0)
          continue;  // the kind never landed in the window; retry
        CaseOutcome out = run_case(c);
        absorb(std::move(c), std::move(out), /*directed=*/true);
        if (rep.failures.size() >= cfg.max_failures) break;
      }
      if (rep.failures.size() >= cfg.max_failures) break;
    }
  }
  return rep;
}

}  // namespace rw::fuzz
