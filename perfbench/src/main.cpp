// perfbench — host-speed benchmark of the roadworks virtual platform.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt-reference] [--reference PATH]
//             [--spans PATH] [--started-ns NS]
//   perfbench --setup-only --workload NAME --seed N [--tiny]
//             [--reference PATH] [--started-ns NS]
//   perfbench --write-reference PATH
//
// One closed-loop client runs complete simulations of the workload's
// inputs back to back for S seconds and checks every run's simulated
// outputs. The untraced run (--trace 0) prints the closed loop's own
// figures, then the end-to-end metrics, which are taken from each input's
// fastest run and scaled by a host-speed probe; the traced run
// (--trace 1) records spans around every call into a library layer,
// runs the observer and sequential-engine twins, and prints the
// per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hpp"
#include "fuzz/case.hpp"
#include "host.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_process_start = Clock::now();

constexpr std::uint64_t kDefaultSeed = 1;
// setup_s is the median of the process's own set-up and kColdSetups more,
// each in a fresh process of this program. They run between slices of the
// timed loop, so they sample the host over the same window as the runs.
constexpr std::size_t kColdSetups = 8;
constexpr std::size_t kMaxLoggedFailures = 8;

// The host-speed probe, timed after every pass of the timed loop: a
// small discrete-event loop built from the standard library alone. It
// loads the host the way the simulator does (a priority queue of
// heap-allocated callbacks updating a hash table), but no change to the
// library touches it, so its times in a run measure the host's speed in
// that run. The gated figures are scaled by them (README.md,
// "Host-speed normalisation").
constexpr std::uint32_t kProbeEvents = 12000;
constexpr std::uint32_t kProbeKeys = 4096;
// The probe's fastest time on the 4-vCPU Xeon host of README.md's sizing
// numbers. Scaled times read as host time on that host.
constexpr double kProbeReferenceMs = 1.75;
std::uint64_t g_probe_sink = 0;  // keeps the probe's work observable

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// One timing of the host-speed probe, in ms. Every call does the same
/// work.
double probe_ms() {
  struct Event {
    std::uint64_t at;
    std::uint32_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  static std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t now = 0;
  std::uint32_t seq = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::function<void(std::uint32_t, std::uint64_t)> schedule =
      [&](std::uint32_t id, std::uint64_t at) {
        // The captures outgrow std::function's inline buffer, so every
        // event allocates, as the simulator's do.
        const std::uint64_t pad[2] = {x, at};
        queue.push(Event{at, seq++, [&, id, pad] {
                           table[id % kProbeKeys] += now + pad[0] + pad[1];
                           const std::uint64_t r = next();
                           if (seq < kProbeEvents)
                             schedule(static_cast<std::uint32_t>(r >> 40),
                                      now + (r & 0xfff));
                         }});
      };
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t id = 0; id < 256; ++id) schedule(id, id);
  while (!queue.empty()) {
    Event e = queue.top();
    queue.pop();
    now = e.at;
    e.fn();
  }
  const double ms = seconds_since(t0) * 1e3;
  g_probe_sink += table[static_cast<std::uint32_t>(x % kProbeKeys)];
  return ms;
}

double median_ms(const std::vector<std::int64_t>& ns) {
  std::vector<double> v;
  v.reserve(ns.size());
  for (const std::int64_t x : ns) v.push_back(static_cast<double>(x) / 1e6);
  return quantile(std::move(v), 0.5);
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt_reference = false;
  bool setup_only = false;
  std::uint64_t started_ns = 0;  // steady clock at spawn; 0 = unknown
  std::string reference = "perfbench/reference.json";
  std::string spans;
  std::string write_reference;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t u = 0;
    if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else if (!has_value) {
      std::fprintf(stderr, "missing value for %s\n", k.c_str());
      return false;
    } else if (k == "--workload") {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      if (!parse_u64(argv[++i], a.seed)) return false;
    } else if (k == "--seconds") {
      if (!parse_u64(argv[++i], u) || u == 0) return false;
      a.seconds = static_cast<double>(u);
    } else if (k == "--trace") {
      if (!parse_u64(argv[++i], u) || u > 1) return false;
      a.trace = u == 1;
    } else if (k == "--started-ns") {
      if (!parse_u64(argv[++i], a.started_ns)) return false;
    } else if (k == "--reference") {
      a.reference = argv[++i];
    } else if (k == "--spans") {
      a.spans = argv[++i];
    } else if (k == "--write-reference") {
      a.write_reference = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return true;
}

/// When the process was spawned: --started-ns, a steady-clock reading
/// its parent took just before the spawn, or else the start of this
/// program's static initialisation.
Clock::time_point started_at(const Args& args) {
  if (args.started_ns == 0) return g_process_start;
  return Clock::time_point(std::chrono::nanoseconds(args.started_ns));
}

std::string reference_key(const std::string& workload, bool tiny,
                          const std::string& input) {
  return workload + (tiny ? ".tiny/" : "/") + input;
}

/// The checked closed loop: owns the expected outputs of every workload
/// and the attempted/failed tallies of the whole process.
class Bench {
 public:
  Bench(const Args& args, const ReferenceFile* ref) : args_(args), ref_(ref) {}

  struct Setup {
    std::unique_ptr<Workload> wl;
    double seconds = 0;
  };

  /// Outputs a run is compared with: those of input i of `workload`, all
  /// of them or only `fields`.
  struct Against {
    std::string workload;
    std::vector<std::string> fields;
  };

  struct Timed {
    std::vector<double> run_ms;
    std::vector<double> probe_ms;  // one host-speed probe per pass
    std::uint64_t ok_runs = 0;
    std::uint64_t events = 0;
    double elapsed_s = 0;  // without the probes

    void append(const Timed& o) {
      run_ms.insert(run_ms.end(), o.run_ms.begin(), o.run_ms.end());
      probe_ms.insert(probe_ms.end(), o.probe_ms.begin(), o.probe_ms.end());
      ok_runs += o.ok_runs;
      events += o.events;
      elapsed_s += o.elapsed_s;
    }
  };

  /// Generate the inputs, run each once (the reference computation and
  /// warm-up) and check the first runs. The first set-up of a workload in
  /// this process fixes its expected outputs: the committed reference for
  /// the default seed, the first runs for any other seed.
  Setup set_up(const std::string& name, Clock::time_point t0) {
    Setup s;
    s.wl = make_workload(name, args_.seed, args_.tiny);
    std::vector<RunOutcome> first;
    for (std::size_t i = 0; i < s.wl->inputs().size(); ++i)
      first.push_back(guarded_run(*s.wl, i));
    const std::vector<std::string> extra = s.wl->setup_checks(first);
    if (!expected_.count(name)) fix_expected(*s.wl, first);
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (first[i].failure.empty()) first[i].failure = extra[i];
      check(*s.wl, i, first[i], {});
    }
    s.seconds = seconds_since(t0);
    return s;
  }

  /// Run every input in turn until `seconds` have passed and at least
  /// `min_runs` runs are done, finishing the last pass so each input is
  /// run equally often, and time the host-speed probe after each pass.
  /// Each run is checked against `against`, by default all expected
  /// outputs of `wl` itself.
  Timed measure(Workload& wl, double seconds, std::size_t min_runs = 0,
                const std::vector<Against>& against = {}) {
    Timed t;
    const Clock::time_point start = Clock::now();
    do {
      for (std::size_t i = 0; i < wl.inputs().size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const RunOutcome out = guarded_run(wl, i);
        const bool ok = check(wl, i, out, against);
        t.run_ms.push_back(seconds_since(t0) * 1e3);
        t.ok_runs += ok ? 1 : 0;
        t.events += out.events;
      }
      t.probe_ms.push_back(probe_ms());
    } while (seconds_since(start) < seconds || t.run_ms.size() < min_runs);
    t.elapsed_s = seconds_since(start) -
                  std::accumulate(t.probe_ms.begin(), t.probe_ms.end(), 0.0) /
                      1e3;
    return t;
  }

  /// Record a failure that is not tied to one run (a broken trace, a
  /// thread budget overrun).
  void fail_check(const std::string& why) {
    check_failures_.push_back(why);
  }

  [[nodiscard]] const std::vector<Outputs>& expected(
      const std::string& workload) const {
    return expected_.at(workload);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const {
    return failed_ == 0 && check_failures_.empty();
  }

  void print_failures() const {
    for (const std::string& f : failures_)
      std::printf("FAILED run %s\n", f.c_str());
    for (const std::string& f : check_failures_)
      std::printf("FAILED check: %s\n", f.c_str());
  }

 private:
  /// Check `out`, the outcome of input `i` of `wl`, against `against`
  /// (empty: all of `wl`'s own expected outputs) and count it as one
  /// attempted run.
  bool check(const Workload& wl, std::size_t i, const RunOutcome& out,
             const std::vector<Against>& against) {
    std::string why = out.failure;
    if (against.empty() && why.empty()) why = mismatch(wl.name(), i, out, {});
    for (const Against& a : against)
      if (why.empty()) why = mismatch(a.workload, i, out, a.fields);
    return record(wl.name(), wl.inputs()[i], why);
  }

  /// First difference between `out` and the expected outputs of input `i`
  /// of `against`, "" when equal. With `fields` non-empty only those
  /// outputs are compared.
  [[nodiscard]] std::string mismatch(
      const std::string& against, std::size_t i, const RunOutcome& out,
      const std::vector<std::string>& fields) const {
    const Outputs& exp = expected_.at(against).at(i);
    if (fields.empty()) return diff_outputs(exp, out.outputs);
    for (const std::string& f : fields)
      if (output(out.outputs, f) != output(exp, f))
        return f + " = " + std::to_string(output(out.outputs, f)) +
               ", expected " + std::to_string(output(exp, f)) + " from " +
               against;
    return "";
  }

  /// Count one attempted run; a non-empty `why` makes it a failed one.
  bool record(const std::string& workload, const std::string& input,
              const std::string& why) {
    ++attempted_;
    if (why.empty()) return true;
    ++failed_;
    if (failures_.size() < kMaxLoggedFailures)
      failures_.push_back(workload + "/" + input + ": " + why);
    return false;
  }

  RunOutcome guarded_run(Workload& wl, std::size_t i) {
    try {
      return wl.run(i, run_id_++);
    } catch (const std::exception& e) {
      RunOutcome out;
      out.failure = std::string("threw: ") + e.what();
      return out;
    }
  }

  void fix_expected(const Workload& wl, const std::vector<RunOutcome>& first) {
    std::vector<Outputs> exp;
    const bool from_ref = ref_ != nullptr && args_.seed == ref_->seed;
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (!from_ref) {
        exp.push_back(first[i].outputs);
        continue;
      }
      const auto it = ref_->table.find(
          reference_key(wl.name(), args_.tiny, wl.inputs()[i]));
      exp.push_back(it == ref_->table.end() ? Outputs{} : it->second);
    }
    // Self-check: a wrong expected value must surface as failed runs.
    if (args_.corrupt_reference && !exp.empty() && !exp[0].empty())
      exp[0][0].second += 1;
    expected_[wl.name()] = std::move(exp);
  }

  const Args& args_;
  const ReferenceFile* ref_;
  std::map<std::string, std::vector<Outputs>> expected_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint32_t run_id_ = 1;
  std::vector<std::string> failures_;
  std::vector<std::string> check_failures_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count or derivation, printed only
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void print_result(const Bench& bench, const HostInfo& host,
                  const std::vector<Metric>& metrics) {
  print_metrics(metrics);
  std::printf("failed_ratio %llu/%llu = %.6f\n",
              static_cast<unsigned long long>(bench.failed()),
              static_cast<unsigned long long>(bench.attempted()),
              bench.attempted() == 0
                  ? 0.0
                  : static_cast<double>(bench.failed()) /
                        static_cast<double>(bench.attempted()));
  bench.print_failures();
  // The host goes on the line just above the result, whose keys are fixed.
  std::printf("host %s\n", host_json(host).c_str());
  rw::json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.key("correct").value(bench.correct());
  w.key("attempted").value(bench.attempted());
  w.key("failed").value(bench.failed());
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

std::string count_note(std::size_t n) {
  return "(n=" + std::to_string(n) + " runs)";
}

void check_threads(Bench& bench, const HostInfo& host) {
  const unsigned peak = peak_threads();
  std::printf("threads: peak %u, nproc %u\n", peak, host.nproc);
  if (peak > host.nproc)
    bench.fail_check("peak thread count " + std::to_string(peak) +
                     " exceeds nproc " + std::to_string(host.nproc));
}

// ------------------------------------------------ untraced run

/// Set `args.workload` up once more in a fresh process of this program
/// (--setup-only) and return that set-up's seconds, timed from just before
/// the spawn; negative if the child failed.
double cold_setup(const Args& args) {
  std::vector<std::string> words = {
      "perfbench", "--setup-only", "--workload", args.workload,
      "--seed", std::to_string(args.seed), "--reference", args.reference,
      "--started-ns"};
  words.emplace_back();
  if (args.tiny) words.emplace_back("--tiny");
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  words[9] = std::to_string(steady_ns());
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; rc == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;)
    out.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  if (rc != 0) return -1;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return -1;
  const std::size_t at = out.rfind("setup_s ");
  return at == std::string::npos ? -1 : std::strtod(out.c_str() + at + 8,
                                                    nullptr);
}

/// Each input's fastest run. `run_ms` holds whole passes over the
/// `inputs` inputs in order, so sample k is a run of input k % inputs.
std::vector<double> fastest_per_input(const std::vector<double>& run_ms,
                                      std::size_t inputs) {
  std::vector<double> best(inputs, INFINITY);
  for (std::size_t k = 0; k < run_ms.size(); ++k)
    best[k % inputs] = std::min(best[k % inputs], run_ms[k]);
  return best;
}

void untraced_run(const Args& args, Bench& bench, const HostInfo& host) {
  Bench::Setup s = bench.set_up(args.workload, started_at(args));
  std::vector<double> setups = {s.seconds};
  Bench::Timed t;
  for (std::size_t slice = 0; slice <= kColdSetups; ++slice) {
    if (slice > 0) {
      const double x = cold_setup(args);
      if (x < 0)
        bench.fail_check("set-up in a fresh process failed");
      else
        setups.push_back(x);
    }
    // At least ten samples beyond the closed loop's 90th percentile.
    const std::size_t min_runs =
        slice == kColdSetups ? 100 - std::min<std::size_t>(t.run_ms.size(), 100)
                             : 0;
    t.append(bench.measure(*s.wl, args.seconds / (kColdSetups + 1),
                           min_runs));
  }
  const std::size_t n = t.run_ms.size();
  const double run_total_s =
      std::accumulate(t.run_ms.begin(), t.run_ms.end(), 0.0) / 1e3;

  // The closed loop as it ran. A shared host's slow spells move these
  // from one run of the benchmark to the next, so they are printed only.
  std::printf("closed loop, not gated:\n");
  print_metrics({
      {"runs_per_s", static_cast<double>(t.ok_runs) / t.elapsed_s, "1/s",
       count_note(n)},
      {"run_ms_p50", quantile(t.run_ms, 0.5), "ms", count_note(n)},
      {"run_ms_p90", quantile(t.run_ms, 0.9), "ms",
       count_note(n) + " " + std::to_string(n / 10) + " beyond p90"},
  });
  if (t.events > 0)
    std::printf("  events_per_s %.1f ev/s over %zu runs (%llu events in "
                "%.3f s of run time)\n",
                static_cast<double>(t.events) / run_total_s, n,
                static_cast<unsigned long long>(t.events), run_total_s);
  std::printf("set-ups (s):");
  for (const double x : setups) std::printf(" %.6f", x);
  std::printf("\n");
  check_threads(bench, host);

  // The gated metrics: each input's fastest run, and the median set-up,
  // scaled from this run's host speed to the reference host's.
  const std::size_t inputs = s.wl->inputs().size();
  const std::vector<double> best = fastest_per_input(t.run_ms, inputs);
  const double best_runs_per_s =
      static_cast<double>(inputs) * 1e3 /
      std::accumulate(best.begin(), best.end(), 0.0);
  const double setup = quantile(setups, 0.5);
  // The fastest runs are scaled by the fastest probe, the median set-up
  // by the median probe.
  const double probe_best =
      *std::min_element(t.probe_ms.begin(), t.probe_ms.end());
  const double probe_median = quantile(t.probe_ms, 0.5);
  const double scale = kProbeReferenceMs / probe_best;
  const double setup_scale = kProbeReferenceMs / probe_median;
  const std::string best_note = "(fastest of " + std::to_string(n / inputs) +
                                " runs of each of " + std::to_string(inputs) +
                                " inputs)";
  const std::string setup_note = "(median of " +
                                 std::to_string(setups.size()) +
                                 " set-ups, each in its own process)";
  std::printf("host-speed probe: fastest %.6f ms, median %.6f ms of %zu, "
              "reference %.3f ms; scales %.6f and %.6f (set-up). "
              "Unscaled:\n",
              probe_best, probe_median, t.probe_ms.size(), kProbeReferenceMs,
              scale, setup_scale);
  print_metrics({
      {"best_runs_per_s", best_runs_per_s, "1/s", best_note},
      {"best_run_ms_p50", quantile(best, 0.5), "ms", best_note},
      {"best_run_ms_p90", quantile(best, 0.9), "ms", best_note},
      {"setup_s", setup, "s", setup_note},
  });
  const std::vector<Metric> m = {
      {"norm_runs_per_s", best_runs_per_s / scale, "1/s", best_note},
      {"norm_run_ms_p50", quantile(best, 0.5) * scale, "ms", best_note},
      {"norm_run_ms_p90", quantile(best, 0.9) * scale, "ms", best_note},
      {"setup_s", setup * setup_scale, "s", setup_note},
      {"peak_rss_mb", peak_rss_mb(), "MB", "(whole process)"},
  };
  std::printf("scaled, gated:\n");
  print_result(bench, host, m);
}

// ------------------------------------------------ traced run

/// Span self times keyed "<root name>|<span name>", one entry per span;
/// "<root name>|*" holds the roots' whole durations.
using SpanSamples = std::map<std::string, std::vector<std::int64_t>>;

SpanSamples samples_by_root(const SpanRecorder& rec) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = rec.self_times();
  std::vector<std::int32_t> root(spans.size());
  SpanSamples out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent < 0
                  ? static_cast<std::int32_t>(i)
                  : root[static_cast<std::size_t>(spans[i].parent)];
    const Span& r = spans[static_cast<std::size_t>(root[i])];
    out[r.name + "|" + spans[i].name].push_back(self[i]);
    if (spans[i].parent < 0)
      out[r.name + "|*"].push_back(spans[i].duration_ns());
  }
  return out;
}

void traced_run(const Args& args, Bench& bench, const HostInfo& host) {
  // The untraced twin of the selected workload, for the tracing overhead.
  Bench::Setup base = bench.set_up(args.workload, Clock::now());
  const Bench::Timed untraced = bench.measure(*base.wl, args.seconds * 0.2);
  base.wl.reset();

  SpanRecorder rec;
  set_recorder(&rec);
  std::map<std::string, Bench::Timed> traced;
  for (const std::string& name : workload_names()) {
    Bench::Setup s = bench.set_up(name, Clock::now());
    traced[name] = bench.measure(*s.wl, args.seconds * 0.1);
  }

  // Observer twins: vp_bare's inputs with one observer each, a pass of
  // each in turn with a pass of bare runs, so drift hits all four alike.
  // Attaching an observer alone must leave the bare results untouched and
  // reproduce what that observer saw in vp_observed.
  struct Twin {
    std::unique_ptr<Workload> wl;
    std::vector<Bench::Against> against;
  };
  const auto twin = [&](const char* name, Observers obs,
                        std::vector<Bench::Against> against) {
    return Twin{make_observer_twin(name, args.seed, args.tiny, obs),
                std::move(against)};
  };
  const std::vector<std::string> both = {"makespan_ps", "events"};
  Twin twins[] = {
      twin("obs.bare", {}, {{"vp_bare", both}}),
      twin("obs.trace", {true, false, false, false},
           {{"vp_bare", both}, {"vp_observed", {"trace_events"}}}),
      twin("obs.recorder", {false, true, false, false},
           {{"vp_bare", both},
            {"vp_observed", {"fingerprint", "recorder_events"}}}),
      twin("obs.perf_session", {false, false, true, false},
           {{"vp_bare", {"makespan_ps"}}, {"vp_observed", {"events"}}}),
  };
  const Clock::time_point twin_start = Clock::now();
  do {
    for (Twin& tw : twins) bench.measure(*tw.wl, 0, 0, tw.against);
  } while (seconds_since(twin_start) < args.seconds * 0.16);
  const std::vector<std::string> vp_names = twins[0].wl->inputs();

  // Sequential-engine twin of tiled_par: same outputs, one thread.
  const auto seq_twin = make_sequential_twin(args.seed, args.tiny);
  bench.measure(*seq_twin, args.seconds * 0.08, 0, {{"tiled_par", {}}});
  const std::vector<std::string> tiled_names = seq_twin->inputs();
  set_recorder(nullptr);

  if (!rec.well_nested())
    bench.fail_check("spans do not nest inside their parents");
  if (!args.spans.empty() && !rec.write(args.spans))
    bench.fail_check("cannot write spans to " + args.spans);

  const SpanSamples sp = samples_by_root(rec);
  const auto med = [&](const std::string& root, const std::string& name) {
    const auto it = sp.find(root + "|" + name);
    return it == sp.end() ? 0.0 : median_ms(it->second);
  };
  const auto sum_outputs = [&](const std::string& wl, const std::string& f) {
    std::uint64_t s = 0;
    for (const Outputs& o : bench.expected(wl)) s += output(o, f);
    return s;
  };

  std::vector<Metric> m;
  const auto add = [&m](std::string name, double v, const char* unit,
                        std::string note = "") {
    m.push_back({std::move(name), v, unit, std::move(note)});
  };

  // sim: Platform::run self time per vp_bare input.
  double run_ms_sum = 0;
  double build_ms = 0;
  double spawn_ms = 0;
  for (const std::string& in : vp_names) {
    const double r = med("vp_bare/" + in, "sim.run");
    run_ms_sum += r;
    build_ms += med("vp_bare/" + in, "sim.platform_build");
    spawn_ms += med("vp_bare/" + in, "perf.spawn");
    add("sim.run_ms." + in, r, "ms", "(median self time, vp_bare)");
  }
  const double vp_events = static_cast<double>(sum_outputs("vp_bare", "events"));
  const double n_vp = static_cast<double>(vp_names.size());
  add("sim.ns_per_event", run_ms_sum * 1e6 / vp_events, "ns",
      "(sum of medians / events)");
  add("sim.platform_build_ms", build_ms / n_vp, "ms", "(per call)");
  add("perf.spawn_ms", spawn_ms / n_vp, "ms", "(per call)");

  // Observers on vp_observed, summed over the programs.
  double attach = 0, report = 0, exports = 0;
  std::map<std::string, double> obs_extra;
  for (const std::string& in : vp_names) {
    attach += med("vp_observed/" + in, "perf.session_attach");
    report += med("vp_observed/" + in, "perf.report");
    exports += med("vp_observed/" + in, "perf.export");
    const double bare = med("obs.bare/" + in, "*");
    for (const char* o : {"trace", "recorder", "perf_session"})
      obs_extra[o] += med(std::string("obs.") + o + "/" + in, "*") - bare;
  }
  add("perf.session_attach_ms", attach, "ms", "(sum over programs)");
  add("perf.report_ms", report, "ms", "(sum over programs)");
  add("perf.export_ms", exports, "ms", "(sum over programs)");
  for (const auto& [o, v] : obs_extra)
    add("obs." + o + "_ms", v, "ms", "(alone minus bare, sum over programs)");

  // sim.parallel on tiled_par.
  double par = 0, seq = 0;
  for (const std::string& in : tiled_names) {
    par += med("tiled_par/" + in, "sim.parallel.run");
    seq += med("sim.parallel.seq_twin/" + in, "sim.parallel.run");
  }
  const std::uint64_t epochs = sum_outputs("tiled_par", "epochs");
  add("sim.parallel.run_ms", par / static_cast<double>(tiled_names.size()),
      "ms", "(per run)");
  add("sim.parallel.us_per_epoch",
      par * 1e3 / static_cast<double>(std::max<std::uint64_t>(epochs, 1)),
      "us");
  add("sim.parallel.par_over_seq", par / seq, "ratio",
      "(kParallel / kSequential run time)");

  // fuzz on fuzz_oracle.
  add("fuzz.generate_ms", med("fuzz.generate", "fuzz.generate"), "ms",
      "(per case)");
  for (std::size_t f = 0; f < rw::fuzz::kNumFamilies; ++f) {
    const std::string fam =
        rw::fuzz::family_name(static_cast<rw::fuzz::Family>(f));
    add("fuzz.run_case_ms." + fam, med("fuzz_oracle/" + fam, "fuzz.run_case"),
        "ms", "(median per case)");
  }

  // Exact counts: one pass over each workload's inputs.
  const auto count = [&](std::string name, std::uint64_t v) {
    add(std::move(name), static_cast<double>(v), "count", "(exact)");
  };
  count("sim.events", sum_outputs("vp_bare", "events"));
  count("sim.makespan_ps", sum_outputs("vp_bare", "makespan_ps"));
  count("sim.trace_events", sum_outputs("vp_observed", "trace_events"));
  count("perf.daemon_events", sum_outputs("vp_observed", "daemon_events"));
  count("pmu.busy_cycles", sum_outputs("vp_observed", "pmu_busy_cycles"));
  count("pmu.stall_cycles", sum_outputs("vp_observed", "pmu_stall_cycles"));
  count("pmu.shared_accesses",
        sum_outputs("vp_observed", "pmu_shared_accesses"));
  count("pmu.fabric_wait_ps", sum_outputs("vp_observed", "pmu_fabric_wait_ps"));
  count("sim.parallel.epochs", epochs);
  add("sim.parallel.events_per_epoch",
      static_cast<double>(sum_outputs("tiled_par", "events")) /
          static_cast<double>(std::max<std::uint64_t>(epochs, 1)),
      "count", "(exact)");
  count("sim.parallel.cross_posts", sum_outputs("tiled_par", "cross_posts"));
  count("fuzz.sub_runs", sum_outputs("fuzz_oracle", "sub_runs"));
  count("fuzz.coverage_cells", sum_outputs("fuzz_oracle", "coverage_cells"));
  count("fuzz.violations", sum_outputs("fuzz_oracle", "violations"));

  // Tracing overhead on the selected workload.
  const double p50_untraced = quantile(untraced.run_ms, 0.5);
  const double p50_traced = quantile(traced[args.workload].run_ms, 0.5);
  add("trace.overhead_ratio", p50_traced / p50_untraced, "ratio",
      "(traced / untraced run_ms_p50 of " + args.workload + ")");
  std::printf("tracing overhead on %s: run_ms_p50 %.4f ms traced vs %.4f ms "
              "untraced (%zu / %zu runs), %zu spans\n",
              args.workload.c_str(), p50_traced, p50_untraced,
              traced[args.workload].run_ms.size(), untraced.run_ms.size(),
              rec.spans().size());
  check_threads(bench, host);
  add("host.peak_threads", peak_threads(), "count");
  print_result(bench, host, m);
}

// ------------------------------------------------ reference

int write_reference(const Args& args) {
  ReferenceFile ref;
  ref.seed = kDefaultSeed;
  for (const bool tiny : {false, true}) {
    for (const std::string& name : workload_names()) {
      auto wl = make_workload(name, ref.seed, tiny);
      for (std::size_t i = 0; i < wl->inputs().size(); ++i) {
        const RunOutcome out = wl->run(i, 0);
        if (!out.failure.empty()) {
          std::fprintf(stderr, "%s/%s: %s\n", name.c_str(),
                       wl->inputs()[i].c_str(), out.failure.c_str());
          return 1;
        }
        ref.table[reference_key(name, tiny, wl->inputs()[i])] = out.outputs;
      }
    }
  }
  const rw::Status st = save_reference(args.write_reference, ref);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.error().to_string().c_str());
    return 1;
  }
  std::printf("wrote %zu reference entries to %s\n", ref.table.size(),
              args.write_reference.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--tiny] "
                         "[--corrupt-reference] [--reference PATH] "
                         "[--spans PATH] [--started-ns NS] | --setup-only "
                         "... | --write-reference PATH\n");
    return 2;
  }
  if (!args.write_reference.empty()) return write_reference(args);
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const auto ref = load_reference(args.reference);
  if (!ref.ok()) {
    std::fprintf(stderr, "%s\n", ref.error().to_string().c_str());
    return 2;
  }

  Bench bench(args, &ref.value());
  if (args.setup_only) {
    const Bench::Setup s = bench.set_up(args.workload, started_at(args));
    std::printf("setup_s %.9f\n", s.seconds);
    return bench.correct() ? 0 : 1;
  }

  const HostInfo host = host_info();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? 1 : 0);
  if (args.trace)
    traced_run(args, bench, host);
  else
    untraced_run(args, bench, host);
  std::fflush(stdout);
  return 0;
}
