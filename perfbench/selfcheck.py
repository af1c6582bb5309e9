#!/usr/bin/env python3
"""Self-check of the benchmark itself; takes a minute or two.

    python3 perfbench/selfcheck.py

Runs the tiny configuration (--tiny) of every workload, untraced on the
reference seed and on another seed, and traced once. Each must report
correct, no failed runs, and exactly the metrics BENCHMARK.json names.
Then it runs every workload against a deliberately corrupted reference
value (--corrupt-reference), which must be reported as failed runs, so
the output checker cannot pass vacuously. Exits non-zero on any miss.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["vp_bare", "vp_observed", "tiled_par", "fuzz_oracle",
             "fuzz_untiled"]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd),
                                                 proc.returncode,
                                                 proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(label, result, names, should_pass):
        found = []
        ok = result["correct"] and result["failed"] == 0
        if should_pass and not ok:
            found.append("%s: reported %d/%d failed runs"
                         % (label, result["failed"], result["attempted"]))
        if not should_pass and (ok or result["failed"] == 0):
            found.append("%s: corrupted reference was not reported" % label)
        if names is not None and set(result["metrics"]) != names:
            found.append("%s: metrics differ from BENCHMARK.json: %s"
                         % (label, sorted(set(result["metrics"]) ^ names)))
        print("%-40s %s (%d attempted, %d failed)"
              % (label, "PROBLEM" if found else "ok", result["attempted"],
                 result["failed"]))
        problems.extend(found)

    for w in WORKLOADS:
        expect(w + " reference seed", run(w, 1, 0), e2e, True)
        expect(w + " seed 7", run(w, 7, 0), e2e, True)
        expect(w + " corrupted reference", run(w, 1, 0, "--corrupt-reference"),
               None, False)
    expect("traced run", run("vp_bare", 1, 1), per_layer, True)

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
