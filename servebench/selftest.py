#!/usr/bin/env python3
"""Self-test of the serve-path benchmark.

    python3 servebench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
makes one small untraced run and two small traced runs, each SECONDS
seconds long on seed SEED, and checks that

- every run passes its parity checks, with no failed operation;
- the exact work counters repeat bit for bit between the traced runs;
- the traced parts of a commit sum to its latency within the reported
  remainder, which stays under 5% of the latency;
- every metric BENCHMARK.json names is printed, with its unit.

Exits 0 when every check holds; prints each failed check otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 2
PARTS = ["driver_wait", "admit", "queue", "run", "publish"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s exited %d: %s" % (workload, out.returncode,
                                                 out.stderr[-2000:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    def names_and_units(result, wanted, label):
        for m in wanted:
            got = result["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  "%s prints %s in %s" % (label, m["name"], m["unit"]))

    for wl in bench["workloads"]:
        name = wl["name"]
        _, plain = run(name, SEED, SECONDS, 0)
        check(plain["correct"] and plain["failed"] == 0,
              "%s untraced run passes parity" % name)
        names_and_units(plain, bench["end_to_end"], name + " --trace 0")
        reports = []
        for _ in range(2):
            report, traced = run(name, SEED, SECONDS, 1)
            check(traced["correct"] and traced["failed"] == 0,
                  "%s traced run passes parity" % name)
            names_and_units(traced, bench["per_layer"], name + " --trace 1")
            b = report["breakdown_ms"]
            attributed = sum(b[p] for p in PARTS)
            check(abs(b["total"] - attributed - b["remainder"]) < 1e-6
                  and abs(b["remainder"]) <= 0.05 * b["total"],
                  "%s parts %.4f ms + remainder %.4f ms = commit %.4f ms"
                  % (name, attributed, b["remainder"], b["total"]))
            check(abs(b["run"] - b["run.phases"] - b["run.residual"]) < 1e-6,
                  "%s run = phases + residual" % name)
            print("      %s: %s" % (name, report["reason"]))
            reports.append(report)
        check(reports[0]["exact"] == reports[1]["exact"],
              "%s exact counters repeat: %s" % (name, reports[0]["exact"]))
    if problems:
        print("%d check(s) failed" % len(problems))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
