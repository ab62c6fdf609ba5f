#!/usr/bin/env python3
"""Steadiness report for the CEAFF benchmark.

    python3 ceaffbench/steady.py --runs 10                 # run, then report
    python3 ceaffbench/steady.py --runs 10 --report-only   # report saved runs
    python3 ceaffbench/steady.py --runs 10 --tag b --against a

Runs the benchmark N times per workload (seeds seed0 .. seed0+N-1, run
length from BENCHMARK.json), saves each run's result line under
.bench_build/ceaffbench/steady/<tag>/, and prints for every end-to-end
metric the median, quartiles, min/max and the spread (Q3 - Q1) / median
against the metric's bound: "steady" below a third of the bound, "ok"
below the bound, "NOISY" above it. setup_s is checked like the others.
With --against, it also prints how far each median moved from the other
set's median, in the metric's worse direction, against the bound.
Run from the repository root. Exits non-zero if any run failed or any
checked spread or median move exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STORE = ROOT / ".bench_build" / "ceaffbench" / "steady"


def run_one(workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["exit_code"] = done.returncode
    return result


def load(tag, workload, runs, seed0, trace):
    out = []
    for seed in range(seed0, seed0 + runs):
        f = STORE / tag / f"{workload}-t{trace}-s{seed}.json"
        if f.is_file():
            out.append(json.loads(f.read_text()))
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tag", default="a", help="name of this set of runs")
    ap.add_argument("--against", help="tag of an earlier set to compare medians with")
    ap.add_argument("--report-only", action="store_true")
    a = ap.parse_args()
    workloads = a.workload or [w["name"] for w in SPEC["workloads"]]

    if not a.report_only:
        for w in workloads:
            for seed in range(a.seed0, a.seed0 + a.runs):
                r = run_one(w, seed, a.trace)
                f = STORE / a.tag / f"{w}-t{a.trace}-s{seed}.json"
                f.parent.mkdir(parents=True, exist_ok=True)
                f.write_text(json.dumps(r) + "\n")
                print(f"{w} seed {seed}: exit {r['exit_code']}, failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)

    specs = {m["name"]: m for m in SPEC["end_to_end"]} if a.trace == 0 else \
        {m["name"]: dict(m, bound=None) for m in SPEC["per_layer"]}
    bad = False
    for w in workloads:
        rs = load(a.tag, w, a.runs, a.seed0, a.trace)
        old = load(a.against, w, a.runs, a.seed0, a.trace) if a.against else []
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        broken = sum(1 for r in rs if r["exit_code"] != 0 or not r["correct"])
        bad |= failed > 0 or broken > 0 or len(rs) < a.runs
        print(f"\n{w}: {len(rs)} runs, {failed} of {attempted} passes failed, {broken} runs not correct")
        print(f"  {'metric':24} {'unit':9} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11}"
              f" {'spread':>7} {'bound':>6}  verdict")
        for name, m in specs.items():
            xs = [r["metrics"][name]["value"] for r in rs if name in r.get("metrics", {})]
            if not xs:
                print(f"  {name:24} missing")
                bad = True
                continue
            med = statistics.median(xs)
            q1, q3 = quartiles(xs)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            if bound is None:
                verdict = "-"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "ok"
            else:
                verdict, bad = "NOISY", True
            line = (f"  {name:24} {m['unit']:9} {med:11.5g} {q1:11.5g} {q3:11.5g} {min(xs):11.5g}"
                    f" {max(xs):11.5g} {spread:7.2%} {bound if bound is not None else '-':>6}  {verdict}")
            ys = [r["metrics"][name]["value"] for r in old if name in r.get("metrics", {})]
            if ys and bound is not None:
                base = statistics.median(ys)
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                ok = worse <= bound
                bad |= not ok
                line += f"  vs {a.against}: {worse:+.2%} worse ({'ok' if ok else 'REGRESSED'})"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
