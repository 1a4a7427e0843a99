#!/usr/bin/env python3
"""Steadiness of the benchmark: repeat runs, summarize, compare two sets.

Run one workload N times, one seed each, and print every metric's median,
quartiles and spread (quartile distance as a share of the median) beside the
metric's bound from BENCHMARK.json:

    python3 dgbench/steady.py run --workload serve_stream --runs 10 \
        [--seed0 1] [--seconds 10] [--trace 0] [--save set_a.json] [binary args]

Arguments it does not know (--threads, --lanes, --short) go to
every run unchanged.

Compare two saved sets (same workloads) against the bounds: each end-to-end
metric's spread must stay within its bound (setup_s excepted), the second
median may not be worse than the first by more than the bound, and the share
of failed operations must be identical:

    python3 dgbench/steady.py compare set_a.json set_b.json

Quartiles are Python's statistics.quantiles(values, n=4). The bounds in
BENCHMARK.json were set from these spreads (see dgbench/README.md).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0  # whole invocation, for the time budget
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def metric_specs(spec, trace):
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(workload, results, specs):
    print(f"{workload}: {len(results)} runs")
    print(f"  {'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name, m in specs.items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, spread = summarize(values)
        bound = m.get("bound")
        mark = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"  {name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{mark}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share per run: {sorted(shares)}")
    walls = [r["wall_s"] for r in results if "wall_s" in r]
    if walls:
        print(f"  wall time per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")


def cmd_run(a, extra):
    spec = load_spec()
    results = []
    for i in range(a.runs):
        results.append(run_once(a.workload, a.seed0 + i, a.seconds, a.trace, extra))
    print_table(a.workload, results, metric_specs(spec, a.trace))
    if a.save:
        saved = {}
        if pathlib.Path(a.save).exists():
            saved = json.loads(pathlib.Path(a.save).read_text())
        saved[a.workload] = results
        pathlib.Path(a.save).write_text(json.dumps(saved, indent=1))
    return 0


def cmd_compare(a):
    spec = load_spec()
    first = json.loads(pathlib.Path(a.first).read_text())
    second = json.loads(pathlib.Path(a.second).read_text())
    ok = True
    for workload in first:
        if workload not in second:
            continue
        print(workload)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in first[workload]]
            vb = [r["metrics"][name]["value"] for r in second[workload]]
            ma, _, _, sa = summarize(va)
            mb, _, _, sb = summarize(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bad = worse > bound or (name != "setup_s" and max(sa, sb) > bound)
            ok &= not bad
            print(f"  {name:20s} median {ma:12.6g} -> {mb:12.6g}  worse by {worse:+.4f}  "
                  f"spreads {sa:.4f} / {sb:.4f}  bound {bound}  {'FAIL' if bad else 'ok'}")
        share_a = {r["failed"] / r["attempted"] for r in first[workload]}
        share_b = {r["failed"] / r["attempted"] for r in second[workload]}
        same = share_a == share_b and len(share_a) == 1
        ok &= same
        print(f"  failed share {sorted(share_a)} / {sorted(share_b)}  {'ok' if same else 'FAIL'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--save")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    a, extra = ap.parse_known_args()
    if a.cmd == "run":
        return cmd_run(a, extra)
    if extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    return cmd_compare(a)


if __name__ == "__main__":
    sys.exit(main())
