#!/usr/bin/env python3
"""Same-code agreement report for the perfbench benchmark.

Collect a set of runs (one result file per workload and seed):

    python3 perfbench/agree.py collect runs-a --seeds 1-10 [--workloads cold-ssb,remote-k2]

Compare two sets of runs of the same code:

    python3 perfbench/agree.py compare runs-a runs-b

Every run is collected with `--trace 0` at BENCHMARK.json's run_seconds.
For each workload and end-to-end metric the report prints each side's
median, quartiles and interquartile range as a share of the median, and
whether the two sets agree: the medians differ, in either direction, by
no more than the metric's bound from BENCHMARK.json, and each side's
interquartile range is within that bound. It also compares the share of failed operations, which
must be identical. Results carry a host fingerprint (nproc,
RAYON_NUM_THREADS, build profile, rustc, git revision); the report refuses
to compare sets whose fingerprints differ. Run from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def collect(out_dir, args):
    unknown = [a for a in args[::2] if a not in ("--seeds", "--workloads")]
    if unknown or len(args) % 2:
        sys.exit(f"collect takes only --seeds and --workloads, got {' '.join(args)}")
    bench = load_benchmark()
    seeds = parse_seeds(flag(args, "--seeds", "1-10"))
    names = [w["name"] for w in bench["workloads"]]
    workloads = flag(args, "--workloads", ",".join(names)).split(",")
    seconds = str(bench["run_seconds"])
    os.makedirs(out_dir, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", seconds, "--trace", "0",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            path = os.path.join(out_dir, f"{workload}-{seed}.out")
            with open(path, "w") as f:
                f.write(done.stdout)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            print(f"{workload} seed {seed}: exit {done.returncode} {last[:160]}")
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-2000:])


def read_set(directory):
    """{workload: [(fingerprint, result)]} from one set of result files."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        lines = open(os.path.join(directory, name)).read().strip().splitlines()
        fingerprint = next(
            (l[len("fingerprint "):] for l in lines if l.startswith("fingerprint ")), None)
        detail = next(
            (json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), None)
        if not lines or fingerprint is None or detail is None:
            sys.exit(f"{directory}/{name}: not a perfbench result")
        result = json.loads(lines[-1])
        runs.setdefault(detail["workload"], []).append((fingerprint, result))
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(dir_a, dir_b):
    bench = load_benchmark()
    a, b = read_set(dir_a), read_set(dir_b)
    prints = {fp for runs in list(a.values()) + list(b.values()) for fp, _ in runs}
    if len(prints) != 1:
        print("refusing to compare: the runs come from different hosts or builds:")
        for fp in sorted(prints):
            print("  " + fp)
        return 2
    print("fingerprint " + prints.pop())
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a or workload not in b:
            print(f"{workload}: missing from one set")
            ok = False
            continue
        share = {}
        for side, runs in (("A", a[workload]), ("B", b[workload])):
            attempted = sum(r["attempted"] for _, r in runs)
            failed = sum(r["failed"] for _, r in runs)
            share[side] = {(r["failed"], r["attempted"]) for _, r in runs}
            print(f"{workload} {side}: {len(runs)} runs, failed {failed} of {attempted}")
        shares = {f / t for s in share.values() for f, t in s}
        same_share = len({round(x, 12) for x in shares}) == 1
        ok &= same_share
        print(f"{workload}: failed share identical in every run: {same_share}")
        print(f"  {'metric':<14} {'side':<4} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = {}
            for side, runs in (("A", a[workload]), ("B", b[workload])):
                values = [r["metrics"][name]["value"] for _, r in runs]
                sides[side] = summary(values)
                med, q1, q3, iqr = sides[side]
                print(f"  {name:<14} {side:<4} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.3f}")
            med_a, med_b = sides["A"][0], sides["B"][0]
            apart = abs(med_b - med_a) / med_a
            agree = apart <= bound
            steady = all(sides[s][3] <= bound for s in sides)
            ok &= agree and steady
            print(f"  {name:<14} medians {apart:.3f} apart (bound {bound}): "
                  f"{'agree' if agree else 'DISAGREE'}; spread within bound: {steady}")
    print("agreement: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    if len(args) >= 2 and args[0] == "collect":
        collect(args[1], args[2:])
        return 0
    if len(args) == 3 and args[0] == "compare":
        return compare(args[1], args[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
