#!/usr/bin/env python3
"""Steadiness evidence for the benchmark: repeated runs and their spread.

    python3 perfbench/steady.py run --runs 10 --first-seed 101 --out A.json
    python3 perfbench/steady.py compare A.json B.json [--markdown OUT.md]

`run` makes --runs untraced runs of every workload in BENCHMARK.json, each
with its own seed, and records every end-to-end value. `compare` prints, per
workload and metric, each set's median and quartiles, the spread
(Q3 − Q1) / median — quartiles as statistics.quantiles(values, n=4) gives
them — and, for every pair of sets, the change of the later median against
the earlier one, and checks both against the metric's bound in
BENCHMARK.json. Run from the repository root.
"""

import argparse
import itertools
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_set(args):
    workloads = [w["name"] for w in BENCH["workloads"]]
    values = {w: {} for w in workloads}
    hosts = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed} failed: {result}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            detail = next(json.loads(line.split(": ", 1)[1])
                          for line in out.stderr.splitlines()
                          if line.startswith("perfbench detail: "))
            hosts[w].append(detail["host"])
            print(w, seed, {k: round(v["value"], 4)
                            for k, v in result["metrics"].items()},
                  detail["host"], flush=True)
    pathlib.Path(args.out).write_text(json.dumps(
        {"first_seed": args.first_seed, "runs": args.runs, "values": values,
         "host": hosts},
        indent=1) + "\n")


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}


def compare(args):
    sets = [json.loads(pathlib.Path(p).read_text()) for p in args.sets]
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    pairs = list(itertools.combinations(range(len(sets)), 2))
    rows, ok = [], True
    for w, metrics in sets[0]["values"].items():
        for name in metrics:
            m = bounds[name]
            s = [summary(st["values"][w][name]) for st in sets]
            sign = 1 if m["better"] == "lower" else -1
            worse = [sign * (s[j]["median"] - s[i]["median"]) / s[i]["median"]
                     for i, j in pairs]
            row_ok = (all(x["spread"] <= m["bound"] for x in s)
                      and all(x <= m["bound"] for x in worse))
            ok &= row_ok
            rows.append((w, name, m["bound"], s, worse, row_ok))
    head = ("| workload | metric | bound | " +
            " | ".join(f"set {i + 1} median [Q1, Q3] (spread)"
                       for i in range(len(sets))) + " | " +
            " | ".join(f"{j + 1} vs {i + 1} worse by" for i, j in pairs) +
            " | ok |")
    lines = [head, "|" + "---|" * (head.count("|") - 1)]
    for w, name, bound, s, worse, row_ok in rows:
        cells = [f"{x['median']:.6g} [{x['q1']:.6g}, {x['q3']:.6g}] "
                 f"({x['spread']:.3f})" for x in s]
        cells += [f"{x:+.3f}" for x in worse]
        lines.append(f"| {w} | {name} | {bound} | " + " | ".join(cells) +
                     f" | {'yes' if row_ok else 'NO'} |")
    text = "\n".join(lines)
    print(text)
    if args.markdown:
        pathlib.Path(args.markdown).write_text(text + "\n")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=101)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("sets", nargs="+")
    c.add_argument("--markdown")
    args = ap.parse_args()
    if args.cmd == "run":
        run_set(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
