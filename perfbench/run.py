#!/usr/bin/env python3
"""beepmis end-to-end benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload giant|sweep|recovery --seed N \
        --seconds S --trace 0|1 [--smoke] [--pinned FILE]

Run from the repository root. The driver (perfbench_driver, built here from
the library sources into $CARGO_TARGET_DIR or .bench_build) does the
measuring; this script checks that the driver emitted exactly the metrics BENCHMARK.json
declares for the mode, checks its digest against the pinned one for the
pinned seed, and prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. The driver's full record
(digest, percentile sample counts, host context, errors) goes to stderr as
one "perfbench detail:" line. Exit status is 0 iff everything verified.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "digests.json"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (first time only) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench_driver"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench_driver"


def pinned_digest(path, seed, smoke, workload):
    """The pinned digest for (seed, size, workload), or None if unpinned."""
    pins = json.loads(pathlib.Path(path).read_text())
    if seed != pins["seed"]:
        return None
    return pins["smoke" if smoke else "full"].get(workload)


def check_manifest(metrics, trace):
    """Why `metrics` is not exactly the manifest's end_to_end (trace 0) or
    per_layer (trace 1) set, in its units, or None if it is."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(n for n in set(declared) & set(emitted)
                       if declared[n] != emitted[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"undeclared {extra}, wrong unit {wrong}")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["giant", "sweep", "recovery"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, for the benchmark's own tests")
    ap.add_argument("--pinned", default=str(PINNED),
                    help="digest pin file (default: perfbench/digests.json)")
    args = ap.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        driver = build(build_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: driver exited {proc.returncode} without a result")
        return 3
    try:
        detail = json.loads(lines[-1])
    except ValueError:
        log(f"perfbench: unreadable driver output: {lines[-1]!r}")
        return 3
    log("perfbench detail: " + json.dumps(detail, sort_keys=True))
    host = detail["host"]
    log(f"host: nproc={host['nproc']} loadavg1={host['loadavg1']:.2f} "
        f"steal_share={host['steal_share']:.4f}")

    failed = detail["failed"]
    problem = check_manifest(detail["metrics"], args.trace)
    if problem:
        log(f"perfbench: {problem}")
        failed += 1
    pinned = pinned_digest(args.pinned, args.seed, args.smoke, args.workload)
    if pinned is not None and pinned != detail["digest"]:
        log(f"perfbench: digest {detail['digest']} != pinned {pinned}")
        failed += 1
    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": failed, "metrics": detail["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
