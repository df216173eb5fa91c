#!/usr/bin/env python3
"""Build and run the repository benchmark.

Single run (what BENCHMARK.json's command runs), from the repository root:

    python3 perfbench/run.py --workload city_10k_saturated --seed 1 --seconds 30 --trace 0

builds `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the binary and passes its output and exit code
through. The last line of output is the JSON result.

Repeat mode runs one workload k times with seeds base .. base+k-1 and
prints, for every metric, the median, the quartiles, the quartile spread
(q3 - q1) / median and the largest relative spread (max - min) / median:

    python3 perfbench/run.py --workload paper_topologies --seconds 30 --trace 0 --repeat 10 --seed 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_topologies", "city_10k_saturated", "city_100k_light")


def commit_id():
    """The checked-out commit, read from .git without leaving ROOT."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref[:12]
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()[:12]
    except OSError:
        return "unknown"


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def bench_args(binary, a, seed):
    return [
        binary, "--workload", a.workload, "--seed", str(seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--commit", commit_id(), "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]


def repeat(binary, a):
    values = {}
    units = {}
    failures = 0
    for k in range(a.repeat):
        seed = a.seed + k
        proc = subprocess.run(bench_args(binary, a, seed), cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failures += 1
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            continue
        for name, mt in result["metrics"].items():
            values.setdefault(name, []).append(mt["value"])
            units[name] = mt["unit"]
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"\n{a.workload}, {a.repeat} runs, trace {a.trace}, {a.seconds} s each, {failures} failed")
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9} unit")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        iqr = (q3 - q1) / abs(med) if med else 0.0
        rng = (max(v) - min(v)) / abs(med) if med else 0.0
        print(f"{name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {iqr:>8.4f} {rng:>9.4f} {units[name]}")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="run k times over consecutive seeds and summarise")
    a = p.parse_args()
    binary = build()
    if a.repeat > 0:
        sys.exit(repeat(binary, a))
    sys.stdout.flush()
    sys.exit(subprocess.run(bench_args(binary, a, a.seed), cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
