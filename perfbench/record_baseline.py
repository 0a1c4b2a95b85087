#!/usr/bin/env python3
"""Record one untraced and one traced run of every workload as a JSON file.

    python3 perfbench/record_baseline.py --seed 1 --seconds 25 --out perfbench/baseline.json

Run from the root of a git checkout. Besides every metric of both runs
the file holds the machine and library versions, the git commit, the
load model, the tracing overhead (traced minus untraced median operation
time, raw and as a calibrated share) and the share of the traced operation time spent in the layers
each workload is meant to stress.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

LOAD_MODEL = (
    "closed loop, one client, one thread: each workload runs in its own "
    "process and each operation calls pdeseries.cli.main in-process once "
    "the previous operation has ended"
)
# Layers each workload is meant to stress, with the least share of the
# traced operation time they held when the benchmark was defined.
STRESSED_LAYERS = {
    "cubic": (("algebra.mul.self_s", "algebra.normalize.self_s"), 0.6),
    "flow-quadrature": (("flow.quadrature.self_s", "algebra.grid_eval.self_s"), 0.9),
}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Figures printed as "name = value unit" but not part of the JSON line.
    result["reported"] = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        value, _, unit = rest.rpartition(" ")
        if sep and name not in result["metrics"] and not name.startswith("workload"):
            result["reported"][name] = {"value": json.loads(value), "unit": unit}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=ROOT).stdout.strip() or None
    report = {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load_model": LOAD_MODEL,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        plain = run_once(name, args.seed, args.seconds, 0)
        traced = run_once(name, args.seed, args.seconds, 1)
        layers = traced["metrics"]
        row = {
            "why": entry["why"],
            "untraced": plain,
            "traced": traced,
            # Raw seconds follow the host's drift between the two runs;
            # the calibrated share does not.
            "tracing_overhead_s": layers["trace.op_s.p50"]["value"]
            - plain["reported"]["op_s.p50"]["value"],
            "tracing_overhead_share": layers["trace.op_cal.p50"]["value"]
            / plain["metrics"]["op_cal.p50"]["value"] - 1,
        }
        if name in STRESSED_LAYERS:
            names, least = STRESSED_LAYERS[name]
            # Self times partition each operation's root span.
            total = sum(v["value"] for k, v in layers.items() if k.endswith(".self_s"))
            share = sum(layers[n]["value"] for n in names) / total
            row["stressed_layers"] = {"layers": list(names), "share": share, "least": least}
        report["workloads"][name] = row
        print(f"{name}: done", file=sys.stderr)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
