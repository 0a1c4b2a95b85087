#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pdeseries pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One process runs one workload
(``problems``, ``cubic`` or ``flow-quadrature``, see workloads.py) as a
closed loop with a single client on a single thread: each operation
calls ``pdeseries.cli.main`` in-process and starts when the previous one
has ended. The loop runs until the timed operations add up to S seconds;
every output is checked outside the timed region, and a failed check or
a nonzero exit status counts the operation as failed.

After each operation, outside the timed region, calibration.py times a
fixed kernel; ``op_cal.p50`` is the median of operation time over kernel
time, which cancels the host's speed drift. ``setup_s`` is the median of
SETUP_SAMPLES fresh-process setups, each rescaled by the kernel's time
in the same process to the speed at which it takes CAL_REFERENCE_S.
Raw wall times are printed too.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` spans.py wraps each library layer; the run reports
per-operation self times and work counts per layer instead and writes
the raw spans to .perfbench_out/. Each figure is printed as
``name = value unit``; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import os

# One thread per workload process: keep numpy's BLAS pools single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
# Traced runs leave their raw spans here, one .npz file per workload and seed.
SPANS_DIR = ROOT / ".perfbench_out"

# Setup as a user pays it: import the package and build the inputs in a
# fresh interpreter; prints its own elapsed seconds and then the
# calibration kernel's time in the same process.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pathlib import Path
import pdeseries.cli
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]), Path(sys.argv[6]))
elapsed = time.perf_counter() - start
import calibration
print(elapsed, calibration.measure())
"""
# setup_s is quoted at the host speed where the calibration kernel takes
# this long (an idle core of the 2-vCPU Xeon VM the benchmark was
# defined on), so that drift in host speed between runs cancels.
CAL_REFERENCE_S = 0.005

PER_LAYER = [
    ("algebra.mul.self_s", "s/op"),
    ("algebra.mul.calls", "count/op"),
    ("algebra.mul.pairs", "count/op"),
    ("algebra.normalize.self_s", "s/op"),
    ("algebra.normalize.atoms_in", "count/op"),
    ("algebra.normalize.atoms_out", "count/op"),
    ("algebra.diff.self_s", "s/op"),
    ("algebra.diff.calls", "count/op"),
    ("algebra.grid_eval.self_s", "s/op"),
    ("algebra.grid_eval.atom_points", "count/op"),
    ("algebra.evaluate.self_s", "s/op"),
    ("algebra.evaluate.calls", "count/op"),
    ("evolution.powers_entry.self_s", "s/op"),
    ("evolution.implicit_inverse.self_s", "s/op"),
    ("evolution.solve_series.self_s", "s/op"),
    ("evolution.atoms_last", "count"),
    ("series.partial_sum.self_s", "s/op"),
    ("series.detect_closed_form.self_s", "s/op"),
    ("diffusion.heat_series.self_s", "s/op"),
    ("diffusion.ball_series.self_s", "s/op"),
    ("flow.quadrature.self_s", "s/op"),
    ("flow.quadrature.points", "count/op"),
    ("flow.quadrature.kernel_terms", "count/op"),
    ("flow.solve_flow.self_s", "s/op"),
    ("flow.velocity_symbolic.self_s", "s/op"),
    ("residuals.fd.self_s", "s/op"),
    ("residuals.fd.u_calls", "count/op"),
    ("residuals.fd.points", "count/op"),
    ("textform.parse.self_s", "s/op"),
    ("textform.parse.calls", "count/op"),
    ("textform.display.self_s", "s/op"),
    ("textform.display.atoms", "count/op"),
    ("problemfile.load.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("oracle.max_rel_err", "ratio"),
    ("trace.spans", "count/op"),
    ("trace.op_s.p50", "s"),
    ("trace.op_cal.p50", "cal"),
]


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Median of SETUP_SAMPLES fresh-process setups: (seconds rescaled to
    CAL_REFERENCE_S, raw seconds)."""
    raw, scaled = [], []
    for k in range(SETUP_SAMPLES):
        probe_dir = workdir / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
             workload, str(seed), str(ROOT), str(probe_dir)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, cal = map(float, proc.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * CAL_REFERENCE_S / cal)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(scaled), statistics.median(raw)


def deciles(values):
    """(p10, p90) of the values, interpolated within their range."""
    if len(values) < 2:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[0], cuts[-1]


def cal_median(op_times, cal_times):
    return statistics.median(o / c for o, c in zip(op_times, cal_times))


def layer_metrics(rec, op_times, cal_times, max_rel_err):
    n_ops = len(op_times)
    per_op = {f"{name}.self_s": total / n_ops for name, total in rec.self_times().items()}
    per_op.update({name: total / n_ops for name, total in rec.counts.items()})
    per_op["trace.spans"] = len(rec.start) / n_ops
    values = {}
    for name, unit in PER_LAYER:
        if name == "trace.op_s.p50":
            value = statistics.median(op_times)
        elif name == "trace.op_cal.p50":
            value = cal_median(op_times, cal_times)
        elif name == "oracle.max_rel_err":
            value = max_rel_err
        elif unit == "count":
            value = rec.gauges.get(name, 0)
        else:
            value = per_op.get(name, 0.0)
        values[name] = (value, unit)
    return values


def run(args) -> int:
    if not (SRC / "pdeseries" / "cli.py").is_file():
        print(f"error: no pdeseries sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pdeseries.cli as cli
    from pdeseries.textform import parse_expression

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, workdir / "main")
        setup_s, setup_raw_s = (
            (None, None) if args.trace else measure_setup(args.workload, args.seed, workdir)
        )

        rec = restore = None
        if args.trace:
            import spans

            rec = spans.Recorder()
            restore = spans.install(rec)
        quiet = rec.paused if rec else contextlib.nullcontext

        times, cal_times, failed, first_error = [], [], 0, None
        while not times or sum(times) < args.seconds:
            gc.collect()
            start = time.perf_counter()
            outcomes = [workloads.run_cli(cli.main, argv) for argv in wl.calls]
            times.append(time.perf_counter() - start)
            with quiet():
                cal_times.append(calibration.measure())
                try:
                    workloads.check(wl, outcomes, parse_expression)
                except workloads.CheckFailed as err:
                    failed += 1
                    first_error = first_error or str(err)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if restore:
            restore()
        if wl.name == "cubic" and wl.reference_stdout is not None:
            try:
                wl.max_rel_err = workloads.check_cubic_deep(
                    wl, wl.reference_stdout, parse_expression
                )
            except workloads.CheckFailed as err:
                failed = len(times)
                first_error = first_error or str(err)
        if rec:
            SPANS_DIR.mkdir(exist_ok=True)
            rec.dump(SPANS_DIR / f"spans_{args.workload}_seed{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if first_error:
        print(f"check failed: {first_error}", file=sys.stderr)
    atoms = wl.params.pop("atoms", None)
    print(f"workload = {wl.name} seed = {wl.seed} params = {wl.params}")
    p10, p90 = deciles(times)
    # Reported without a bound: raw times follow the host's speed drift,
    # and the oracle error follows the seeded inputs (the checks'
    # tolerances gate it instead).
    reported = {
        "operations": (len(times), "count"),
        "failed_ratio": (failed / len(times), "ratio"),
        "op_s.min": (min(times), "s"),
        "op_s.p10": (p10, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (p90, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "cal_s.p50": (statistics.median(cal_times), "s"),
        "setup_raw_s": (setup_raw_s, "s"),
        "oracle.max_rel_err": (wl.max_rel_err, "ratio"),
    }
    if atoms:
        reported["cubic.atoms_per_step"] = (atoms, "count")
    if args.trace:
        metrics = layer_metrics(rec, times, cal_times, wl.max_rel_err)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_cal.p50": (cal_median(times, cal_times), "cal"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in (reported | metrics).items():
        if value is not None:
            print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
