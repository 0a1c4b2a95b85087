"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pdeseries import cli  # noqa: E402
from pdeseries.textform import parse_expression, to_display  # noqa: E402


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    inner = spans.traced(rec, "inner", lambda: None)

    def body():
        inner()
        inner()

    spans.traced(rec, "outer", body)()
    # outer spans [0, 10] around inner [1, 3] and [4, 7].
    assert rec.self_times() == {"inner": 5.0, "outer": 5.0}
    assert list(rec.parent) == [-1, 0, 0]


def test_paused_recorder_records_nothing():
    rec = spans.Recorder()
    fn = spans.traced(rec, "fn", lambda: 1)
    with rec.paused():
        assert fn() == 1
    assert len(rec.start) == 0


def test_install_wraps_cli_bindings_and_restores_them():
    before = cli.solve_series
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert cli.solve_series is not before
        assert cli.solve_series.__wrapped__ is before
    finally:
        restore()
    assert cli.solve_series is before


def test_benchmark_json_lists_the_reported_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == run.PER_LAYER


def _cubic_output(tmp_path, order):
    wl = workloads.build("cubic", 0, ROOT, tmp_path)
    argv = wl.calls[0][:-1] + [str(order)]
    outcome = workloads.run_cli(cli.main, argv)
    assert outcome.status == 0
    return wl, outcome.stdout


def test_cubic_oracle_accepts_real_output_and_rejects_scaled_w3(tmp_path):
    order = 4
    wl, stdout = _cubic_output(tmp_path, order)
    assert workloads.check_cubic_deep(wl, stdout, parse_expression, order) < 1e-4

    lines = stdout.splitlines()
    index = next(k for k, line in enumerate(lines) if line.startswith("w[3] = "))
    w3 = parse_expression(lines[index][len("w[3] = "):])
    lines[index] = f"w[3] = {to_display(w3.scale(1 + 1e-3))}"
    with pytest.raises(workloads.CheckFailed):
        workloads.check_cubic_deep(wl, "\n".join(lines), parse_expression, order)


def test_flow_comparator_rejects_sign_flipped_component(tmp_path):
    problem = tmp_path / "bounded.prob"
    problem.write_text(workloads.FLOW_QUAD_PROBLEM, encoding="utf-8")
    base = str(tmp_path / "q.csv")
    outcome = workloads.run_cli(cli.main, [
        "flow", str(problem), "--quadrature",
        "x:-0.5:0.5:2,y:0.2:0.2:1,z:0.3:0.3:1,t:0.3:0.3:1", "--csv", base,
    ])
    assert outcome.status == 0
    assert workloads.check_flow_quadrature(outcome.stdout, base, parse_expression) < 0.05

    uy = tmp_path / "q_uy.csv"
    rows = uy.read_text(encoding="utf-8").splitlines()
    flipped = [rows[0]]
    for row in rows[1:]:
        *point, re_part, im_part = row.split(",")
        flipped.append(",".join(point + [repr(-float(re_part)), repr(-float(im_part))]))
    uy.write_text("\n".join(flipped) + "\n", encoding="utf-8")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_flow_quadrature(outcome.stdout, base, parse_expression)


def test_problems_checks_accept_one_pass(tmp_path):
    wl = workloads.build("problems", 3, ROOT, tmp_path)
    outcomes = [workloads.run_cli(cli.main, argv) for argv in wl.calls]
    workloads.check(wl, outcomes, parse_expression)
    assert 0 < wl.max_rel_err < 1
