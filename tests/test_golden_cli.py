"""Golden outputs of the command line on the bundled problem files.

Each case runs ``pdeseries.cli.main`` in-process and compares against the
reference files under ``tests/golden/``:

- stdout and stderr byte for byte, after the temporary output directory
  has been replaced by ``<tmp>``, and the exit code;
- every CSV it writes: the point columns byte for byte, the value columns
  to 1e-15 relative to the largest value magnitude in that file (complex
  division and exponentials may round differently in the last bit
  between Python scalars and numpy).

Regenerate the references with ``PYTHONPATH=src python
tests/test_golden_cli.py`` from the repository root, and only when an
output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from pdeseries.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = ROOT / "problems"
PLACEHOLDER = "<tmp>"
VALUE_RTOL = 1e-15

SOLVE_FILES = (
    "example1_rlw",
    "example2_transport",
    "example3_fourth_order",
    "example4_ball",
    "heat_product_modes",
)
QUADRATURE_SPEC = "x:-0.5:0.5:2,y:0.2:0.2:1,z:0.3:0.3:1,t:0.3:0.3:1"
# Flow inputs kept next to their references: one with no phi and no f,
# one with an expression potential, a force field and the literal kernel.
FLOW_FILES = {
    "flow_defaults": [],
    "flow_phi_force_literal": ["--mode", "paper_literal"],
}


def _cases():
    """name -> (argv with '{tmp}' for the output directory, CSV files written)."""
    cases = {}
    for stem in SOLVE_FILES:
        cases[f"solve_{stem}"] = (
            ["solve", str(PROBLEMS / f"{stem}.prob"), "--verify",
             "--sample", "x:-1:1:21,t:0.05:0.2:11", "--csv", f"{{tmp}}/{stem}.csv"],
            [f"{stem}.csv"],
        )
    flow = str(PROBLEMS / "example5_flow.prob")
    cases["flow_pressure"] = (["flow", flow, "--pressure", "1,1,1,0"], [])
    cases["flow_quadrature"] = (
        ["flow", flow, "--quadrature", QUADRATURE_SPEC, "--csv", "{tmp}/vel.csv",
         "--nspace", "8", "--ntau", "4"],
        ["vel_ux.csv", "vel_uy.csv", "vel_uz.csv"],
    )
    for stem, extra in FLOW_FILES.items():
        cases[stem] = (
            ["flow", str(GOLDEN / f"{stem}.prob"), "--pressure", "0.3,-0.2,0.7,0.4",
             "--quadrature", QUADRATURE_SPEC, "--csv", "{tmp}/vel.csv",
             "--nspace", "8", "--ntau", "4", *extra],
            ["vel_ux.csv", "vel_uy.csv", "vel_uz.csv"],
        )
    return cases


CASES = _cases()


def run_case(name, tmp: Path):
    """Exit code, placeholder stdout and stderr, and {file: text} of the
    CSVs written."""
    argv, outputs = CASES[name]
    argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue().replace(str(tmp), PLACEHOLDER)
    stderr = err.getvalue().replace(str(tmp), PLACEHOLDER)
    files = {f: (tmp / f).read_text(encoding="utf-8") for f in outputs}
    return code, stdout, stderr, files


def _csv_split(text):
    rows = [line.split(",") for line in text.splitlines()]
    header, body = rows[0], rows[1:]
    points = [row[:4] for row in body]
    values = [[float(v) for v in row[4:]] for row in body]
    return header, points, values


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name, tmp_path):
    code, stdout, stderr, files = run_case(name, tmp_path)
    exits = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exits[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert stderr == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
    for fname, text in files.items():
        want_header, want_points, want_values = _csv_split(
            (GOLDEN / f"{name}__{fname}").read_text(encoding="utf-8")
        )
        header, points, values = _csv_split(text)
        assert header == want_header
        assert points == want_points
        scale = max((abs(v) for row in want_values for v in row), default=0.0)
        for got_row, want_row in zip(values, want_values, strict=True):
            for got, want in zip(got_row, want_row, strict=True):
                assert abs(got - want) <= VALUE_RTOL * scale, (fname, got, want)


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, stderr, files = run_case(name, Path(tmp))
        exits[name] = code
        (GOLDEN / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        (GOLDEN / f"{name}.stderr").write_text(stderr, encoding="utf-8")
        for fname, text in files.items():
            (GOLDEN / f"{name}__{fname}").write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(exits, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _regenerate()
