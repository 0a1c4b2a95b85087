import csv
import dataclasses
import math
from pathlib import Path

import pytest

from pdeseries import cli, parse_expression as pe
from pdeseries.cli import main
from helpers import poly_close


EX1 = """kind = evolution
b.1 = -0.5
c = 1
i = 2
k = 1
h = x
"""

EX3 = """kind = evolution
a.4 = -2
c = 1
i = 2
k = 1
h = sin(x)
"""

BALL = """kind = ball
a2 = 1
V0 = sin(x)
"""

FLOW = """kind = flow
nu = 0.1
curl_u0 = (cos(y)*cos(z), sin(x-y-z), exp(x+y+z))
curl_f = (t*cos(x), exp(t), t*z*sin(x))
phi = t/r
ref = (2, 0, 0, 0)
p0 = 5
"""

RESONANT = """kind = evolution
a.1 = 1
c = 1
i = 2
k = 1
h = exp(x)
"""


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestSolveCommand:
    def test_example1_table_and_closed_form(self, write, capsys):
        code = main(["solve", write("ex1.prob", EX1), "--order", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "w[0] = x" in out
        assert "w[1] = i*x" in out
        assert "w[2] = -2*x" in out
        assert "geometric" in out
        assert "(x) / (1 + t)" in out

    def test_example3_verify(self, write, capsys):
        code = main(["solve", write("ex3.prob", EX3), "--order", "6", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exponential" in out
        assert "exp(-t)*sin(x)" in out.replace(" - t", "-t")
        assert "residual" in out

    def test_zero_datum(self, write, capsys):
        code = main(["solve", write("z.prob", "kind = evolution\nh = 0\n"), "--order", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "w[0] = 0" in out

    def test_resonance_exit_code(self, write, capsys):
        code = main(["solve", write("r.prob", RESONANT)])
        err = capsys.readouterr().err
        assert code == 1
        assert "resonance" in err
        assert "step 1" in err

    def test_verify_gate_fails_on_tight_tolerance(self, write):
        code = main(
            ["solve", write("ex1.prob", EX1), "--verify", "--tolerance", "1e-12"]
        )
        assert code == 1

    def test_verify_fails_on_wrong_initial_datum(self, monkeypatch, capsys):
        # Doubling the closed form's base still solves the (linear) heat
        # equation, so only the check at t = 0 can reject it.
        detect = cli.detect_closed_form

        def doubled(series):
            closed = detect(series)
            assert closed.kind == "exponential"
            return dataclasses.replace(closed, base=closed.base.scale(2))

        monkeypatch.setattr(cli, "detect_closed_form", doubled)
        prob = Path(__file__).resolve().parent.parent / "problems/heat_product_modes.prob"
        code = main(["solve", str(prob), "--verify"])
        failures = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("verify FAILED")
        ]
        assert code == 1
        assert len(failures) == 1
        assert failures[0].startswith("verify FAILED: initial-datum defect")

    def test_sample_csv(self, write, tmp_path, capsys):
        csv_path = str(tmp_path / "out.csv")
        code = main(
            [
                "solve", write("ex1.prob", EX1), "--order", "8",
                "--sample", "x:-1:1:5,t:0.05:0.2:4", "--csv", csv_path,
            ]
        )
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "z", "t", "value_re", "value_im"]
        assert len(rows) == 1 + 5 * 4
        x, y, z, t, re_, im = (float(v) for v in rows[1])
        assert re_ == pytest.approx(x / (1 + t), abs=1e-10)
        assert im == pytest.approx(0.0, abs=1e-10)

    def test_ball_output(self, write, capsys):
        code = main(["solve", write("ball.prob", BALL), "--order", "6", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "/ r" in out

    def test_unknown_key_reports_line(self, write, capsys):
        code = main(["solve", write("bad.prob", EX1 + "boing = 1\n")])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 7" in err and "boing" in err

    def test_flow_file_rejected(self, write, capsys):
        code = main(["solve", write("f.prob", FLOW)])
        assert code == 2


class TestGridSpecValidation:
    """Bad --sample / --quadrature input exits 2 before anything is solved."""

    @pytest.mark.parametrize(
        "spec",
        [
            "x:0:1",            # three fields
            "x:0:1:2.5",        # non-integer count
            "x:0:1:0",          # empty axis
            "x:0:1:3,x:2:3:3",  # repeated variable
            "r:0:1:3",          # unknown variable
            "x:0:nan:3",        # non-finite bound
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "flow"])
    def test_bad_spec(self, command, spec, write, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        if command == "solve":
            argv = ["solve", write("ex1.prob", EX1), "--verify", "--sample", spec]
        else:
            argv = ["flow", write("flow.prob", FLOW), "--quadrature", spec]
        code = main(argv + ["--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not list(tmp_path.glob("out*.csv"))

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("solve", ["--order", "-1"]),
            ("solve", ["--tolerance", "nan"]),
            ("solve", ["--tolerance", "0"]),
            ("solve", ["--tolerance", "inf"]),
            ("flow", ["--ntau", "0"]),
            ("flow", ["--nspace", "0"]),
            ("flow", ["--nspace", "-4"]),
            ("flow", ["--box", "0"]),
            ("flow", ["--box", "-3"]),
            ("flow", ["--box", "inf"]),
            ("flow", ["--horizon", "0"]),
            ("flow", ["--horizon", "nan"]),
        ],
        ids=lambda value: "=".join(value).lstrip("-") if isinstance(value, list) else value,
    )
    def test_bad_option(self, command, extra, write, tmp_path, capsys):
        # Numbers that would solve into a traceback, a verify gate that
        # cannot fail, or silently zero/nan/flipped velocities.
        csv_path = tmp_path / "out.csv"
        if command == "solve":
            argv = ["solve", write("ex1.prob", EX1), "--verify", "--sample"]
        else:
            argv = ["flow", write("flow.prob", FLOW), "--quadrature"]
        code = main(argv + ["x:0:1:3", "--csv", str(csv_path)] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not list(tmp_path.glob("out*.csv"))

    @pytest.mark.parametrize(
        "command, option, text",
        [("solve", "--sample", EX1), ("flow", "--quadrature", FLOW)],
        ids=["solve", "flow"],
    )
    def test_missing_csv(self, command, option, text, write, capsys):
        code = main([command, write("in.prob", text), option, "x:0:1:3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {option} requires --csv PATH\n"
        assert captured.out == ""


class TestFlowCommand:
    def test_psi_output(self, write, capsys):
        code = main(["flow", write("flow.prob", FLOW)])
        out = capsys.readouterr().out
        assert code == 0
        assert "psi_x" in out and "psi_y" in out and "psi_z" in out
        assert "curl_psi_x" in out
        # Displayed components re-parse to the solver's own atoms
        for line in out.splitlines():
            if line.startswith("psi_x = "):
                shown = pe(line.split(" = ", 1)[1])
                expected = pe(
                    "exp(-0.2*t)*cos(y)*cos(z)"
                    " + 100*(-1 + 0.1*t + exp(-0.1*t))*cos(x)"
                )
                assert poly_close(shown, expected, 1e-9)

    def test_pressure_query(self, write, capsys):
        code = main(["flow", write("flow.prob", FLOW), "--pressure", "1,1,1,0"])
        out = capsys.readouterr().out
        assert code == 0
        value = 5 + 0.5 - 1 / math.sqrt(3)
        assert f"{value:.12g}" in out

    def test_pressure_singularity(self, write, capsys):
        code = main(["flow", write("flow.prob", FLOW), "--pressure", "0,0,0,0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "singular" in err

    def test_zero_data_file(self, write, capsys):
        text = "kind = flow\nnu = 0.5\ncurl_u0 = (0, 0, 0)\n"
        code = main(["flow", write("zero.prob", text)])
        out = capsys.readouterr().out
        assert code == 0
        assert "psi_x = 0" in out
        assert "u_x = 0" in out

    def test_quadrature_csv(self, write, tmp_path, capsys):
        text = "kind = flow\nnu = 0.1\ncurl_u0 = (0, 0, sin(x))\n"
        base = str(tmp_path / "vel.csv")
        code = main(
            [
                "flow", write("q.prob", text),
                "--quadrature", "x:0.4:0.8:2,t:0:0:1".replace("t:0:0:1", "t:0.0:0.0:1"),
                "--csv", base, "--nspace", "32", "--ntau", "24",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        with open(str(tmp_path / "vel_uy.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "z", "t", "value_re", "value_im"]
        x = float(rows[1][0])
        got = float(rows[1][4])
        assert got == pytest.approx(-math.cos(x), abs=5e-2)

    def test_literal_mode_flag(self, write, tmp_path):
        text = "kind = flow\nnu = 0.1\ncurl_u0 = (0, 0, sin(x))\n"
        base = str(tmp_path / "lit.csv")
        code = main(
            [
                "flow", write("q.prob", text),
                "--quadrature", "x:0.5:0.5:1,t:0.0:0.0:1",
                "--csv", base, "--mode", "paper_literal",
                "--nspace", "16", "--ntau", "12",
            ]
        )
        assert code == 0
        with open(str(tmp_path / "lit_uy.csv")) as fh:
            rows = list(csv.reader(fh))
        # literal kernel flips the sign relative to the standard mode
        assert float(rows[1][4]) > 0

    def test_literal_mode_writes_unsigned_zeros(self, write, tmp_path):
        # With no phi the literal kernel leaves value_im as -0.0; the CSV
        # must spell every zero the same way in both modes.
        text = "kind = flow\nnu = 0.1\ncurl_u0 = (0, sin(z), sin(x))\n"
        base = str(tmp_path / "lit.csv")
        code = main(
            [
                "flow", write("q.prob", text),
                "--quadrature", "x:-0.5:0.5:2,y:0.2:0.2:1,z:0.3:0.3:1,t:0.3:0.3:1",
                "--csv", base, "--mode", "paper_literal",
                "--nspace", "8", "--ntau", "4",
            ]
        )
        assert code == 0
        for suffix in ("ux", "uy", "uz"):
            with open(str(tmp_path / f"lit_{suffix}.csv")) as fh:
                fields = [field for row in csv.reader(fh) for field in row]
            assert "-0" not in fields

    def test_solve_file_rejected(self, write):
        code = main(["flow", write("e.prob", EX1)])
        assert code == 2


class TestRoundTrip:
    def test_series_tables_reparse(self, write, capsys):
        main(["solve", write("ex3.prob", EX3), "--order", "8"])
        out = capsys.readouterr().out
        expected = {
            0: pe("sin(x)"), 1: pe("i*sin(x)"), 2: pe("-sin(x)"),
            3: pe("-i*sin(x)"), 4: pe("sin(x)"),
        }
        seen = 0
        for line in out.splitlines():
            if line.startswith("w[") and "=" in line:
                idx = int(line[2 : line.index("]")])
                shown = pe(line.split(" = ", 1)[1])
                if idx in expected:
                    assert poly_close(shown, expected[idx], 1e-12)
                    seen += 1
        assert seen == len(expected)

    def test_missing_file(self, capsys):
        code = main(["solve", "/nonexistent/path.prob"])
        assert code == 2
