import pytest

from pdeseries import (
    BallProblem,
    EvolutionProblem,
    FlowProblem,
    HeatProblem,
    ProblemFileError,
    RadialPotential,
    load_problem,
    parse_expression as pe,
)
from helpers import assert_poly_close


EVOLUTION_TEXT = """
# the regularized long wave example
kind = evolution
b.1 = -0.5
c = 1
i = 2
k = 1
h = x
"""

FLOW_TEXT = """
kind = flow
nu = 0.1
curl_u0 = (cos(y)*cos(z), sin(x-y-z), exp(x+y+z))
curl_f = (t*cos(x), exp(t), t*z*sin(x))
phi = t/r
ref = (2, 0, 0, 0)
p0 = 5
"""


class TestEvolutionFiles:
    def test_parses(self):
        pf = load_problem(EVOLUTION_TEXT)
        assert pf.kind == "evolution"
        prob = pf.problem
        assert isinstance(prob, EvolutionProblem)
        assert prob.b == {1: -0.5}
        assert prob.c == 1.0
        assert prob.mixed_order == 2
        assert_poly_close(prob.h, pe("x"))

    def test_coefficient_orders(self):
        pf = load_problem("kind = evolution\na.0 = 1\na.3 = -2\nh = sin(x)\n")
        assert pf.problem.a == {0: 1.0, 3: -2.0}

    def test_missing_datum(self):
        with pytest.raises(ProblemFileError):
            load_problem("kind = evolution\nc = 1\n")

    def test_datum_must_be_x_only(self):
        with pytest.raises(ProblemFileError):
            load_problem("kind = evolution\nh = sin(y)\n")


class TestHeatAndBallFiles:
    def test_heat(self):
        pf = load_problem("kind = heat\na2 = 0.5\nu0 = sin(x)*cos(y)\n")
        assert isinstance(pf.problem, HeatProblem)
        assert pf.problem.diffusivity == 0.5

    def test_ball_with_temperature(self):
        pf = load_problem("kind = ball\na2 = 1\nT0 = 1\nR = 1\nhbc = 2\n")
        prob = pf.problem
        assert isinstance(prob, BallProblem)
        assert_poly_close(prob.v0, pe("x"))
        assert prob.radius == 1.0 and prob.boundary_coeff == 2.0

    def test_ball_with_v0(self):
        pf = load_problem("kind = ball\na2 = 1\nV0 = sin(2*x)\n")
        assert_poly_close(pf.problem.v0, pe("sin(2*x)"))

    def test_ball_requires_exactly_one_datum(self):
        with pytest.raises(ProblemFileError):
            load_problem("kind = ball\na2 = 1\n")
        with pytest.raises(ProblemFileError):
            load_problem("kind = ball\na2 = 1\nT0 = 1\nV0 = x\n")


class TestFlowFiles:
    def test_parses(self):
        pf = load_problem(FLOW_TEXT)
        prob = pf.problem
        assert isinstance(prob, FlowProblem)
        assert prob.viscosity == 0.1
        assert isinstance(prob.potential, RadialPotential)
        assert prob.reference == (2.0, 0.0, 0.0, 0.0)
        assert prob.p0 == 5.0
        assert_poly_close(prob.curl_f.cy, pe("exp(t)"))

    def test_velocity_input(self):
        pf = load_problem("kind = flow\nnu = 0.2\nu0 = (sin(y), 0, 0)\n")
        assert_poly_close(pf.problem.curl_u0.cz, pe("-cos(y)"))

    def test_expression_potential(self):
        pf = load_problem("kind = flow\nnu = 0.2\ncurl_u0 = (0, 0, sin(x))\nphi = x*y*z\n")
        assert_poly_close(pf.problem.potential, pe("x*y*z"))

    def test_u0_and_curl_conflict(self):
        with pytest.raises(ProblemFileError):
            load_problem(
                "kind = flow\nnu = 0.2\nu0 = (0, 0, 0)\ncurl_u0 = (0, 0, sin(x))\n"
            )

    def test_vector_arity(self):
        with pytest.raises(ProblemFileError):
            load_problem("kind = flow\nnu = 0.2\ncurl_u0 = (sin(x), 0)\n")


class TestFileLevelErrors:
    def test_unknown_kind(self):
        with pytest.raises(ProblemFileError) as err:
            load_problem("kind = wave\n")
        assert err.value.line == 1

    def test_kind_must_come_first(self):
        with pytest.raises(ProblemFileError):
            load_problem("a2 = 1\nkind = heat\nu0 = x\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(ProblemFileError) as err:
            load_problem("kind = heat\na2 = 1\nu0 = sin(x)\nbogus = 3\n")
        assert err.value.line == 4
        assert "bogus" in str(err.value)

    def test_forcing_key_rejected(self):
        # The evolution recursion is stated for zero forcing; an f entry
        # is not part of the schema.
        with pytest.raises(ProblemFileError):
            load_problem("kind = evolution\nh = x\nf = sin(x)\n")

    def test_bad_expression_reports_line(self):
        with pytest.raises(ProblemFileError) as err:
            load_problem("kind = heat\na2 = 1\nu0 = sin(x\n")
        assert err.value.line == 3

    def test_duplicate_key(self):
        with pytest.raises(ProblemFileError):
            load_problem("kind = heat\na2 = 1\na2 = 2\nu0 = x\n")

    def test_empty_file(self):
        with pytest.raises(ProblemFileError):
            load_problem("\n# nothing here\n")

    def test_missing_equals(self):
        with pytest.raises(ProblemFileError) as err:
            load_problem("kind = heat\na2 1\nu0 = x\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("kind = evolution\na.1 = -1\ni = inf\nh = sin(x)\n", 3,
                         id="i-inf"),
            pytest.param("kind = evolution\na.1 = -1\ni = 2.5\nh = sin(x)\n", 3,
                         id="i-fraction"),
            pytest.param("kind = evolution\na.1 = -1\nk = 1.5\nh = sin(x)\n", 3,
                         id="k-fraction"),
            pytest.param("kind = evolution\na.1 = nan\nh = sin(x)\n", 2, id="a1-nan"),
            pytest.param("kind = heat\na2 = nan\nu0 = sin(x)\n", 2, id="a2-nan"),
            pytest.param("kind = heat\na2 = 1\nu0 = exp(1000)\n", 3, id="exp-overflow"),
            pytest.param("kind = heat\na2 = 1\nu0 = 1e400*x\n", 3, id="inf-literal"),
            pytest.param("kind = ball\na2 = 1\nV0 = sin(x)\nR = inf\n", 4, id="R-inf"),
            pytest.param("kind = flow\nnu = nan\ncurl_u0 = (0, 0, sin(x))\n", 2,
                         id="nu-nan"),
            pytest.param("kind = flow\nnu = 1\ncurl_u0 = (0, 0, exp(800)*exp(800))\n",
                         3, id="product-overflow"),
            pytest.param("kind = heat\nu0 = sin(x)\na2 = -1\n", 3, id="a2-negative"),
            pytest.param("kind = flow\ncurl_u0 = (0, 0, sin(x))\nnu = 0\n", 3,
                         id="nu-zero"),
            pytest.param("kind = evolution\nh = sin(x)\nk = -2\n", 3, id="k-negative"),
            pytest.param("kind = evolution\ni = 0\nh = sin(x)\n", 2, id="i-zero"),
        ],
    )
    def test_bad_number_reports_line(self, text, line):
        with pytest.raises(ProblemFileError) as err:
            load_problem(text)
        assert err.value.line == line
