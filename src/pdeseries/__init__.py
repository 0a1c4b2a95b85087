"""Analytical power-series solutions of evolution, heat and linearized
Navier-Stokes equations, with closed-form detection and independent
finite-difference verification."""

from .algebra import (
    Atom,
    ExpPoly,
    VectorField,
    curl,
    divergence,
    eigenvalue,
    gradient,
    heat_semigroup,
    laplacian,
)
from .diffusion import (
    BallProblem,
    HeatProblem,
    ball_series,
    heat_series,
    temperature_display,
)
from .errors import (
    AtomBudgetError,
    ExpressionSyntaxError,
    NonEigenAtomError,
    PdeSeriesError,
    PotentialSingularityError,
    ProblemFileError,
    ResonanceError,
    ZeroEigenvalueError,
)
from .evolution import (
    EvolutionProblem,
    PowersTable,
    apply_implicit_inverse,
    recursion_step,
    solve_series,
)
from .flow import (
    FlowProblem,
    FlowSolution,
    QuadratureSettings,
    RadialPotential,
    duhamel_particular,
    inverse_laplacian_quadrature,
    inverse_laplacian_symbolic,
    solve_flow,
)
from .problemfile import ProblemFile, load_problem, load_problem_file
from .residuals import (
    GridSpec,
    ResidualReport,
    fd_residual_evolution,
    fd_residual_heat,
    stencil,
)
from .series import ClosedForm, SeriesSolution, detect_closed_form
from .textform import parse_expression, to_display

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AtomBudgetError",
    "BallProblem",
    "ClosedForm",
    "EvolutionProblem",
    "ExpPoly",
    "ExpressionSyntaxError",
    "FlowProblem",
    "FlowSolution",
    "GridSpec",
    "HeatProblem",
    "NonEigenAtomError",
    "PdeSeriesError",
    "PotentialSingularityError",
    "PowersTable",
    "ProblemFile",
    "ProblemFileError",
    "QuadratureSettings",
    "RadialPotential",
    "ResidualReport",
    "ResonanceError",
    "SeriesSolution",
    "VectorField",
    "ZeroEigenvalueError",
    "apply_implicit_inverse",
    "ball_series",
    "curl",
    "detect_closed_form",
    "divergence",
    "duhamel_particular",
    "eigenvalue",
    "fd_residual_evolution",
    "fd_residual_heat",
    "gradient",
    "heat_semigroup",
    "heat_series",
    "inverse_laplacian_quadrature",
    "inverse_laplacian_symbolic",
    "laplacian",
    "load_problem",
    "load_problem_file",
    "parse_expression",
    "recursion_step",
    "solve_flow",
    "solve_series",
    "stencil",
    "temperature_display",
    "to_display",
]
