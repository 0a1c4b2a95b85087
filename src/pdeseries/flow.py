"""Linearized Navier-Stokes pipeline in vorticity form.

Taking the curl of the momentum equation turns it into a forced heat
equation for the vorticity field w = curl(u):

    dw/dt - nu * Laplacian(w) = curl(f),    w(0) = curl(u0).

The solution splits into the homogeneous semigroup part (exact on
eigen-atoms) and a Duhamel particular part

    w_p(t) = integral_0^t exp(nu*(t-s)*Laplacian) curl(f)(s) ds,

which stays inside the atom algebra because each atom's time dependence
is polynomial times exponential. Velocity and pressure are recovered
through the inverse Laplacian:

    u = -curl(invLap(w)) + grad(phi),
    p(q) = p0 + phi_t(ref) - div(invLap(f))(ref)
              - phi_t(q)  + div(invLap(f))(q).

The inverse Laplacian has a symbolic mode (divide each eigen-atom by
its eigenvalue) and a heat-kernel quadrature mode for fields containing
harmonic atoms. The quadrature implements two kernels: the "standard"
heat-kernel identity -int_0^T exp(tau*Lap) dtau (which reproduces the
symbolic inverse as T grows) and a "paper_literal" variant with
exp(-|w-xi|^2/tau) and a plus sign, kept for faithfulness to the source
formula; the two differ in sign and scale. Both are evaluated
separably: the Gaussian kernel and every atom of the data factor into
1-D pieces, so a query point costs atoms * 3 * n_tau * n_space products
and no 3-D midpoint grid is built.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

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
from .errors import PotentialSingularityError, ZeroEigenvalueError

ZERO_EIG_TOL = 1e-12


# ---------------------------------------------------------------------
# Harmonic potential
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class RadialPotential:
    """The built-in harmonic potential scale * t / sqrt(x^2+y^2+z^2).

    Kept outside the atom algebra (inverse square roots have no finite
    atom expansion); gradient and time derivative are supplied in
    closed form. Singular at the origin.
    """

    scale: float = 1.0

    def _radius(self, x, y, z) -> float:
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0:
            raise PotentialSingularityError(
                "radial potential is singular at the origin"
            )
        return r

    def dt(self, point) -> float:
        x, y, z, _ = point
        return self.scale / self._radius(x, y, z)

    def grad(self, point):
        x, y, z, t = point
        r = self._radius(x, y, z)
        factor = -self.scale * t / r**3
        return (factor * x, factor * y, factor * z)

    def display(self) -> str:
        prefix = "" if self.scale == 1 else f"{self.scale}*"
        return f"{prefix}t/sqrt(x^2+y^2+z^2)"


Potential = ExpPoly | RadialPotential


# ---------------------------------------------------------------------
# Problem / solution containers
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class FlowProblem:
    """Data of the linearized incompressible flow problem.

    The curls of the initial velocity and of the body force are the
    primary inputs (the force itself never enters the vorticity
    equation). ``u0`` may be supplied instead of ``curl_u0``; it is then
    checked divergence-free and curled. ``f`` only feeds the pressure's
    div(invLap(f)) terms. Every input has a zero default: the zero
    potential adds no gradient and the zero force no pressure term.
    """

    viscosity: float
    curl_u0: VectorField = field(default_factory=VectorField.zero)
    curl_f: VectorField = field(default_factory=VectorField.zero)
    potential: Potential = field(default_factory=ExpPoly.zero)
    f: VectorField = field(default_factory=VectorField.zero)
    reference: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    p0: float = 0.0

    def __post_init__(self):
        if self.viscosity <= 0:
            raise ValueError("viscosity must be positive")
        for name in ("curl_u0", "curl_f", "f"):
            value = getattr(self, name)
            if not isinstance(value, VectorField):
                raise TypeError(
                    f"{name} must be a VectorField, not {type(value).__name__}"
                )
        if isinstance(self.potential, ExpPoly):
            if not laplacian(self.potential).is_zero():
                raise ValueError("potential must be harmonic")
        elif not isinstance(self.potential, RadialPotential):
            raise TypeError(
                "potential must be an ExpPoly or a RadialPotential, "
                f"not {type(self.potential).__name__}"
            )

    @staticmethod
    def from_velocity(
        viscosity: float,
        u0: VectorField,
        curl_f: VectorField = VectorField.zero(),
        potential: Potential = ExpPoly.zero(),
        f: VectorField = VectorField.zero(),
        reference=(0.0, 0.0, 0.0, 0.0),
        p0: float = 0.0,
    ) -> "FlowProblem":
        if not divergence(u0).is_zero():
            raise ValueError("initial velocity must be divergence-free")
        return FlowProblem(viscosity, curl(u0), curl_f, potential, f, reference, p0)


# ---------------------------------------------------------------------
# Vorticity: homogeneous semigroup + Duhamel particular part
# ---------------------------------------------------------------------


def _duhamel_atom(atom: Atom, viscosity: float) -> list[Atom]:
    """Closed form of integral_0^t e^{mu(t-s)} s^m e^{rho s} ds applied
    to one forcing atom, where mu = nu * (spatial eigenvalue)."""
    spatial = Atom(1.0 + 0j, atom.powers[:3] + (0,), atom.expo[:3] + (0j,))
    mu = viscosity * eigenvalue(spatial)
    m = atom.powers[3]
    rho = atom.expo[3]
    sigma = rho - mu
    out = []
    base_powers = atom.powers[:3]
    base_expo = atom.expo[:3]
    if abs(sigma) <= 1e-14:
        # integral_0^t s^m e^{mu(t-s)+rho s} ds = e^{mu t} t^{m+1}/(m+1)
        out.append(
            Atom(
                atom.coeff / (m + 1),
                base_powers + (m + 1,),
                base_expo + (mu,),
            )
        )
        return out
    # e^{rho t} * sum_j (-1)^j m!/(m-j)! t^{m-j} / sigma^{j+1}
    for j in range(m + 1):
        factor = (-1) ** j * math.factorial(m) / math.factorial(m - j)
        out.append(
            Atom(
                atom.coeff * factor / sigma ** (j + 1),
                base_powers + (m - j,),
                base_expo + (rho,),
            )
        )
    # boundary term at s = 0: -e^{mu t} (-1)^m m! / sigma^{m+1}
    out.append(
        Atom(
            -atom.coeff * (-1) ** m * math.factorial(m) / sigma ** (m + 1),
            base_powers + (0,),
            base_expo + (mu,),
        )
    )
    return out


def duhamel_particular(curl_f: VectorField, viscosity: float) -> VectorField:
    """Zero-initial-data solution of dw/dt - nu*Lap(w) = curl_f.

    Exact per atom: the spatial part must be an eigen-atom; the time
    dependence (polynomial times exponential, which every atom has) is
    integrated in closed form. Vanishes at t = 0.
    """

    def convolve(comp: ExpPoly) -> ExpPoly:
        out = []
        for atom in comp.atoms:
            out.extend(_duhamel_atom(atom, viscosity))
        return ExpPoly(out)

    return curl_f.map(convolve)


# ---------------------------------------------------------------------
# Inverse Laplacian
# ---------------------------------------------------------------------


def inverse_laplacian_symbolic(v: ExpPoly) -> ExpPoly:
    """Divide each eigen-atom by its eigenvalue; exact inverse.

    Raises ZeroEigenvalueError on harmonic atoms (constants, linear
    monomials) and NonEigenAtomError on everything else.
    """
    out = []
    for atom in v.atoms:
        lam2 = eigenvalue(atom)
        if abs(lam2) <= ZERO_EIG_TOL:
            from .textform import to_display

            raise ZeroEigenvalueError(
                to_display(ExpPoly([Atom(1.0 + 0j, atom.powers, atom.expo)]))
            )
        out.append(Atom(atom.coeff / lam2, atom.powers, atom.expo))
    return ExpPoly(out)


# Lower end of the tau integral; the geometric nodes start here.
TAU_MIN = 1e-4


@dataclass(frozen=True)
class QuadratureSettings:
    """Heat-kernel quadrature controls.

    n_space midpoints per axis of the box, n_tau geometric nodes of the
    time-like integral on (TAU_MIN, horizon]. The kernel and the atoms
    are separable, so a query point costs atoms * 3 * n_tau * n_space
    products, and no n_space^3 grid is built.
    The defaults are sized so the standard mode reproduces symbolic
    inverses of unit-scale eigenfunctions on [-pi, pi]^3 to about 2e-2.
    """

    box: tuple[float, float] = (-3 * math.pi, 3 * math.pi)
    horizon: float = 6.0
    n_space: int = 48
    n_tau: int = 32

    def __post_init__(self):
        for name in ("n_space", "n_tau"):
            count = getattr(self, name)
            if not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, not {count!r}")
        lo, hi = self.box
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"box must be finite with lo < hi, not {self.box!r}")
        if not (math.isfinite(self.horizon) and TAU_MIN < self.horizon):
            raise ValueError(f"need finite horizon > {TAU_MIN!r}, "
                             f"not {self.horizon!r}")


def inverse_laplacian_quadrature(
    v: ExpPoly,
    points,
    t: float = 0.0,
    settings: QuadratureSettings = QuadratureSettings(),
    mode: str = "standard",
):
    """Evaluate the inverse Laplacian of v at the given (x, y, z) points.

    mode "standard": -int_0^T int_box (4 pi tau)^{-3/2}
        exp(-|w-xi|^2 / (4 tau)) v(xi, t) dxi dtau, the truncated
        heat-kernel representation of the inverse Laplacian.
    mode "paper_literal": same structure with kernel exp(-|w-xi|^2/tau)
        and a plus sign.

    Each atom c x^a y^b z^c t^d exp(l.r) is a product of 1-D factors, and
    so is the kernel: per atom, the x^a exp(l_x x), y and z factors on the
    midpoint axis are contracted with the matching kernel factors of
    every tau node, and c t^d exp(l_t t) is one scalar. A query point
    costs atoms * 3 * n_tau * n_space products; no 3-D grid is built.
    The atom values are summed left to right in atom order, as grid_fn
    sums them.

    Returns a complex ndarray of shape (len(points),). Accuracy is
    reported by the caller's own comparisons, never enforced here.
    """
    if mode == "standard":
        spread, sign = 4.0, -1.0
    elif mode == "paper_literal":
        spread, sign = 1.0, 1.0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo, hi = settings.box
    h = (hi - lo) / settings.n_space
    axis = lo + (np.arange(settings.n_space) + 0.5) * h
    # (3, atoms, n_space): the 1-D spatial factors of every atom, and
    # (atoms,): the coefficient times the time factor at t.
    factors = np.empty((3, len(v.atoms), settings.n_space), dtype=complex)
    scalars = np.empty(len(v.atoms), dtype=complex)
    for i, atom in enumerate(v.atoms):
        for var in range(3):
            factors[var, i] = _axis_factor(atom, var, 1.0 + 0j, axis)
        scalars[i] = _axis_factor(atom, 3, atom.coeff, t)
    edges = TAU_MIN * (settings.horizon / TAU_MIN) ** (
        np.arange(settings.n_tau + 1) / settings.n_tau
    )
    tau = 0.5 * (edges[:-1] + edges[1:])
    weights = sign * np.diff(edges) * (4 * math.pi * tau) ** -1.5 * h**3
    out = np.empty(len(pts), dtype=complex)
    for idx, point in enumerate(pts):
        # (3, n_space, n_tau): the x, y and z kernel factors
        kernels = np.exp(
            -((axis[:, None] - point[:, None, None]) ** 2) / (spread * tau)
        )
        # (3, atoms, n_tau) axis sums; their product is the 3-D sum.
        sums = factors @ kernels
        per_atom = scalars * ((sums[0] * sums[1] * sums[2]) @ weights)
        total = 0j
        for value in per_atom.tolist():
            total += value
        out[idx] = total
    return out


def _axis_factor(atom: Atom, var: int, coeff: complex, values):
    """coeff * s^p * exp(l * s) at s = values, where s^p exp(l s) is the
    factor of atom in variable number var, evaluated through grid_fn."""
    powers = [0, 0, 0, 0]
    expo = [0j, 0j, 0j, 0j]
    args = [0.0, 0.0, 0.0, 0.0]
    powers[var] = atom.powers[var]
    expo[var] = atom.expo[var]
    args[var] = values
    return ExpPoly((Atom(coeff, tuple(powers), tuple(expo)),)).grid_fn()(*args)


# ---------------------------------------------------------------------
# Velocity and pressure
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class FlowSolution:
    problem: FlowProblem
    psi: VectorField

    @functools.cached_property
    def curl_psi(self) -> VectorField:
        return curl(self.psi)

    def velocity_symbolic(self) -> VectorField:
        """Symbolic velocity u = -curl(invLap(psi)) + grad(potential).

        Requires every atom of psi to be invertible; a RadialPotential
        cannot join a symbolic field, use velocity_at instead.
        """
        u = -curl(self.psi.map(inverse_laplacian_symbolic))
        potential = self.problem.potential
        if isinstance(potential, RadialPotential):
            raise ValueError(
                "radial potential has no symbolic field form; "
                "evaluate velocity pointwise instead"
            )
        return u + gradient(potential)

    def velocity_at(
        self,
        points,
        t: float = 0.0,
        settings: QuadratureSettings = QuadratureSettings(),
        mode: str = "standard",
    ):
        """Velocity u = -invLap(curl psi) + grad(potential) on sample points.

        The curl is taken symbolically (psi is an exact atom expression);
        the inverse Laplacian is evaluated by quadrature, so harmonic atoms
        in the vorticity are handled. Returns a complex (len(points), 3)
        ndarray.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((len(pts), 3), dtype=complex)
        for comp, w in enumerate(self.curl_psi.components()):
            if not w.is_zero():
                out[:, comp] = -inverse_laplacian_quadrature(
                    w, pts, t=t, settings=settings, mode=mode
                )
        potential = self.problem.potential
        if isinstance(potential, RadialPotential):
            for idx, (px, py, pz) in enumerate(pts):
                out[idx] += potential.grad((px, py, pz, t))
        else:
            px, py, pz = pts.T
            for comp, g in enumerate(gradient(potential).components()):
                out[:, comp] += g.grid_fn()(px, py, pz, t)
        return out

    def pressure_at(self, query) -> float:
        """Pressure anchored at the reference stagnation measurement.

        p(query) = p0 + phi_t(ref) - div(invLap(f))(ref)
                      - phi_t(query) + div(invLap(f))(query)

        The zero potential and the zero force give exactly 0.0 terms.
        """
        problem = self.problem
        potential = problem.potential

        def phi_t(point) -> float:
            if isinstance(potential, RadialPotential):
                return potential.dt(point)
            return potential.diff("t").evaluate(point).real

        def force(point) -> float:
            div_inv = divergence(problem.f.map(inverse_laplacian_symbolic))
            return div_inv.evaluate(point).real

        ref = problem.reference
        return problem.p0 + phi_t(ref) - force(ref) - phi_t(query) + force(query)


def solve_flow(problem: FlowProblem) -> FlowSolution:
    """Run the vorticity pipeline; velocity/pressure are evaluated
    on demand from the returned solution."""
    nu = problem.viscosity
    psi = problem.curl_u0.map(lambda comp: heat_semigroup(comp, nu)) + (
        duhamel_particular(problem.curl_f, nu)
    )
    return FlowSolution(problem, psi)
