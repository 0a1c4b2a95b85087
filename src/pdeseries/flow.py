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
formula; the two differ in sign and scale.
"""

from __future__ import annotations

import math
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
    poly_close,
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

    def value(self, point) -> float:
        x, y, z, t = point
        return self.scale * t / self._radius(x, y, z)

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


Potential = ExpPoly | RadialPotential | None


# ---------------------------------------------------------------------
# Problem / solution containers
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class FlowProblem:
    """Data of the linearized incompressible flow problem.

    The curls of the initial velocity and of the body force are the
    primary inputs (the force itself never enters the vorticity
    equation). ``u0`` may be supplied instead of ``curl_u0``; it is then
    checked divergence-free and curled. ``f`` is optional and only
    feeds the pressure's div(invLap(f)) terms; when omitted those terms
    are zero.
    """

    viscosity: float
    curl_u0: VectorField = field(default_factory=VectorField.zero)
    curl_f: VectorField = field(default_factory=VectorField.zero)
    potential: Potential = None
    f: VectorField | None = None
    reference: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    p0: float = 0.0

    def __post_init__(self):
        if self.viscosity <= 0:
            raise ValueError("viscosity must be positive")
        if isinstance(self.potential, ExpPoly):
            if not laplacian(self.potential).is_zero():
                raise ValueError("potential must be harmonic")

    @staticmethod
    def from_velocity(
        viscosity: float,
        u0: VectorField,
        curl_f: VectorField | None = None,
        potential: Potential = None,
        f: VectorField | None = None,
        reference=(0.0, 0.0, 0.0, 0.0),
        p0: float = 0.0,
    ) -> "FlowProblem":
        if not divergence(u0).is_zero():
            raise ValueError("initial velocity must be divergence-free")
        return FlowProblem(
            viscosity,
            curl(u0),
            curl_f if curl_f is not None else VectorField.zero(),
            potential,
            f,
            reference,
            p0,
        )


# ---------------------------------------------------------------------
# Vorticity: homogeneous semigroup + Duhamel particular part
# ---------------------------------------------------------------------


def vorticity_homogeneous(curl_u0: VectorField, viscosity: float) -> VectorField:
    """Heat semigroup applied componentwise to the initial vorticity."""
    return curl_u0.map(lambda comp: heat_semigroup(comp, viscosity))


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


def solve_vorticity(problem: FlowProblem) -> VectorField:
    return vorticity_homogeneous(problem.curl_u0, problem.viscosity) + (
        duhamel_particular(problem.curl_f, problem.viscosity)
    )


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


@dataclass(frozen=True)
class QuadratureSettings:
    """Heat-kernel quadrature controls.

    Tensor-product midpoints over the box, geometric subdivision of the
    time-like integral on (tau_min, horizon]. The defaults are sized so
    the standard mode reproduces symbolic inverses of unit-scale
    eigenfunctions on [-pi, pi]^3 to about 2e-2 relative in seconds.
    """

    box: tuple[float, float] = (-3 * math.pi, 3 * math.pi)
    horizon: float = 6.0
    n_space: int = 48
    n_tau: int = 32
    tau_min: float = 1e-4


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

    Returns a complex ndarray of shape (len(points),). Accuracy is
    reported by the caller's own comparisons, never enforced here.
    """
    if mode not in ("standard", "paper_literal"):
        raise ValueError(f"unknown mode {mode!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo, hi = settings.box
    h = (hi - lo) / settings.n_space
    axis = lo + (np.arange(settings.n_space) + 0.5) * h
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    values = v.grid_fn()(X, Y, Z, np.full_like(X, t))
    edges = settings.tau_min * (settings.horizon / settings.tau_min) ** (
        np.arange(settings.n_tau + 1) / settings.n_tau
    )
    mids = 0.5 * (edges[:-1] + edges[1:])
    weights = np.diff(edges)
    cell = h**3
    out = np.zeros(len(pts), dtype=complex)
    for idx, (px, py, pz) in enumerate(pts):
        r2 = (X - px) ** 2 + (Y - py) ** 2 + (Z - pz) ** 2
        total = 0j
        for tau, w in zip(mids, weights):
            norm = (4 * math.pi * tau) ** -1.5
            if mode == "standard":
                kernel = norm * np.exp(-r2 / (4 * tau))
            else:
                kernel = norm * np.exp(-r2 / tau)
            total += w * np.sum(kernel * values) * cell
        out[idx] = -total if mode == "standard" else total
    return out


# ---------------------------------------------------------------------
# Velocity and pressure
# ---------------------------------------------------------------------


def assemble_velocity(psi: VectorField, potential: Potential = None) -> VectorField:
    """Symbolic velocity u = -curl(invLap(psi)) + grad(potential).

    Requires every atom of psi to be invertible; a RadialPotential
    cannot join a symbolic field, use velocity sampling instead.
    """
    inv = psi.map(inverse_laplacian_symbolic)
    u = -curl(inv)
    if potential is None:
        return u
    if isinstance(potential, RadialPotential):
        raise ValueError(
            "radial potential has no symbolic field form; "
            "evaluate velocity pointwise instead"
        )
    return u + gradient(potential)


def velocity_samples(
    psi: VectorField,
    potential: Potential,
    points,
    t: float = 0.0,
    settings: QuadratureSettings = QuadratureSettings(),
    mode: str = "standard",
):
    """Velocity u = -invLap(curl psi) + grad(potential) on sample points.

    The curl is taken symbolically (psi is an exact atom expression);
    the inverse Laplacian is evaluated by quadrature, so harmonic atoms
    in the vorticity are handled.
    """
    w = curl(psi)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    components = []
    for comp in w.components():
        if comp.is_zero():
            components.append(np.zeros(len(pts), dtype=complex))
        else:
            components.append(
                -inverse_laplacian_quadrature(comp, pts, t=t, settings=settings, mode=mode)
            )
    out = np.stack(components, axis=1)
    if isinstance(potential, RadialPotential):
        for idx, (px, py, pz) in enumerate(pts):
            out[idx] += potential.grad((px, py, pz, t))
    elif potential is not None:
        px, py, pz = pts.T
        for comp, g in enumerate(gradient(potential).components()):
            out[:, comp] += g.grid_fn()(px, py, pz, t)
    return out


def _potential_dt(potential: Potential, point) -> float:
    if potential is None:
        return 0.0
    if isinstance(potential, RadialPotential):
        return potential.dt(point)
    return potential.diff("t").evaluate(point).real


def _force_term(f: VectorField | None, point) -> float:
    if f is None:
        return 0.0
    div_inv = divergence(f.map(inverse_laplacian_symbolic))
    return div_inv.evaluate(point).real


def pressure(problem: FlowProblem, query) -> float:
    """Pressure anchored at the reference stagnation measurement.

    p(query) = p0 + phi_t(ref) - div(invLap(f))(ref)
                  - phi_t(query) + div(invLap(f))(query)

    with the force terms zero when no force field is supplied.
    """
    ref = problem.reference
    return (
        problem.p0
        + _potential_dt(problem.potential, ref)
        - _force_term(problem.f, ref)
        - _potential_dt(problem.potential, query)
        + _force_term(problem.f, query)
    )


@dataclass(frozen=True)
class FlowSolution:
    problem: FlowProblem
    psi: VectorField

    @property
    def curl_psi(self) -> VectorField:
        return curl(self.psi)

    def velocity_symbolic(self) -> VectorField:
        return assemble_velocity(self.psi, self.problem.potential)

    def velocity_at(
        self,
        points,
        t: float = 0.0,
        settings: QuadratureSettings = QuadratureSettings(),
        mode: str = "standard",
    ):
        return velocity_samples(
            self.psi, self.problem.potential, points, t=t, settings=settings, mode=mode
        )

    def pressure_at(self, query) -> float:
        return pressure(self.problem, query)

    def initial_vorticity_matches(self, tol: float = 1e-10) -> bool:
        at0 = self.psi.map(lambda comp: comp.substitute_t(0.0))
        return all(
            poly_close(a, b, tol)
            for a, b in zip(at0.components(), self.problem.curl_u0.components())
        )


def solve_flow(problem: FlowProblem) -> FlowSolution:
    """Run the vorticity pipeline; velocity/pressure are evaluated
    on demand from the returned solution."""
    return FlowSolution(problem, solve_vorticity(problem))
