"""In-memory span recorder for the traced benchmark run.

:func:`install` wraps the public functions of each ``pdeseries`` layer
from outside the library: the ``ExpPoly`` class attributes, and every
module-level binding of a wrapped function (``pdeseries.cli`` imports
its callees with ``from .x import y``, so patching only the defining
module would miss the CLI's calls). Each call records one span (name,
start, end, parent) into flat arrays; layer counters are summed at the
same boundaries. Spans stay in memory; :meth:`Recorder.self_times` and
:meth:`Recorder.dump` read them once, at the end of the run.

A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.enabled = True

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run a block (such as an oracle check) without recording."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        per_name = np.bincount(
            np.frombuffer(self.name_id, dtype=np.int32),
            weights=own,
            minlength=len(self.names),
        )
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write the raw spans as a numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def traced(rec: Recorder, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span named ``name``.

    ``before(args, kwargs)`` may return replacement (args, kwargs) and
    runs inside the span; ``after(args, kwargs, result)`` updates
    counters once the span has ended.
    """
    nid = rec.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        idx = rec.begin(nid)
        try:
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = fn(*args, **kwargs)
        finally:
            rec.finish(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(rec: Recorder):
    """Patch the library's layers to record into ``rec``; returns undo()."""
    import pdeseries  # noqa: F401  (loads every submodule)
    from pdeseries import algebra, cli, diffusion, evolution, flow, problemfile
    from pdeseries import residuals, series, textform

    ExpPoly = algebra.ExpPoly
    counts = rec.counts
    undo = []

    def patch_attr(owner, attr, wrapper):
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        undo.append(lambda: setattr(owner, attr, original))

    def patch_function(fn, wrapper):
        # Replace every module-level binding of fn inside the package.
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("pdeseries"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patch_attr(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {fn.__qualname__} found")

    # -- algebra --------------------------------------------------------
    def mul_after(args, kwargs, result):
        a, b = args
        counts["algebra.mul.calls"] += 1
        counts["algebra.mul.pairs"] += len(a.atoms) * len(b.atoms)

    patch_attr(ExpPoly, "__mul__",
               traced(rec, "algebra.mul", ExpPoly.__mul__, after=mul_after))

    def normalize_before(args, kwargs):
        self, *rest = args
        atoms = list(rest[0] if rest else kwargs.pop("atoms", ()))
        counts["algebra.normalize.atoms_in"] += len(atoms)
        return (self, atoms), kwargs

    def normalize_after(args, kwargs, result):
        counts["algebra.normalize.atoms_out"] += len(args[0].atoms)

    patch_attr(ExpPoly, "__init__", traced(
        rec, "algebra.normalize", ExpPoly.__init__,
        before=normalize_before, after=normalize_after))

    def diff_after(args, kwargs, result):
        counts["algebra.diff.calls"] += 1

    patch_attr(ExpPoly, "diff", traced(rec, "algebra.diff", ExpPoly.diff, after=diff_after))

    def evaluate_after(args, kwargs, result):
        counts["algebra.evaluate.calls"] += 1

    patch_attr(ExpPoly, "evaluate",
               traced(rec, "algebra.evaluate", ExpPoly.evaluate, after=evaluate_after))

    grid_fn = ExpPoly.grid_fn

    def traced_grid_fn(self):
        n_atoms = len(self.atoms)

        def grid_after(args, kwargs, result):
            counts["algebra.grid_eval.atom_points"] += n_atoms * np.size(result)

        return traced(rec, "algebra.grid_eval", grid_fn(self), after=grid_after)

    patch_attr(ExpPoly, "grid_fn", functools.wraps(grid_fn)(traced_grid_fn))

    # -- evolution ------------------------------------------------------
    patch_attr(evolution.PowersTable, "entry",
               traced(rec, "evolution.powers_entry", evolution.PowersTable.entry))
    patch_function(evolution.apply_implicit_inverse, traced(
        rec, "evolution.implicit_inverse", evolution.apply_implicit_inverse))

    def solve_after(args, kwargs, result):
        last = len(result.coefficients[-1].atoms)
        rec.gauges["evolution.atoms_last"] = max(rec.gauges.get("evolution.atoms_last", 0), last)

    patch_function(evolution.solve_series, traced(
        rec, "evolution.solve_series", evolution.solve_series, after=solve_after))

    # -- series ---------------------------------------------------------
    patch_attr(series.SeriesSolution, "partial_sum",
               traced(rec, "series.partial_sum", series.SeriesSolution.partial_sum))
    patch_function(series.detect_closed_form, traced(
        rec, "series.detect_closed_form", series.detect_closed_form))

    # -- diffusion ------------------------------------------------------
    patch_function(diffusion.heat_series,
                   traced(rec, "diffusion.heat_series", diffusion.heat_series))
    patch_function(diffusion.ball_series,
                   traced(rec, "diffusion.ball_series", diffusion.ball_series))

    # -- flow -----------------------------------------------------------
    quadrature = flow.inverse_laplacian_quadrature

    def quadrature_after(args, kwargs, result):
        settings = _bound(quadrature, args, kwargs)["settings"]
        points = len(result)
        counts["flow.quadrature.points"] += points
        counts["flow.quadrature.kernel_terms"] += points * settings.n_tau * settings.n_space**3

    patch_function(quadrature, traced(rec, "flow.quadrature", quadrature, after=quadrature_after))
    patch_function(flow.solve_flow, traced(rec, "flow.solve_flow", flow.solve_flow))
    patch_attr(flow.FlowSolution, "velocity_symbolic", traced(
        rec, "flow.velocity_symbolic", flow.FlowSolution.velocity_symbolic))

    # -- residuals ------------------------------------------------------
    def fd_before(args, kwargs):
        u, *rest = args

        def counted_u(*coords):
            counts["residuals.fd.u_calls"] += 1
            counts["residuals.fd.points"] += np.broadcast(*coords).size
            return u(*coords)

        return (counted_u, *rest), kwargs

    for fd in (residuals.fd_residual_evolution, residuals.fd_residual_heat):
        patch_function(fd, traced(rec, "residuals.fd", fd, before=fd_before))

    # -- textform, problemfile, cli --------------------------------------
    def parse_after(args, kwargs, result):
        counts["textform.parse.calls"] += 1

    patch_function(textform.parse_expression, traced(
        rec, "textform.parse", textform.parse_expression, after=parse_after))

    def display_after(args, kwargs, result):
        counts["textform.display.atoms"] += len(args[0].atoms)

    patch_function(textform.to_display, traced(
        rec, "textform.display", textform.to_display, after=display_after))
    patch_function(problemfile.load_problem_file, traced(
        rec, "problemfile.load", problemfile.load_problem_file))
    patch_function(cli.main, traced(rec, "cli", cli.main))

    def restore():
        while undo:
            undo.pop()()

    return restore
