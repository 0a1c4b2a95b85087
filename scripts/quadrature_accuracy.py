#!/usr/bin/env python3
"""Accuracy sweep for the heat-kernel inverse Laplacian.

Compares the quadrature against the symbolic inverse for sin(x) on a
set of interior probe points, across box sizes, horizons and node
counts, and prints a table. Useful when retuning QuadratureSettings.
"""

import math
import time

from pdeseries import (
    QuadratureSettings,
    inverse_laplacian_quadrature,
    parse_expression,
)

PROBES = [
    (0.5, 0.2, -0.3),
    (1.0, -0.8, 0.6),
    (-1.2, 1.0, 0.4),
    (0.8, 0.0, 0.0),
    (2.0, 0.5, 1.5),
]

CONFIGS = [
    # (box half-width multiple of pi, horizon, n_space, n_tau)
    (1, 1.0, 24, 32),
    (1, 8.0, 24, 32),
    (2, 6.0, 32, 32),
    (3, 6.0, 48, 32),   # defaults
    (3, 8.0, 48, 32),
    (3, 6.0, 64, 48),
]


def main():
    v = parse_expression("sin(x)")
    print(f"{'box':>6} {'T':>5} {'n_sp':>5} {'n_tau':>6} "
          f"{'worst rel':>10} {'median rel':>11} {'ms/pt':>7}")
    for mult, horizon, n_space, n_tau in CONFIGS:
        settings = QuadratureSettings(
            box=(-mult * math.pi, mult * math.pi),
            horizon=horizon,
            n_space=n_space,
            n_tau=n_tau,
        )
        start = time.perf_counter()
        values = inverse_laplacian_quadrature(v, PROBES, settings=settings)
        per_point = (time.perf_counter() - start) * 1e3 / len(PROBES)
        rels = sorted(
            abs(got.real + math.sin(px)) / abs(math.sin(px))
            for (px, _, _), got in zip(PROBES, values)
        )
        print(f"{mult:>5}pi {horizon:>5.1f} {n_space:>5} {n_tau:>6} "
              f"{rels[-1]:>10.2e} {rels[len(rels)//2]:>11.2e} {per_point:>7.2f}")


if __name__ == "__main__":
    main()
