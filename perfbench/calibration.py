"""Fixed calibration kernel that tracks the host's current speed.

On a shared host the speed of a core drifts as other tenants load it;
on the 2-vCPU Xeon VM where this benchmark was defined it drifted by
20-30% over tens of seconds, which moves every wall-clock time alike.
Running this kernel right after each operation, in the same process,
and dividing the operation's time by the kernel's time cancels most of
that drift: there the ratio moved by about 2% while raw times moved by
20%.

The kernel mixes the two kinds of work the library does: interpreter
work on small tuples and dicts (the atom algebra) and numpy passes over
an L2-sized array without allocation (grid evaluation and quadrature).
"""

import time

import numpy as np

_ARRAY = np.linspace(-5.0, 0.0, 32768)
_BUFFER = np.empty_like(_ARRAY)


def kernel() -> float:
    table = {}
    for i in range(20000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
    total = 0.0
    for _ in range(20):
        np.exp(_ARRAY, out=_BUFFER)
        np.multiply(_BUFFER, _ARRAY, out=_BUFFER)
        total += float(_BUFFER.sum())
    return total


def measure(repeats: int = 3) -> float:
    """Fastest of ``repeats`` kernel runs, in seconds (about 5 ms each)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
