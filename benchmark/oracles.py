"""Reference values computed without flatknot, used to check its outputs.

Nothing here imports the package: each function is an independent
computation (closed forms, published counts, a separate backtracking
enumerator, plain numpy geometry) of something flatknot also computes.
"""

from __future__ import annotations

import subprocess
import sys
from functools import lru_cache
from math import comb, pi

import numpy as np

# OEIS A140517: cycles of the (n+1) x (n+1) grid graph, n = 1..6
GRID_CYCLES = {1: 1, 2: 13, 3: 213, 4: 9349, 5: 1222363, 6: 487150371}


_ELASTICA = """
from math import pi
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk
m = brentq(lambda m: 2.0 * ellipe(m) - ellipk(m), 0.5, 0.99, xtol=1e-15)
print(repr(float(32.0 * ellipk(m) ** 2 / pi * (m - 0.5))))
"""


@lru_cache(maxsize=None)
def elastica_energy() -> float:
    """U_{x^2} of the length-2pi figure-eight elastica.

    (32 K(k)^2 / pi)(k^2 - 1/2), where k solves 2E(k) = K(k); scipy's
    complete integrals take the parameter m = k^2.  Computed in a child
    interpreter, so that scipy's memory stays out of the run's peak RSS.
    """
    proc = subprocess.run([sys.executable, "-c", _ELASTICA], capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def turning_number(points: np.ndarray) -> int:
    """Whitney index of a closed polygon: summed exterior angles over 2pi."""
    d = np.diff(np.vstack([points, points[:1]]), axis=0)
    d2 = np.roll(d, -1, axis=0)
    turn = np.arctan2(d[:, 0] * d2[:, 1] - d[:, 1] * d2[:, 0], np.einsum("ij,ij->i", d, d2))
    return int(round(turn.sum() / (2 * pi)))


def self_intersections(points: np.ndarray) -> int:
    """Number of proper crossings between non-adjacent edges of a closed polygon."""
    a = points
    b = np.roll(points, -1, axis=0)
    n = len(a)
    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]

    def orient(p, q, r):
        return np.sign((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))

    o1 = orient(a[i], b[i], a[j])
    o2 = orient(a[i], b[i], b[j])
    o3 = orient(a[j], b[j], a[i])
    o4 = orient(a[j], b[j], b[i])
    return int(np.count_nonzero((o1 * o2 < 0) & (o3 * o4 < 0)))


def polygon_area(points: np.ndarray) -> float:
    """Absolute shoelace area of a closed polygon."""
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))))


def _grid_loops(n: int):
    """Every cycle of the (n+1) x (n+1) grid graph as a vertex loop, once each."""
    size = n + 1

    def neighbours(v):
        r, c = divmod(v, size)
        if r > 0:
            yield v - size
        if r < n:
            yield v + size
        if c > 0:
            yield v - 1
        if c < n:
            yield v + 1

    adj = [list(neighbours(v)) for v in range(size * size)]
    loops = []
    path = []
    on_path = [False] * (size * size)

    def extend(start, v):
        for w in adj[v]:
            if w == start and len(path) >= 4 and path[1] < path[-1]:
                loops.append([divmod(u, size) for u in path])
            elif w > start and not on_path[w]:
                path.append(w)
                on_path[w] = True
                extend(start, w)
                on_path[w] = False
                path.pop()

    for start in range(size * size):
        path.append(start)
        on_path[start] = True
        extend(start, start)
        on_path[start] = False
        path.pop()
    return loops


def _odd_runs(loop) -> bool:
    """True when every maximal straight run of a rectilinear loop has odd length."""
    m = len(loop)
    horizontal = [loop[k][0] == loop[(k + 1) % m][0] for k in range(m)]
    first = next(k for k in range(m) if horizontal[k] != horizontal[k - 1])
    run = 0
    for k in range(m):
        if k and horizontal[(first + k) % m] != horizontal[(first + k - 1) % m]:
            if run % 2 == 0:
                return False
            run = 0
        run += 1
    return run % 2 == 1


@lru_cache(maxsize=None)
def gstar_by_run_parity(n: int) -> int:
    """Alternated cycles of the checkerboard weave G*(n), by the run-parity rule."""
    return sum(1 for loop in _grid_loops(n) if _odd_runs(loop))


def gstar_lower_bound(n: int) -> int:
    return comb(n, n // 2) - 1
