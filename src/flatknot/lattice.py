"""Grid-graph cycle counts and the woven lattice diagram fragments.

G(n) is the grid graph on (n+1) x (n+1) vertices; its cycle counts grow
as 1, 13, 213, 9349, 1222363 for n = 1..5.  G*(n) realizes the same
incidence pattern as a fabric of n+1 horizontal and n+1 vertical strands
with checkerboard over/under; alternated cycles of the weave are counted
through the same engine used for knot diagrams.
"""

from __future__ import annotations

from math import comb

from .diagram import DiagramGraph, enumerate_cycles_graph

_TABLE_MAX_N = 6


def grid_cycle_count(n: int) -> int:
    """Exact number of vertex-simple cycles in the (n+1) x (n+1) grid graph.

    Profile dynamic programming over vertices in row-major order: the
    state holds one bracket-matched plug per frontier position, a loop is
    closed only when no other plug survives.  Runs in milliseconds.
    """
    if not 1 <= n <= _TABLE_MAX_N:
        raise ValueError(f"n out of supported range 1..{_TABLE_MAX_N}")
    rows = cols = n + 1
    width = cols + 1  # plugs: verticals per column plus one horizontal

    def match_right(state, pos):
        depth = 0
        for t in range(pos + 1, width):
            if state[t] == 1:
                depth += 1
            elif state[t] == 2:
                if depth == 0:
                    return t
                depth -= 1
        raise AssertionError("unbalanced profile")

    def match_left(state, pos):
        depth = 0
        for t in range(pos - 1, -1, -1):
            if state[t] == 2:
                depth += 1
            elif state[t] == 1:
                if depth == 0:
                    return t
                depth -= 1
        raise AssertionError("unbalanced profile")

    total = 0
    states = {(0,) * width: 1}
    for i in range(rows):
        for j in range(cols):
            nxt: dict[tuple, int] = {}

            def put(state, ways):
                nxt[state] = nxt.get(state, 0) + ways

            can_down = i < rows - 1
            can_right = j < cols - 1
            for state, ways in states.items():
                left = state[j]
                up = state[j + 1]
                base = list(state)
                if left == 0 and up == 0:
                    base[j] = base[j + 1] = 0
                    put(tuple(base), ways)  # vertex unused
                    if can_down and can_right:
                        base[j], base[j + 1] = 1, 2  # new corner
                        put(tuple(base), ways)
                elif left != 0 and up != 0:
                    base[j] = base[j + 1] = 0
                    if left == 1 and up == 2:
                        # the two ends of one path meet: a loop closes
                        if all(v == 0 for v in base):
                            total += ways
                    elif left == 1 and up == 1:
                        k = match_right(state, j + 1)
                        base[k] = 1
                        put(tuple(base), ways)
                    elif left == 2 and up == 2:
                        k = match_left(state, j)
                        base[k] = 2
                        put(tuple(base), ways)
                    else:  # left == 2, up == 1: paths concatenate
                        put(tuple(base), ways)
                else:
                    v = left or up
                    if can_down:
                        base[j], base[j + 1] = v, 0
                        put(tuple(base), ways)
                    if can_right:
                        base = list(state)
                        base[j], base[j + 1] = 0, v
                        put(tuple(base), ways)
            states = nxt
        # row shift: the trailing horizontal plug must be empty
        states = {
            (0,) + s[:-1]: w for s, w in states.items() if s[-1] == 0
        }
    return total


def woven_fragment(strands: int) -> DiagramGraph:
    """Fabric of `strands` horizontal and `strands` vertical unit-spaced
    strands, checkerboard over/under: horizontal is over where the
    coordinate parity (row + column) is even.

    Crossing (i, j) sits at (j, i); strand 0 of each crossing is the
    horizontal one.  Boundary stubs are left dangling.
    """
    m = strands
    idx = lambda i, j: i * m + j
    positions = [(j, i) for i in range(m) for j in range(m)]
    over = [0 if (i + j) % 2 == 0 else 1 for i in range(m) for j in range(m)]
    g = DiagramGraph(m * m, over)
    # horizontal strand at crossing: slots 0 (in, from the left) / 1 (out, to the right)
    # vertical strand: slots 2 (in, from below) / 3 (out, upward)
    for i in range(m):
        for j in range(m - 1):
            a, b = idx(i, j), idx(i, j + 1)
            g.add_edge((a, 1), (b, 0), [positions[a], positions[b]])
    for j in range(m):
        for i in range(m - 1):
            a, b = idx(i, j), idx(i + 1, j)
            g.add_edge((a, 3), (b, 2), [positions[a], positions[b]])
    return g


def gstar_alternated_count(n: int) -> int:
    """Number of alternated cycles in the woven realization G*(n).

    The underlying graph is G(n), i.e. n+1 strands each way; enumeration
    cost limits n to 4.  The count is at least binomial(n, n//2) - 1.
    """
    if not 1 <= n <= 4:
        raise ValueError("n out of supported range 1..4")
    g = woven_fragment(n + 1)
    cycles = enumerate_cycles_graph(g)
    return sum(1 for cy in cycles if cy.alternated)


def gstar_lower_bound(n: int) -> int:
    return comb(n, n // 2) - 1
