"""Grid-graph cycle counts and the woven lattice diagram fragments.

G(n) is the grid graph on (n+1) x (n+1) vertices; its cycle counts grow
as 1, 13, 213, 9349, 1222363 for n = 1..5.  G*(n) realizes the same
incidence pattern as a fabric of n+1 horizontal and n+1 vertical strands
with checkerboard over/under.  Its alternated cycles are those whose
straight runs all have odd length, so G*(n) is counted by the same
profile DP with one run-parity bit per plug: 1, 4, 35, 308, 7821, 290282
for n = 1..6.
"""

from __future__ import annotations

from math import comb

from .diagram import DiagramGraph

_TABLE_MAX_N = 6


def grid_cycle_count(n: int) -> int:
    """Exact number of vertex-simple cycles in the (n+1) x (n+1) grid graph."""
    return _loop_count(n, False)


def _loop_count(n: int, odd_runs: bool) -> int:
    """Cycles of the (n+1) x (n+1) grid graph, or with `odd_runs` only
    those whose maximal straight runs all have odd length.

    Profile dynamic programming over vertices in row-major order: the
    state holds one bracket-matched plug per frontier position, a loop is
    closed only when no other plug survives.  With `odd_runs` a plug also
    carries the parity of its current straight run (bit 4): a new corner
    starts both runs at 1, a straight step flips the parity, a turn is
    allowed only from an odd run and restarts it at 1, and a join or a
    close needs both runs odd.  Runs in milliseconds.
    """
    if not 1 <= n <= _TABLE_MAX_N:
        raise ValueError(f"n out of supported range 1..{_TABLE_MAX_N}")
    odd = 4 if odd_runs else 0
    rows = cols = n + 1
    width = cols + 1  # plugs: verticals per column plus one horizontal

    def match(state, pos, step):
        """The plug bracket-matched to the one at pos, searching rightward
        (step +1) from an opening plug or leftward (step -1) from a closing one."""
        opening, depth = 1 if step > 0 else 2, 0
        for t in range(pos + step, width if step > 0 else -1, step):
            if state[t] & 3 == opening:
                depth += 1
            elif state[t] & 3 == 3 - opening:
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
                        base[j], base[j + 1] = 1 | odd, 2 | odd  # new corner
                        put(tuple(base), ways)
                elif left != 0 and up != 0:
                    if left & odd != odd or up & odd != odd:
                        continue
                    base[j] = base[j + 1] = 0
                    left, up = left & 3, up & 3
                    if left == 1 and up == 2:
                        # the two ends of one path meet: a loop closes
                        if all(v == 0 for v in base):
                            total += ways
                    elif left == 1 and up == 1:
                        k = match(state, j + 1, 1)
                        base[k] ^= 3
                        put(tuple(base), ways)
                    elif left == 2 and up == 2:
                        k = match(state, j, -1)
                        base[k] ^= 3
                        put(tuple(base), ways)
                    else:  # left == 2, up == 1: paths concatenate
                        put(tuple(base), ways)
                else:
                    v = left or up
                    # going on in the plug's own direction is straight, else a turn
                    turn = v & 3 | odd if v & odd == odd else 0
                    base[j] = base[j + 1] = 0
                    if can_down:
                        base[j] = v ^ odd if up else turn
                        if base[j]:
                            put(tuple(base), ways)
                        base[j] = 0
                    if can_right:
                        base[j + 1] = v ^ odd if left else turn
                        if base[j + 1]:
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
    horizontal one, and strand 1 leaves upward, to its left.  Boundary
    stubs are unwired slots.
    """
    m = strands
    idx = lambda i, j: i * m + j
    positions = [(j, i) for i in range(m) for j in range(m)]
    over = [0 if (i + j) % 2 == 0 else 1 for i in range(m) for j in range(m)]
    g = DiagramGraph(m * m, over, [True] * (m * m))
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

    The underlying graph is G(n), i.e. n+1 strands each way.  In the
    checkerboard weave an arc is alternated exactly when its straight run
    has odd length, so the count is the run-parity profile DP, for n up
    to 6.  The count is at least binomial(n, n//2) - 1.
    """
    return _loop_count(n, True)


def gstar_lower_bound(n: int) -> int:
    return comb(n, n // 2) - 1
