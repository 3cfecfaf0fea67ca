import pytest
from math import comb

from flatknot.diagram import enumerate_cycles_graph
from flatknot.lattice import (
    grid_cycle_count,
    gstar_alternated_count,
    gstar_lower_bound,
    woven_fragment,
)

PAPER_TABLE = {1: 1, 2: 13, 3: 213, 4: 9349, 5: 1222363}


class TestGridCounts:
    @pytest.mark.parametrize("n,expected", sorted(PAPER_TABLE.items()))
    def test_table(self, n, expected):
        assert grid_cycle_count(n) == expected

    def test_n6_regression(self):
        assert grid_cycle_count(6) == 487150371

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_backtracking_oracle(self, n):
        assert len(grid_cycles_as_loops(n)) == grid_cycle_count(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fragment_enumeration_agrees(self, n):
        cycles = enumerate_cycles_graph(woven_fragment(n + 1))
        assert len(cycles) == grid_cycle_count(n)

    @pytest.mark.parametrize("n", [0, 7])
    def test_range(self, n):
        with pytest.raises(ValueError, match="out of supported range"):
            grid_cycle_count(n)


def alternated_by_run_parity(loop):
    """Oracle: checkerboard weave alternation from run lengths.

    An arc endpoint is over iff (row + col) is even on the horizontal
    strand and odd on the vertical; a straight run is alternated iff its
    length is odd, so a rectilinear cycle is alternated iff every maximal
    run has odd length.
    """
    m = len(loop)
    dirs = []
    for i in range(m):
        r0, c0 = loop[i]
        r1, c1 = loop[(i + 1) % m]
        dirs.append("h" if r0 == r1 else "v")
    # rotate to a direction change
    start = next(i for i in range(m) if dirs[i] != dirs[i - 1])
    run = 0
    prev = None
    for i in range(m):
        d = dirs[(start + i) % m]
        if d == prev:
            run += 1
        else:
            if prev is not None and run % 2 == 0:
                return False
            prev, run = d, 1
    return run % 2 == 1


def grid_cycles_as_loops(n):
    """Oracle: vertex loops of all cycles in the (n+1)x(n+1) grid, by
    anchored backtracking; each loop starts at its least vertex, and its
    orientation is fixed by second vertex < last vertex."""
    size = n + 1
    loops = []

    def neighbors(v):
        r, c = divmod(v, size)
        out = []
        if r > 0:
            out.append(v - size)
        if r < size - 1:
            out.append(v + size)
        if c > 0:
            out.append(v - 1)
        if c < size - 1:
            out.append(v + 1)
        return out

    def dfs(start, v, visited):
        for w in neighbors(v):
            if w == start and len(visited) >= 3:
                if visited[1] < v:
                    loops.append([divmod(x, size) for x in visited])
            elif w > start and w not in visited:
                visited.append(w)
                dfs(start, w, visited)
                visited.pop()

    for start in range(size * size):
        dfs(start, start, [start])
    return loops


def young_diagram_cycles(n):
    """Boundary cycles of the nonempty Young diagrams inside the n x n box.

    Returns (partition, vertex loop) pairs; there are exactly
    binomial(2n, n) - 1 of them.  Vertices are (row, col) lattice points
    with row 0 at the top edge of the box.
    """
    shapes = []

    def build(prefix, prev, rows_left):
        if rows_left == 0 or prev == 0:
            if prefix:
                shapes.append(tuple(prefix))
            return
        for part in range(prev, 0, -1):
            build(prefix + [part], part, rows_left - 1)
        if prefix:
            shapes.append(tuple(prefix))

    build([], n, n)

    out = []
    for shape in sorted(set(shapes)):
        loop = [(0, 0)]
        # down the left edge, then staircase up-right along the profile
        rows = len(shape)
        for r in range(1, rows + 1):
            loop.append((r, 0))
        col = 0
        for r in range(rows, 0, -1):
            width = shape[r - 1]
            if width > col:
                for cc in range(col + 1, width + 1):
                    loop.append((r, cc))
                col = width
            loop.append((r - 1, col))
        for cc in range(col - 1, 0, -1):
            loop.append((0, cc))
        out.append((shape, loop))
    return out


class TestGstar:
    # G*(5) was checked once against the run-parity rule on all 1,222,363
    # cycles of G(5); G*(6) is the DP's own value
    @pytest.mark.parametrize(
        "n,frozen", [(1, 1), (2, 4), (3, 35), (4, 308), (5, 7821), (6, 290282)]
    )
    def test_frozen_counts_and_bound(self, n, frozen):
        cnt = gstar_alternated_count(n)
        assert cnt == frozen
        assert cnt >= gstar_lower_bound(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumeration_oracle(self, n):
        # the woven fragment's alternation bits, from the cycle search
        cycles = enumerate_cycles_graph(woven_fragment(n + 1))
        assert sum(cy.alternated for cy in cycles) == gstar_alternated_count(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_independent_alternation_oracle(self, n):
        loops = grid_cycles_as_loops(n)
        oracle = sum(1 for lp in loops if alternated_by_run_parity(lp))
        assert gstar_alternated_count(n) == oracle

    @pytest.mark.parametrize("n", [0, 7])
    def test_range(self, n):
        with pytest.raises(ValueError, match="out of supported range"):
            gstar_alternated_count(n)


class TestYoungDiagrams:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_catalan_style_count(self, n):
        assert len(young_diagram_cycles(n)) == comb(2 * n, n) - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_boundaries_are_simple_loops(self, n):
        for shape, loop in young_diagram_cycles(n):
            assert len(loop) == len(set(loop))
            for (r0, c0), (r1, c1) in zip(loop, loop[1:] + loop[:1]):
                assert abs(r0 - r1) + abs(c0 - c1) == 1
                assert 0 <= r1 <= n and 0 <= c1 <= n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundaries_among_enumerated_cycles(self, n):
        all_loops = grid_cycles_as_loops(n)
        edge_sets = {
            frozenset(frozenset((a, b)) for a, b in zip(lp, lp[1:] + lp[:1]))
            for lp in all_loops
        }
        for shape, loop in young_diagram_cycles(n):
            es = frozenset(frozenset((a, b)) for a, b in zip(loop, loop[1:] + loop[:1]))
            assert es in edge_sets

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_alternated_young_bound(self, n):
        # the weave estimate behind the G*(n) lower bound
        alternated = sum(
            1 for _, loop in young_diagram_cycles(n) if alternated_by_run_parity(loop)
        )
        assert alternated >= comb(n, n // 2) - 1
