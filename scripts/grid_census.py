"""Print the lattice cycle-count table and the alternated census of the
woven realizations.

Usage: python scripts/grid_census.py
"""

from math import comb

from flatknot import grid_cycle_count, gstar_alternated_count, gstar_lower_bound

print("n   vertices   cycles in G(n)")
for n in range(1, 7):
    print(f"{n}   {(n + 1) ** 2:>8}   {grid_cycle_count(n):>14,}")

print("\nn   alternated in G*(n)   binomial lower bound")
for n in range(1, 7):
    print(f"{n}   {gstar_alternated_count(n):>19}   {gstar_lower_bound(n):>20}")

print("\nYoung-diagram disks in G(n): C(2n, n) - 1 =", [comb(2 * n, n) - 1 for n in range(1, 7)])
