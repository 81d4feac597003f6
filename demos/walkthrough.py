"""Tour of the toolkit on small instances.

Builds a two-set instance, solves one pivot exactly, inspects the DP
table behind the answer, runs the approximation driver, and routes a
plain subset-sum-ratio question through the same engine.  Everything
printed here is exact-rational.

Run:  python demos/walkthrough.py
"""

from fractions import Fraction

from ssratio import (
    DifferenceTable,
    SolutionPair,
    TwoSetInstance,
    brute_force_semi_restricted,
    brute_force_two_set,
    decode,
    encode_ssr_weights,
    exact_solver,
    fptas_solve,
)

# Four weight pairs; a solution picks first-side elements for one set and
# second-side elements for the other, never both elements of a pair.
pairs = [(5, 4), (3, 6), (8, 2), (7, 7)]
inst = TwoSetInstance.from_pairs(pairs)
print(f"instance: {pairs}  (flattened weights {[str(w) for w in inst.weights]})")

# --- exact solve for one pivot ---------------------------------------------
# Pivot 1 asks: among solutions whose smaller set-maximum equals weight 5,
# which has the smallest larger-over-smaller sum ratio?
m = 1
weights = tuple(int(w) for w in inst.weights)
exact = SolutionPair.from_sets(weights, *exact_solver(weights, m))
oracle = brute_force_semi_restricted(inst, m)
print(f"\npivot {m}: exact solver  s1={sorted(exact.s1)} s2={sorted(exact.s2)} "
      f"value={exact.value()}")
print(f"pivot {m}: brute force   value={oracle.optimum}  (must agree)")
assert exact.value() == oracle.optimum

# --- a look inside the DP ----------------------------------------------------
# The solver fills a table over (processed pairs, sum difference, flags).
# Cells on the fully-flagged layer of the last row are feasible solutions;
# each stores the largest total sum for its difference.
table = DifferenceTable(weights, inst.n, 0, weights[m - 1])
best = table.best_cell()
print(f"\nDP window: differences in [-{2 * table.cap}, {table.cap}]")
print(f"best cell: difference {best[0]}, total sum {best[1]}")
print(f"reconstructed: {tuple(sorted(s) for s in table.reconstruct(best[0]))}")

# --- approximation driver ----------------------------------------------------
# The driver tries every pivot on a floored rescaling of the weights and
# certifies a (1 + epsilon) bound against the true optimum.
eps = Fraction(1, 4)
approx = fptas_solve(inst, eps, collect_log=True)
optimum = brute_force_two_set(inst)
print(f"\nfptas(eps={eps}): value {approx.value} via pivot {approx.pivot_used}, "
      f"bound {approx.bound}")
print(f"true optimum: {optimum.optimum}")
assert approx.value <= (1 + eps) * optimum.optimum
for entry in approx.per_pivot_log[:4]:
    print(f"  pivot {entry.m}: scaled {entry.scaled_value}, original {entry.original_value}")

# --- plain subset-sum ratio through the same engine --------------------------
# Encode as identical pairs, run the driver, decode back to base indices.
encoded = encode_ssr_weights([7, 11, 4, 18])
res = fptas_solve(encoded, Fraction(1, 10))
decoded = decode(res.solution, "ssr", encoded.n)
print(f"\nssr [7, 11, 4, 18]: value {res.value}, "
      f"sets {sorted(decoded.s1)} vs {sorted(decoded.s2)}")
# equal-sum subsets exist (7 + 4 = 11), so the exact ratio 1 is reachable
assert res.value == 1
print("\nall checks passed")
