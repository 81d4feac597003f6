"""Measured approximation quality versus the certified bound.

Sweeps epsilon over seeded random instances, comparing the driver's value
with the brute-force optimum.  The observed ratio is typically far inside
the certified (1 + epsilon) ceiling because scaled instances are exact up
to flooring.

Run:  python demos/approximation_quality.py
"""

import random
from fractions import Fraction

from ssratio import TwoSetInstance, brute_force_two_set, fptas_solve

rng = random.Random(20260810)
instances = []
while len(instances) < 25:
    n = rng.randint(3, 7)
    pairs = [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(n)]
    inst = TwoSetInstance.from_pairs(pairs)
    opt = brute_force_two_set(inst)
    if opt.feasible:
        instances.append((inst, opt.optimum))

print(f"{'epsilon':>8} {'worst value/opt':>16} {'mean value/opt':>15} {'bound':>7}")
for eps in (Fraction(9, 10), Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
    ratios = []
    for inst, opt in instances:
        res = fptas_solve(inst, eps)
        ratios.append(res.value / opt)
        assert ratios[-1] <= 1 + eps  # the certified ceiling
    worst = max(ratios)
    mean = sum(ratios) / len(ratios)
    print(f"{str(eps):>8} {float(worst):>16.6f} {float(mean):>15.6f} {float(1 + eps):>7.2f}")

print("\nevery run stayed within its certified bound")
