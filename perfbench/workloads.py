"""Seeded instance generators for the three benchmark workloads.

Each workload is a list of cases.  A case is one instance file plus what
the harness needs to run and verify it: the epsilon passed to `solve`,
whether `oracle` runs on it, and a closed-form optimum where one is known.
The same (workload, seed) always yields the same cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Case:
    name: str
    doc: dict          # instance file contents, "format": 1
    epsilon: str       # passed verbatim to `solve --epsilon`
    run_oracle: bool = False
    optimum: Fraction | None = None   # known closed-form optimum

    @property
    def n(self) -> int:
        return len(self.doc["pairs" if self.doc["problem"] == "two-set" else "weights"])


# Generator parameters.  A timed run stops only at the end of a cycle, so
# every run solves the same mix of instance kinds.
PARAMS = {
    "twoset_large": {
        "problem": "two-set", "n": 32, "weight_max": 50, "weights": "stratified",
        "epsilon": "1/4", "cases": 48, "cycle": 1,
    },
    "ssr_factor": {
        "kinds": ["ssr", "factor-r", "powers-of-two", "ssr", "factor-r", "all-equal"],
        "n": 24, "n_powers": 20, "weight_max": 1000, "weights": "stratified", "r": "3/2",
        "epsilon": "1/4", "cases": 60, "cycle": 6,
    },
    "small_cli": {
        # every (problem, n, epsilon) combination once per cycle of 3 * 7 * 4
        "problems": ["two-set", "ssr", "factor-r"], "n_range": [2, 8], "weight_max": 50,
        "weights": "independent", "r_choices": ["5/4", "3/2", "2"],
        "epsilons": ["1/10", "3/10", "1/2", "9/10"], "cases": 336, "cycle": 84,
    },
}


def _weights(rng: random.Random, n: int, weight_max: int) -> list[int]:
    return [rng.randint(1, weight_max) for _ in range(n)]


def _stratified(rng: random.Random, n: int, weight_max: int) -> list[int]:
    """Uniform weights in 1..weight_max, one draw per equal-width slot, in
    random order.  Solve time varies less between instances than with
    independent draws, so a run's median needs fewer solves to settle."""
    weights = [min(weight_max, 1 + int((k + rng.random()) * weight_max / n)) for k in range(n)]
    rng.shuffle(weights)
    return weights


def _twoset_large(rng: random.Random, p: dict) -> list[Case]:
    cases = []
    for i in range(p["cases"]):
        first = _stratified(rng, p["n"], p["weight_max"])
        second = _stratified(rng, p["n"], p["weight_max"])
        doc = {"format": 1, "problem": "two-set", "pairs": [list(ab) for ab in zip(first, second)]}
        cases.append(Case(f"t{i:03d}", doc, p["epsilon"]))
    return cases


def _ssr_factor(rng: random.Random, p: dict) -> list[Case]:
    cases = []
    kinds = p["kinds"]
    for i in range(p["cases"]):
        kind = kinds[i % len(kinds)]
        optimum = None
        if kind == "ssr":
            doc = {"format": 1, "problem": "ssr",
                   "weights": _stratified(rng, p["n"], p["weight_max"])}
        elif kind == "factor-r":
            doc = {"format": 1, "problem": "factor-r",
                   "weights": _stratified(rng, p["n"], p["weight_max"]), "r": p["r"]}
        elif kind == "powers-of-two":
            # distinct subset sums: the optimum is 2^(k-1)/(2^(k-1)-1)
            k = p["n_powers"]
            weights = [2 ** j for j in range(k)]
            rng.shuffle(weights)
            doc = {"format": 1, "problem": "ssr", "weights": weights}
            optimum = Fraction(2 ** (k - 1), 2 ** (k - 1) - 1)
        else:
            doc = {"format": 1, "problem": "ssr",
                   "weights": [rng.randint(1, p["weight_max"])] * p["n"]}
            optimum = Fraction(1)
        cases.append(Case(f"s{i:03d}", doc, p["epsilon"], optimum=optimum))
    return cases


def _small_cli(rng: random.Random, p: dict) -> list[Case]:
    cases = []
    lo, hi = p["n_range"]
    per_n = len(p["problems"]) * len(p["epsilons"])
    for i in range(p["cases"]):
        problem = p["problems"][i % len(p["problems"])]
        n = lo + (i // per_n) % (hi - lo + 1)
        if problem == "two-set":
            doc = {"format": 1, "problem": problem,
                   "pairs": [[rng.randint(1, p["weight_max"]), rng.randint(1, p["weight_max"])]
                             for _ in range(n)]}
        else:
            doc = {"format": 1, "problem": problem, "weights": _weights(rng, n, p["weight_max"])}
            if problem == "factor-r":
                doc["r"] = rng.choice(p["r_choices"])
        eps = p["epsilons"][i % len(p["epsilons"])]
        cases.append(Case(f"c{i:03d}", doc, eps, run_oracle=True))
    return cases


_GENERATORS = {
    "twoset_large": _twoset_large,
    "ssr_factor": _ssr_factor,
    "small_cli": _small_cli,
}

NAMES = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> list[Case]:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return _GENERATORS[workload](rng, PARAMS[workload])


def warmup_cases() -> list[Case]:
    """Tiny instances of every problem kind, run once per set-up to load
    every code path before timing."""
    docs = [
        {"format": 1, "problem": "two-set", "pairs": [[5, 4], [3, 6], [2, 7], [4, 4]]},
        {"format": 1, "problem": "ssr", "weights": [3, 5, 7, 9]},
        {"format": 1, "problem": "factor-r", "weights": [3, 5, 7, 9], "r": "3/2"},
    ]
    return [Case(f"w{i}", doc, "1/4", run_oracle=True) for i, doc in enumerate(docs)]
