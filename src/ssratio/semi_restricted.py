"""Exact pseudo-polynomial solver for the pivoted (semi-restricted) two-set
ratio problem on integer weights.

Given a flattened instance of n weight pairs and a pivot index m, the task
is to find two feasible sets minimising the larger-over-smaller sum ratio
among all solutions whose smaller set-maximum equals the pivot's weight
(by value).  The solver works per *side*: for a chosen near side it
searches pairs (S1, S2) where S1 lives on the near side with maximum
weight exactly the pivot weight, and S2 lives on the far side with
maximum weight at least the pivot weight.  Running the search for both
sides covers every solution the value-based feasibility check admits.

Each per-side search splits into two regimes:

* heavy singleton - some far-side element alone outweighs every possible
  near-side sum; then the far set is that single element and the near set
  takes everything admissible;
* difference DP - otherwise an optimal solution keeps the signed sum
  difference d = sum(S1) - sum(S2) inside [-2*cap, cap] where cap is the
  largest achievable near-side sum, and a table over (row, d, flags)
  finds, for every difference, the pair with the largest total sum, which
  at fixed difference is the pair with the smallest ratio.

Table writes follow the larger-total-sum rule: a cell is overwritten only
when unoccupied or strictly beaten on total sum, so filled cells dominate
every pair ever offered to them.  Total work is O(n^2 * pivot_weight) cell
operations.  ``exact_solver(weights, m)`` is the one entry point: it takes
the flat integer weight list and a 1-based pivot, runs both regimes per
side and returns the better pair as two index frozensets.  Wrap them with
``SolutionPair.from_sets(weights, s1, s2)`` for sums and the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import OpCounter

__all__ = [
    "DpCell",
    "DifferenceTable",
    "exact_solver",
]

# ---------------------------------------------------------------------------
# value-based per-side view
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SideView:
    """All bases relevant to one (near side, pivot weight) search."""

    n: int
    near: int
    far: int
    pivot_weight: int
    cand_bases: tuple[int, ...]   # near weight <= pivot weight (zero-weight included)
    exact_bases: frozenset[int]   # near weight == pivot weight
    heavy_bases: frozenset[int]   # far weight >= pivot weight
    cap: int                      # sum of candidate near weights


def _side_view(weights: Sequence[int], n: int, near: int, pivot_weight: int) -> _SideView:
    far = n - near
    cand = tuple(i for i in range(1, n + 1) if weights[i + near - 1] <= pivot_weight)
    exact = frozenset(i for i in cand if weights[i + near - 1] == pivot_weight)
    heavy = frozenset(i for i in range(1, n + 1) if weights[i + far - 1] >= pivot_weight)
    cap = sum(weights[i + near - 1] for i in cand)
    return _SideView(n, near, far, pivot_weight, cand, exact, heavy, cap)


# ---------------------------------------------------------------------------
# heavy-singleton regime
# ---------------------------------------------------------------------------


def _heavy_singleton(
    weights: Sequence[int], view: _SideView, counter: OpCounter | None = None
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Best pair whose far set is a single element heavier than the cap.

    For each heavy base whose far weight exceeds the cap, the candidate
    near set is every admissible near element except the scanned base's
    own; the candidate is valid only if that set still holds an element of
    exactly the pivot weight.  First strict minimum wins.
    """
    if counter is not None:
        counter.add(len(view.heavy_bases))
    cand_set = frozenset(view.cand_bases)
    best_num = best_den = 0
    best_base = None
    for i in sorted(view.heavy_bases):
        far_w = weights[i + view.far - 1]
        if far_w <= view.cap:
            continue
        if not (view.exact_bases - {i}):
            continue
        removed = weights[i + view.near - 1] if i in cand_set else 0
        denom = view.cap - removed
        assert denom >= view.pivot_weight > 0
        if best_base is None or far_w * best_den < best_num * denom:
            best_num, best_den, best_base = far_w, denom, i
    if best_base is None:
        return None
    s1 = frozenset(j + view.near for j in view.cand_bases if j != best_base)
    s2 = frozenset({best_base + view.far})
    return s1, s2


# ---------------------------------------------------------------------------
# difference-window DP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpCell:
    """Read-only view of one table cell."""

    occupied: bool
    total: int | None = None

    @classmethod
    def empty(cls) -> "DpCell":
        return cls(False)


class DifferenceTable:
    """DP table over (row, sum difference, flag pair) for one side search.

    Rows 0..n process base indices in order; the difference axis spans
    [-2*cap, cap]; the two flags record whether the near set already holds
    a pivot-valued element and whether the far set already holds a heavy
    element.  A cell stores the largest total sum among all pairs with
    that coordinate, plus the decision that produced it, so any cell can
    be reconstructed by backtracking.  Row 0 holds the empty pair at
    difference 0 with both flags clear.  Totals are kept for the final
    row only.
    """

    def __init__(
        self,
        weights: Sequence[int],
        n: int,
        near: int,
        pivot_weight: int,
        counter: OpCounter | None = None,
    ):
        if pivot_weight < 1:
            raise ValueError("pivot weight must be >= 1")
        self.weights = tuple(weights)
        view = _side_view(self.weights, n, near, pivot_weight)
        self.view = view
        self.n = n
        self.near = near
        self.far = view.far
        self.pivot_weight = pivot_weight
        self.cap = view.cap
        self.offset = 2 * self.cap
        self.width = 3 * self.cap + 1
        # extension candidates stay below 7*cap + 1; keep that inside int32
        if self.cap > (1 << 28):
            raise ValueError("difference window too large for the table dtype")
        self._steps: list[np.ndarray] = []
        self._fill(counter)

    def _fill(self, counter: OpCounter | None) -> None:
        w, n, near, far, v = self.weights, self.n, self.near, self.far, self.pivot_weight
        width = self.width
        cand_set = frozenset(self.view.cand_bases)
        ops = 0
        x = np.full((4, width), -1, dtype=np.int32)
        x[0, self.offset] = 0  # empty pair: difference 0, no flags
        for i in range(1, n + 1):
            near_w = w[i + near - 1]
            far_w = w[i + far - 1]
            new_x = x.copy()
            code = np.full((4, width), 255, dtype=np.uint8)
            for layer in range(4):
                code[layer][x[layer] >= 0] = layer  # carry, parent = same layer
            ops += 4 * width
            # far-set extension: difference shifts down by far_w; writes below
            # -2*cap fall off the window (they cannot belong to an optimal
            # pair of this regime).  Processed before near extensions; both
            # use the larger-total rule, so order only settles ties.
            if far_w > 0:
                sets_heavy = far_w >= v
                span = width - far_w
                if span > 0:
                    for src in range(4):
                        tgt = (src | 1) if sets_heavy else src
                        src_vals = x[src][far_w:]
                        dest = new_x[tgt][:span]
                        mask = (src_vals >= 0) & (src_vals + far_w > dest)
                        dest[mask] = src_vals[mask] + far_w
                        code[tgt][:span][mask] = 8 + src  # take_far
                        ops += span
            # near-set extension: only candidate bases; difference shifts up.
            if 0 < near_w and i in cand_set:
                sets_exact = near_w == v
                span = width - near_w
                for src in range(4):
                    tgt = (src | 2) if sets_exact else src
                    src_vals = x[src][:span]
                    dest = new_x[tgt][near_w:]
                    mask = (src_vals >= 0) & (src_vals + near_w > dest)
                    dest[mask] = src_vals[mask] + near_w
                    code[tgt][near_w:][mask] = 4 + src  # take_near
                    ops += span
            self._steps.append(code)
            x = new_x
        self.final = x
        ops += width  # final scan
        if counter is not None:
            counter.add(ops)

    # -- inspection ---------------------------------------------------------

    @staticmethod
    def _layer(has_pivot_value: bool, has_heavy: bool) -> int:
        return (2 if has_pivot_value else 0) | (1 if has_heavy else 0)

    def _column(self, diff: int) -> int:
        col = diff + self.offset
        if not 0 <= col < self.width:
            raise ValueError(f"difference {diff} outside window [-{2 * self.cap}, {self.cap}]")
        return col

    def occupied(self, row: int, diff: int, has_pivot_value: bool, has_heavy: bool) -> bool:
        layer = self._layer(has_pivot_value, has_heavy)
        col = self._column(diff)
        if row == 0:
            return layer == 0 and diff == 0
        if not 1 <= row <= self.n:
            raise ValueError(f"row {row} out of range 0..{self.n}")
        return self._steps[row - 1][layer][col] != 255

    def cell(self, row: int, diff: int, has_pivot_value: bool, has_heavy: bool) -> DpCell:
        """Cell view with its stored total; only the final row keeps totals."""
        if row != self.n:
            raise ValueError(f"cell totals are kept for the final row {self.n} only")
        if not self.occupied(row, diff, has_pivot_value, has_heavy):
            return DpCell.empty()
        layer = self._layer(has_pivot_value, has_heavy)
        return DpCell(True, int(self.final[layer][self._column(diff)]))

    # -- reconstruction -----------------------------------------------------

    def reconstruct(
        self, diff: int, has_pivot_value: bool = True, has_heavy: bool = True
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Walk decisions back from the final row and rebuild the stored pair.

        Verifies index discipline on the way out: the near set only holds
        near-side candidate elements, the far set only far-side elements,
        no base occurs on both sides, the sums reproduce the cell's
        difference and total, and the flag bits match the rebuilt sets.
        """
        layer = self._layer(has_pivot_value, has_heavy)
        col = self._column(diff)
        if not self.occupied(self.n, diff, has_pivot_value, has_heavy):
            raise ValueError("cannot reconstruct an unoccupied cell")
        s1: set[int] = set()
        s2: set[int] = set()
        r, l, c = self.n, layer, col
        while r > 0:
            code = int(self._steps[r - 1][l][c])
            if code == 255:
                raise AssertionError("backtracking reached an unoccupied cell")
            decision, parent = divmod(code, 4)
            if decision == 1:
                s1.add(r + self.near)
                c -= self.weights[r + self.near - 1]
            elif decision == 2:
                s2.add(r + self.far)
                c += self.weights[r + self.far - 1]
            l = parent
            r -= 1
        if l != 0 or c != self.offset:
            raise AssertionError("backtracking did not end at the empty pair")
        self._check_discipline(s1, s2, diff, layer)
        return frozenset(s1), frozenset(s2)

    def _check_discipline(self, s1: set[int], s2: set[int], diff: int, layer: int) -> None:
        v = self.pivot_weight
        lo1, lo2 = self.near + 1, self.far + 1
        if not all(lo1 <= i <= self.near + self.n for i in s1):
            raise AssertionError("near set left its side")
        if not all(lo2 <= j <= self.far + self.n for j in s2):
            raise AssertionError("far set left its side")
        if {(i - 1) % self.n for i in s1} & {(j - 1) % self.n for j in s2}:
            raise AssertionError("a pair contributed to both sets")
        sum1 = sum(self.weights[i - 1] for i in s1)
        sum2 = sum(self.weights[j - 1] for j in s2)
        if sum1 - sum2 != diff:
            raise AssertionError("reconstructed sums do not match the difference axis")
        if any(self.weights[i - 1] > v for i in s1):
            raise AssertionError("near set holds an element above the pivot weight")
        if (layer & 2 != 0) != any(self.weights[i - 1] == v for i in s1):
            raise AssertionError("pivot-value flag inconsistent with the near set")
        if (layer & 1 != 0) != any(self.weights[j - 1] >= v for j in s2):
            raise AssertionError("heavy flag inconsistent with the far set")
        if sum1 + sum2 != int(self.final[layer][diff + self.offset]):
            raise AssertionError("reconstructed total does not match the stored cell")

    # -- final scan ---------------------------------------------------------

    def best_cell(self) -> tuple[int, int] | None:
        """(difference, total) of the min-ratio cell among (row n, both flags).

        Scans differences in increasing order; ties keep the earlier one.
        The ratio of a cell is (total+|d|)/(total-|d|), the larger sum over
        the smaller, compared exactly.
        """
        totals = self.final[3]
        cols = np.nonzero(totals >= 0)[0]
        if cols.size == 0:
            return None
        diffs = cols.astype(np.int64) - self.offset
        tot = totals[cols].astype(np.int64)
        num = tot + np.abs(diffs)
        den = tot - np.abs(diffs)
        assert (den > 0).all()
        # float prefilter, exact integer tie-break among near-minimal entries
        approx = num / den
        keep = np.nonzero(approx <= approx.min() * (1.0 + 1e-9))[0]
        best = None
        for k in keep:
            cand = (int(num[k]), int(den[k]), int(diffs[k]))
            if best is None or cand[0] * best[1] < best[0] * cand[1]:
                best = cand
        assert best is not None
        diff = best[2]
        total = int(totals[diff + self.offset])
        return diff, total


# ---------------------------------------------------------------------------
# full solver
# ---------------------------------------------------------------------------


def _pair_key(weights: Sequence[int], sets: tuple[frozenset[int], frozenset[int]]) -> tuple[int, int]:
    sum1 = sum(weights[i - 1] for i in sets[0])
    sum2 = sum(weights[j - 1] for j in sets[1])
    return max(sum1, sum2), min(sum1, sum2)


def _strictly_better(
    weights: Sequence[int],
    cand: tuple[frozenset[int], frozenset[int]] | None,
    incumbent: tuple[frozenset[int], frozenset[int]] | None,
) -> bool:
    if cand is None:
        return False
    if incumbent is None:
        return True
    chi, clo = _pair_key(weights, cand)
    ihi, ilo = _pair_key(weights, incumbent)
    return chi * ilo < ihi * clo


def _solve_one_side(
    weights: Sequence[int], n: int, near: int, pivot_weight: int, counter: OpCounter | None
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Exact optimum among solutions whose pivot-valued set lies on `near`."""
    view = _side_view(weights, n, near, pivot_weight)
    if not view.exact_bases or not view.heavy_bases:
        return None
    table = DifferenceTable(weights, n, near, pivot_weight, counter)
    dp_best = table.best_cell()
    dp_sets = table.reconstruct(dp_best[0]) if dp_best is not None else None
    singleton_sets = _heavy_singleton(weights, view, counter)
    # the DP result stands unless the singleton scan is strictly better
    if _strictly_better(weights, singleton_sets, dp_sets):
        return singleton_sets
    return dp_sets


def exact_solver(
    weights: Sequence[int], m: int, counter: OpCounter | None = None
) -> tuple[frozenset[int], frozenset[int]]:
    """Exact pivoted optimum: integer weights (zeros allowed), 1-based pivot m.

    Zero weights arise from FPTAS scaling; they can never join a solution
    (extensions must strictly raise the stored total and the flag bits need
    weight >= the pivot weight >= 1), so they are carried harmlessly.
    Returns two frozensets; both empty means infeasible.
    """
    if len(weights) % 2 != 0 or not weights:
        raise ValueError("flattened weight list must have positive even length")
    n = len(weights) // 2
    if not 1 <= m <= 2 * n:
        raise ValueError(f"pivot {m} out of range 1..{2 * n}")
    for w in weights:
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise ValueError("weights must be integers >= 0")
    pivot_weight = weights[m - 1]
    if pivot_weight < 1:
        raise ValueError("pivot weight must be >= 1")

    near = 0 if m <= n else n
    best = _solve_one_side(weights, n, near, pivot_weight, counter)
    far = n - near
    # the pivot weight may also be realised on the opposite side
    if any(weights[i + far - 1] == pivot_weight for i in range(1, n + 1)):
        other = _solve_one_side(weights, n, far, pivot_weight, counter)
        if _strictly_better(weights, other, best):
            best = other
    if best is None:
        return frozenset(), frozenset()
    return best
