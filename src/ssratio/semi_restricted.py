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
  finds, for every difference, the pair with both flags set and the
  largest total sum, which at fixed difference is the pair with the
  smallest ratio.

Table writes follow the larger-total-sum rule: a cell is overwritten only
when unoccupied or strictly beaten on total sum, so filled cells dominate
every pair ever offered to them.  The fill realises the rule with packed
int32 keys, total * 8 + priority, and one numpy maximum per extension
phase over the live flag layers.  The carry gets priority 6, a far
extension 5 and a near extension 3, one less from a source already
holding the row's bit: a target layer's sequential order, carry, far,
near, each by ascending source, so the maximum keeps the first candidate
with the largest total, ties included.  An empty cell holds -2**31; each
row stores its 3-bit priorities (7: empty) as uint8 and a fixed per-row
plan maps them back to decision codes.  Each row touches only its live
band of differences and its live flag layers: those some earlier row
could set that later rows can still complete to both flags, the only
layer the answer is read from.  It stores codes for that band alone, as
a column slice of one code buffer per table; ``dp_cell_ops`` counts the
cells touched.
Total work is O(n^2 * pivot_weight) cell operations.

When both sides carry the same weights (the ssr encoding, factor-r with
r = 1), the search for one side is the other side's search with every
index moved to the other half, so ``exact_solver`` runs only one of them
and mirrors its result into the other.

``exact_solver(weights, m)`` is the one entry point: it takes the flat
integer weight list and a 1-based pivot, runs both regimes per side and
returns the better pair as two index frozensets.  Wrap them with
``SolutionPair.from_sets(weights, s1, s2)`` for sums and the objective.
A ``DifferenceTable`` can also be built and read on its own:
``occupied`` for any kept cell, and ``total``, ``best_cell`` and
``reconstruct`` for the final row's both-flags layer, the only one whose
totals it keeps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import OpCounter

__all__ = [
    "DifferenceTable",
    "exact_solver",
]

# Largest DifferenceTable, in bytes of row buffers, scratch and decision codes.
# Its two (4, 3 * cap + 1) int32 row buffers alone bound the cap, and at that
# cap every key stays inside int32 (keys are total * 8 + priority, see
# DifferenceTable): an occupied key is below 8 * (7 * cap + 1) + 6, and an
# empty cell, which starts at -2**31 and gains at most 8 * (its element's
# weight) per row, stays below -2**31 + 8 * (5 * cap + 1) + 6 along any chain
# of rows (near weights add up to at most cap, and far weights, whose shifts
# keep the column inside the window, to at most 4 * cap + 1).
MAX_TABLE_BYTES = 2 << 30
_MAX_CAP = (MAX_TABLE_BYTES // 32 - 1) // 3
assert 8 * (7 * _MAX_CAP + 1) + 6 < 2**31 and -(2**31) + 8 * (5 * _MAX_CAP + 1) + 6 < 0

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
    cand_set: frozenset[int]      # the same bases, for membership tests
    exact_bases: frozenset[int]   # near weight == pivot weight
    heavy_bases: frozenset[int]   # far weight >= pivot weight
    cap: int                      # sum of candidate near weights


def _side_view(weights: Sequence[int], n: int, near: int, pivot_weight: int) -> _SideView:
    far = n - near
    cand = tuple(i for i in range(1, n + 1) if weights[i + near - 1] <= pivot_weight)
    exact = frozenset(i for i in cand if weights[i + near - 1] == pivot_weight)
    heavy = frozenset(i for i in range(1, n + 1) if weights[i + far - 1] >= pivot_weight)
    cap = sum(weights[i + near - 1] for i in cand)
    return _SideView(n, near, far, pivot_weight, cand, frozenset(cand), exact, heavy, cap)


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
    best_num = best_den = 0
    best_base = None
    for i in sorted(view.heavy_bases):
        far_w = weights[i + view.far - 1]
        if far_w <= view.cap:
            continue
        if not (view.exact_bases - {i}):
            continue
        removed = weights[i + view.near - 1] if i in view.cand_set else 0
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


# Keys are total * 8 + priority (see DifferenceTable).  An empty cell holds
# _EMPTY, and sums built on it stay negative (see MAX_TABLE_BYTES).
_EMPTY = np.iinfo(np.int32).min
_CARRY = 6          # priority of the carry, the first candidate of every layer
_NO_CELL = 7        # stored priority of an empty cell

# Flag layers a row keeps: reachable by some pair and still completable to
# the answer layer 3 (see _row_plan).  Each set is one basic slice; the
# fill starts from the first.
_LIVE_SETS = (
    (0,), (0, 1), (0, 2), (0, 1, 2), (0, 1, 2, 3),
    (1,), (2,), (3,), (1, 3), (2, 3), (),
)


def _as_slice(layers: Sequence[int]) -> slice:
    if not layers:
        return slice(0, 0)
    step = layers[1] - layers[0] if len(layers) > 1 else 1
    assert list(layers) == list(range(layers[0], layers[-1] + 1, step))
    return slice(layers[0], layers[-1] + 1, step)


_LIVE_SLICES = tuple(_as_slice(live) for live in _LIVE_SETS)


@dataclass(frozen=True)
class _RowPlan:
    """The numpy work of one row, fixed by its live set, flag bits and the
    flag bits later rows can still set.

    A layer is alive after the row while later rows can still complete it
    to layer 3; only alive layers are written.  `carry` holds the live
    layers that stay alive (`carried` of them).  `far` and `near` hold one
    (source layers, target layers, layer count, priority) pass for the live
    sources without the row's bit and one for those with it, each keeping
    only sources whose target is alive.  Priorities: carry 6, far extension
    5, near extension 3, one less from a source holding the bit.  Two
    sources of one kind share a target only when the higher one alone
    holds the bit, so this is the sequential order: carry, far, near, each
    by ascending source.  `lut[layer][priority]` is the decision code of
    that candidate (255: none).  `after[far ran][near ran]` indexes the
    next row's live set.
    """

    carry: slice
    carried: int
    far: tuple[tuple[slice, slice, int, int], ...]
    near: tuple[tuple[slice, slice, int, int], ...]
    lut: tuple[tuple[int, ...], ...]
    after: tuple[tuple[int, int], tuple[int, int]]


@functools.cache
def _row_plan(live: int, far_bit: int, near_bit: int, later: int) -> _RowPlan:
    """Plan of a row whose live set is _LIVE_SETS[live] and after which
    rows can still set the flag bits in `later`."""
    sources = _LIVE_SETS[live]
    alive = {s for s in range(4) if s | later == 3}
    # decision codes: carry = layer, take_near = 4 + source, take_far = 8 + source
    lut = tuple(
        (255, 255, 4 + t, 4 + (t & ~near_bit), 8 + t, 8 + (t & ~far_bit), t, 255) for t in range(4)
    )

    def passes(bit: int, prio: int) -> tuple[tuple[slice, slice, int, int], ...]:
        useful = [s for s in sources if s | bit in alive]
        groups = ([s for s in useful if not s & bit], [s for s in useful if s & bit])
        return tuple(
            (_as_slice(srcs), _as_slice([s | bit for s in srcs]), len(srcs), prio - held)
            for held, srcs in enumerate(groups)
            if srcs
        )

    def after(far_ran: bool, near_ran: bool) -> int:
        grown = set(sources)
        grown |= {s | far_bit for s in sources if far_ran}
        grown |= {s | near_bit for s in sources if near_ran}
        return _LIVE_SETS.index(tuple(sorted(grown & alive)))

    carried = [s for s in sources if s in alive]
    return _RowPlan(
        _as_slice(carried),
        len(carried),
        passes(far_bit, 5),
        passes(near_bit, 3),
        lut,
        tuple((after(f, False), after(f, True)) for f in (False, True)),
    )


def _code_columns(bands: list[tuple[int, int]]) -> int:
    """Columns of the table's code buffer: the bands of rows 1..n side by side."""
    return sum(hi - lo + 1 for lo, hi in bands[1:])


class DifferenceTable:
    """DP table over (row, sum difference, flag pair) for one side search.

    Rows 0..n process base indices in order; the difference axis spans
    [-2*cap, cap]; the two flags record whether the near set already holds
    a pivot-valued element and whether the far set already holds a heavy
    element.  Only cells whose flags rows after theirs can still complete
    to both flags are kept: a layer without the pivot-value flag dies
    after the last row with a pivot-valued near weight, one without the
    heavy flag after the last row with a heavy far weight, and the final
    row holds the both-flags layer alone.  A kept cell stores the largest
    total sum among all pairs with that coordinate, plus the decision that
    produced it, so it can be reconstructed by backtracking.  Row 0 holds
    the empty pair at difference 0 with both flags clear, kept if some row
    can set each flag.  Totals are kept for the final row only.

    Row i can only occupy its live band of columns,
    [offset - min(2*cap, far prefix sum), offset + candidate near prefix
    sum], and only the flag layers some earlier row could set and some
    later rows can complete.  The fill touches nothing else.  It works on
    int32 keys, total * 8 + priority, with _EMPTY for an empty cell, in
    two (4, width) row buffers that it swaps and a (4, final band) scratch
    buffer: per row one add for the carry and, per extension phase, one
    add into the scratch and one maximum over the live layers (a second
    pair where two source layers share a target).  Priorities follow the
    rule in _RowPlan, so the maximum keeps the sequential order's first
    candidate with the largest total.  At row end the 3-bit priorities of the band (7:
    empty) are stored as uint8 with the band's first column, and cleared
    from the keys; the row's plan maps a priority back to its decision
    code.  The codes of all rows share one (4, summed band widths) buffer,
    allocated once per table; each row stores into its own column slice.
    The counter gets the cells actually touched.  The memory a table needs
    is predicted from the bands before anything is allocated, and a table
    over MAX_TABLE_BYTES is refused.
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
        bands = self._bands()
        need = self._predicted_bytes(bands)
        if need > MAX_TABLE_BYTES:
            raise ValueError(
                f"difference table needs {need} bytes, over the {MAX_TABLE_BYTES}-byte limit"
            )
        self._steps: list[tuple[int, np.ndarray, tuple[tuple[int, ...], ...]]] = []
        self._fill(bands, counter)

    def _bands(self) -> list[tuple[int, int]]:
        """First and last live column of rows 0..n; each contains the last."""
        w, near, far = self.weights, self.near, self.far
        cand_set = self.view.cand_set
        lo = hi = self.offset
        bands = [(lo, hi)]
        for i in range(1, self.n + 1):
            lo = max(0, lo - w[i + far - 1])
            if i in cand_set:
                hi += w[i + near - 1]
            bands.append((lo, hi))
        return bands

    def _predicted_bytes(self, bands: list[tuple[int, int]]) -> int:
        """Bytes of the two row buffers, the scratch and the band codes."""
        lo, hi = bands[-1]  # the widest band
        return 2 * 4 * self.width * 4 + 4 * (hi - lo + 1) * 4 + 4 * _code_columns(bands)

    def _fill(self, bands: list[tuple[int, int]], counter: OpCounter | None) -> None:
        w, n, near, far, v = self.weights, self.n, self.near, self.far, self.pivot_weight
        view = self.view
        # later[i]: the flag bits rows after row i can still set; a layer s
        # of row i can reach the answer layer 3 only while s | later[i] == 3
        later = [0] * (n + 1)
        for i in range(n, 0, -1):
            later[i - 1] = later[i] | 2 * (i in view.exact_bases) | (i in view.heavy_bases)
        ops = 0
        x = np.full((4, self.width), _EMPTY, dtype=np.int32)
        y = np.full((4, self.width), _EMPTY, dtype=np.int32)
        z = np.empty((4, bands[n][1] - bands[n][0] + 1), dtype=np.int32)
        codes = np.full((4, _code_columns(bands)), _NO_CELL, dtype=np.uint8)
        start = 0
        x[0, self.offset] = 0  # empty pair: difference 0, no flags
        live = 0  # index into _LIVE_SETS
        for i in range(1, n + 1):
            near_w = w[i + near - 1]
            far_w = w[i + far - 1]
            lo0, hi0 = bands[i - 1]
            lo, hi = bands[i]
            plan = _row_plan(live, int(far_w >= v), 2 * (near_w == v), later[i])
            # y holds row i-2.  A layer alive after row i is either carried
            # over row i-1's band, which contains every earlier band, or was
            # never reached and is still _EMPTY; layers that died keep stale
            # keys that no row reads
            if plan.carried:
                layers = plan.carry
                np.add(x[layers, lo0:hi0 + 1], _CARRY, out=y[layers, lo0:hi0 + 1])
                ops += plan.carried * (hi0 - lo0 + 1)
            # far-set extension: difference shifts down by far_w; writes below
            # -2*cap fall off the window (they cannot belong to an optimal
            # pair of this regime)
            span = hi0 - far_w - lo + 1
            far_on = far_w > 0 and span > 0
            if far_on:
                for src, tgt, k, prio in plan.far:
                    buf = z[:k, :span]
                    np.add(x[src, lo + far_w:hi0 + 1], prio + 8 * far_w, out=buf)
                    dest = y[tgt, lo:lo + span]
                    np.maximum(dest, buf, out=dest)
                    ops += k * span
            # near-set extension: only candidate bases; difference shifts up
            near_on = near_w > 0 and i in view.cand_set
            if near_on:
                for src, tgt, k, prio in plan.near:
                    buf = z[:k, :hi0 - lo0 + 1]
                    np.add(x[src, lo0:hi0 + 1], prio + 8 * near_w, out=buf)
                    dest = y[tgt, lo0 + near_w:hi + 1]
                    np.maximum(dest, buf, out=dest)
                    ops += k * (hi0 - lo0 + 1)
            live = plan.after[far_on][near_on]
            code = codes[:, start:start + hi - lo + 1]
            start += hi - lo + 1
            count = len(_LIVE_SETS[live])
            if count:
                # store the band's priorities, 7 for a negative (empty) key,
                # then clear them from the keys
                layers = _LIVE_SLICES[live]
                keys = y[layers, lo:hi + 1]
                low = z[:count, :hi - lo + 1]
                # (np.maximum with a scalar -1 does the same, but numpy 2 runs
                # a scalar maximum far slower than these two)
                np.right_shift(keys, 31, out=low)
                np.bitwise_or(low, keys, out=low)  # negative keys become -1
                stored = code[layers]
                np.copyto(stored, low, casting="unsafe")  # the low byte
                np.bitwise_and(stored, 7, out=stored)
                np.bitwise_and(keys, -8, out=keys)
            self._steps.append((lo, code, plan.lut))
            x, y = y, x
        lo, hi = bands[n]
        # the final row keeps layer 3 alone (later[n] == 0)
        final = x[3]
        np.right_shift(final[lo:hi + 1], 3, out=final[lo:hi + 1])  # keys to totals
        self.final = final
        self._final_band = (lo, hi)
        ops += hi - lo + 1  # final scan
        if counter is not None:
            counter.add(ops)

    # -- inspection ---------------------------------------------------------

    def _column(self, diff: int) -> int:
        col = diff + self.offset
        if not 0 <= col < self.width:
            raise ValueError(f"difference {diff} outside window [-{2 * self.cap}, {self.cap}]")
        return col

    def _code(self, row: int, layer: int, col: int) -> int:
        """Decision code of a cell in rows 1..n; 255 (empty) outside its band."""
        start, code, lut = self._steps[row - 1]
        k = col - start
        return lut[layer][code[layer, k]] if 0 <= k < code.shape[1] else 255

    def occupied(self, row: int, diff: int, has_pivot_value: bool, has_heavy: bool) -> bool:
        """Whether the table keeps a pair at this cell.

        A cell whose flags no later row can complete to both flags reads
        unoccupied even when some pair reaches it; in the final row only
        the both-flags layer can be occupied.
        """
        layer = 2 * has_pivot_value | has_heavy
        col = self._column(diff)
        if row == 0:
            completable = bool(self.view.exact_bases and self.view.heavy_bases)
            return layer == 0 and diff == 0 and completable
        if not 1 <= row <= self.n:
            raise ValueError(f"row {row} out of range 0..{self.n}")
        return self._code(row, layer, col) != 255

    def total(self, diff: int) -> int | None:
        """Stored total of the final row's both-flags cell, the only layer
        the final row keeps; None when that cell is unoccupied."""
        if not self.occupied(self.n, diff, True, True):
            return None
        return int(self.final[self._column(diff)])

    # -- reconstruction -----------------------------------------------------

    def reconstruct(self, diff: int) -> tuple[frozenset[int], frozenset[int]]:
        """Walk decisions back from the final row's both-flags cell at `diff`
        and rebuild the stored pair.

        Verifies index discipline on the way out: the near set only holds
        near-side candidate elements, the far set only far-side elements,
        no base occurs on both sides, the sums reproduce the cell's
        difference and total, and both flags hold for the rebuilt sets.
        """
        if self.total(diff) is None:
            raise ValueError("cannot reconstruct an unoccupied cell")
        s1: set[int] = set()
        s2: set[int] = set()
        r, l, c = self.n, 3, self._column(diff)
        while r > 0:
            code = self._code(r, l, c)
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
        self._check_discipline(s1, s2, diff)
        return frozenset(s1), frozenset(s2)

    def _check_discipline(self, s1: set[int], s2: set[int], diff: int) -> None:
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
        if not any(self.weights[i - 1] == v for i in s1):
            raise AssertionError("near set holds no pivot-valued element")
        if not any(self.weights[j - 1] >= v for j in s2):
            raise AssertionError("far set holds no heavy element")
        if sum1 + sum2 != int(self.final[diff + self.offset]):
            raise AssertionError("reconstructed total does not match the stored cell")

    # -- final scan ---------------------------------------------------------

    def best_cell(self) -> tuple[int, int] | None:
        """(difference, total) of the min-ratio cell among (row n, both flags).

        Scans differences in increasing order; ties keep the earlier one.
        The ratio of a cell is (total+|d|)/(total-|d|), the larger sum over
        the smaller, compared exactly.
        """
        lo, hi = self._final_band
        totals = self.final[lo:hi + 1]
        cols = np.nonzero(totals >= 0)[0]
        if cols.size == 0:
            return None
        diffs = cols.astype(np.int64) + (lo - self.offset)
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
        total = int(totals[diff + self.offset - lo])
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
    far = n - near
    if pivot_weight not in weights[near:near + n] or max(weights[far:far + n]) < pivot_weight:
        return None
    table = DifferenceTable(weights, n, near, pivot_weight, counter)
    dp_best = table.best_cell()
    dp_sets = table.reconstruct(dp_best[0]) if dp_best is not None else None
    singleton_sets = _heavy_singleton(weights, table.view, counter)
    # the DP result stands unless the singleton scan is strictly better
    if _strictly_better(weights, singleton_sets, dp_sets):
        return singleton_sets
    return dp_sets


def _mirrored(
    sets: tuple[frozenset[int], frozenset[int]] | None, n: int
) -> tuple[frozenset[int], frozenset[int]] | None:
    """A side's result with every index moved to the other half."""
    if sets is None:
        return None
    return tuple(frozenset(i + n if i <= n else i - n for i in part) for part in sets)


def exact_solver(
    weights: Sequence[int],
    m: int,
    counter: OpCounter | None = None,
    *,
    memo: dict | None = None,
) -> tuple[frozenset[int], frozenset[int]]:
    """Exact pivoted optimum: integer weights (zeros allowed), 1-based pivot m.

    Zero weights arise from FPTAS scaling; they can never join a solution
    (extensions must strictly raise the stored total and the flag bits need
    weight >= the pivot weight >= 1), so they are carried harmlessly.
    Returns two frozensets; both empty means infeasible.

    A per-side search depends only on the weights, the near side and the
    pivot weight, so pivots of equal weight share it.  `memo`, a dict the
    caller keeps for calls on the same `weights`, stores each side's result
    by (near side, pivot weight); a repeated side costs no cells.  When
    weights[:n] == weights[n:], a side whose twin (the other near side, same
    pivot weight) is already in the memo takes the twin's result with every
    index shifted by n, at no cells: both sides then have the same view and
    the same table.
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

    memo = {} if memo is None else memo

    def search(side: int) -> tuple[frozenset[int], frozenset[int]] | None:
        key = (side, pivot_weight)
        if key not in memo:
            twin = (n - side, pivot_weight)
            if twin in memo and weights[:n] == weights[n:]:
                memo[key] = _mirrored(memo[twin], n)
            else:
                memo[key] = _solve_one_side(weights, n, side, pivot_weight, counter)
        return memo[key]

    near = 0 if m <= n else n
    best = search(near)
    # the pivot weight may also be realised on the opposite side
    other = search(n - near)
    if _strictly_better(weights, other, best):
        best = other
    if best is None:
        return frozenset(), frozenset()
    return best
