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
every pair ever offered to them.  A cell's total is the maximum over the
candidates offered to it, whichever of them the rule keeps, so the fill
works on plain sums and never records a decision.  At a fixed difference
d the total is 2 * (near sum) - d, so a cell stores its near sum, at
most cap: int16 while cap < 2**15, else int32, with the dtype's minimum
for an empty cell (sums built on it stay negative).  A row is one ordered
list of passes (``_RowPlan``): the fill runs each as a numpy copy or
maximum over the live flag layers, and backtracking settles which
candidate the rule kept by walking the same passes in the same order.
Each row touches only its live band of differences and its live flag
layers: those some earlier row could set that later rows can still
complete to both flags, the only layer the answer is read from.  It
stores its sums for those layers and that band alone, as its own slice
of one store per table; ``dp_cell_ops`` counts the cells touched.
Total work is O(n^2 * pivot_weight) cell operations.

When both sides carry the same weights (the ssr encoding, factor-r with
r = 1), the search for one side is the other side's search with every
index moved to the other half, so ``exact_solver`` runs only one of them
and mirrors its result into the other.

``exact_solver(weights, m)`` is the one entry point: it takes the flat
integer weight list and a 1-based pivot, runs both regimes per side and
returns the better pair as two index frozensets.  Wrap them with
``SolutionPair.from_sets(weights, s1, s2)`` for sums and the objective.
A ``DifferenceTable`` can also be built and read on its own: ``total``,
``best_cell`` and ``reconstruct`` read the final row's both-flags layer,
the only layer the final row keeps.
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

# Largest DifferenceTable, in bytes of its sum store and scratch.  A table
# with cap >= 2**15 stores int32 sums, and its (4, final band) scratch alone
# bounds the cap: the final band spans at least [2 * cap, 3 * cap], so
# 16 * (cap + 1) bytes.  At that cap every sum stays inside int32: a stored
# near sum is at most cap, and an empty cell, which starts at -2**31 and
# gains near weights that add up to at most cap along any chain of rows,
# stays negative.
MAX_TABLE_BYTES = 2 << 30
_MAX_CAP = MAX_TABLE_BYTES // 16 - 1
assert -(2**31) + _MAX_CAP < 0

# Stored cells of the full layout from which a table is clipped to its
# window.  Measured on the tables of the three benchmark workloads (seed 5),
# best of 5 builds each, median of clipped over full time per bin of stored
# cells: +8% to +15% below 2**10, +1% to +5% from 2**10 to 2**15, then -4%
# in [2**15, 2**16), -8% in [2**16, 2**17), -19% in [2**18, 2**19) and -25%
# in [2**19, 2**20).
_CLIP_MIN_CELLS = 2**15

# A side search answers with (larger sum, smaller sum, sets); a beats b when
# a[0] * b[1] < b[0] * a[1].  No pair reads as 1/0: it beats none, all beat it.
_NO_PAIR = (1, 0, (frozenset(), frozenset()))

# ---------------------------------------------------------------------------
# heavy-singleton regime
# ---------------------------------------------------------------------------


def _heavy_singleton(
    table: DifferenceTable, counter: OpCounter | None = None
) -> tuple[int, int, tuple[frozenset[int], frozenset[int]]]:
    """Best pair whose far set is a single element heavier than the cap, as
    (far weight, near sum, sets); _NO_PAIR when there is none.

    For each base whose far weight exceeds the cap, the candidate near set
    is every admissible near element except the scanned base's own; the
    candidate is valid only if that set still holds an element of exactly
    the pivot weight.  Bases are scanned in ascending order and the first
    strict minimum wins.  The counter gets one cell per far weight >= the
    pivot weight.
    """
    v, cap = table.pivot_weight, table.cap
    near_ws, far_ws = table.near_weights, table.far_weights
    if counter is not None:
        counter.add(sum(w >= v for w in far_ws))
    exact = near_ws.count(v)
    best_num = best_den = 0
    best_base = None
    for i, (near_w, far_w) in enumerate(zip(near_ws, far_ws), 1):
        if far_w <= cap or exact == (near_w == v):  # no other pivot-valued near element
            continue
        denom = cap - (near_w if near_w <= v else 0)
        assert denom >= v > 0
        if best_base is None or far_w * best_den < best_num * denom:
            best_num, best_den, best_base = far_w, denom, i
    if best_base is None:
        return _NO_PAIR
    s1 = frozenset(j + table.near for j, w in enumerate(near_ws, 1) if w <= v and j != best_base)
    s2 = frozenset({best_base + table.far})
    return best_num, best_den, (s1, s2)


# ---------------------------------------------------------------------------
# difference-window DP
# ---------------------------------------------------------------------------


def _sum_dtype(cap: int) -> type:
    """Store dtype of a table: it holds near sums up to cap, and an empty
    cell, the dtype's minimum, stays negative after gaining near weights
    that add up to at most cap."""
    return np.int16 if cap < 2**15 else np.int32


def _as_slice(positions: Sequence[int]) -> slice:
    step = positions[1] - positions[0] if len(positions) > 1 else 1
    assert list(positions) == list(range(positions[0], positions[-1] + 1, step))
    return slice(positions[0], positions[-1] + 1, step)


# Pass kinds, in the order a row runs them.
_CARRY, _FAR, _NEAR = range(3)


@dataclass(frozen=True)
class _RowPlan:
    """The numpy work of one row: its passes, in order, the live set it
    stores, and per stored layer the candidates backtracking walks.

    A pass (kind, bit, layers, source positions, target positions) moves
    each layer s in `layers` of the previous row to layer s | bit of this
    row.  The carry (bit 0) keeps the difference, a far extension lowers
    it by the row's far weight and a near extension raises it by the
    row's near weight, which it also adds to the near sum.  The passes
    come in the order the sequential larger-total rule offers candidates
    to a cell: the carry, then the far extensions, then the near
    extensions, each by ascending source layer.  Within a kind the
    sources without the row's bit come before those with it, so sources
    that share a target ascend; two sources of one pass never share a
    target.  A pass keeps only sources whose target is alive, that is,
    later rows can still complete it to layer 3, and the row stores the
    union of the targets, `after`, in ascending order.  Positions are
    slices into the previous row's and this row's stored layers.
    `candidates[t]` lists the (kind, source layer, source position) that
    write layer t, in pass order.
    """

    passes: tuple[tuple[int, int, tuple[int, ...], slice, slice], ...]
    after: tuple[int, ...]
    candidates: tuple[tuple[tuple[int, int, int], ...], ...]


@functools.cache
def _row_plan(
    sources: tuple[int, ...], far_bit: int | None, near_bit: int | None, later: int
) -> _RowPlan:
    """Plan of a row whose previous row keeps the layers `sources`, whose
    far and near extensions set the given flag bits (None: that kind does
    not run) and after which rows can still set the flag bits in `later`."""
    groups = []
    for kind, bit in (_CARRY, 0), (_FAR, far_bit), (_NEAR, near_bit):
        if bit is None:
            continue
        useful = [s for s in sources if s | bit | later == 3]
        for layers in (tuple(s for s in useful if not s & bit), tuple(s for s in useful if s & bit)):
            if layers:
                groups.append((kind, bit, layers))
    kept = tuple(sorted({s | bit for _, bit, layers in groups for s in layers}))
    passes = tuple(
        (kind, bit, layers, _as_slice([sources.index(s) for s in layers]),
         _as_slice([kept.index(s | bit) for s in layers]))
        for kind, bit, layers in groups
    )
    candidates = [[] for _ in range(4)]
    for kind, bit, layers in groups:
        for s in layers:
            candidates[s | bit].append((kind, s, sources.index(s)))
    return _RowPlan(passes, kept, tuple(map(tuple, candidates)))


class DifferenceTable:
    """DP table over (row, sum difference, flag pair) for one side search.

    Rows 0..n process base indices in order; the difference axis spans
    [-2*cap, cap]; the two flags record whether the near set already holds
    a pivot-valued element and whether the far set already holds a heavy
    element.  Only cells whose flags rows after theirs can still complete
    to both flags are kept: a layer without the pivot-value flag dies
    after the last row with a pivot-valued near weight, one without the
    heavy flag after the last row with a heavy far weight, and the final
    row holds the both-flags layer alone.  A kept cell holds the largest
    total sum among all pairs with that coordinate, stored as the near sum
    of such a pair (total = 2 * near sum - difference).  Row 0 holds the
    empty pair at difference 0 with both flags clear, kept if some row can
    set each flag.

    Row i can only occupy its live band of columns, [offset - min(2*cap, far
    prefix sum), offset + candidate near prefix sum], the far prefix sum
    counting only rows whose far pass runs, and only the flag layers some
    earlier row could set and later rows can complete.  The fill touches
    nothing else.  It works in one store of sums (see _sum_dtype) allocated
    once per table: each row is a (live layers, band) block of it, written
    in place, and a (4, widest band) scratch takes the near-shifted sources.
    Per row it runs the row's passes (see _RowPlan), each clamped to the
    row's band and skipped when empty: a copy for the carry, a maximum into
    the row's block for a far pass, and an add into the scratch and a
    maximum for a near pass.

    A table whose full layout stores at least _CLIP_MIN_CELLS cells (below
    that, clipping costs more than it saves) derives a window W from its
    greedy pair (see _window) and keeps only the cells that can still reach
    a final difference in [-W, W]: row i keeps [offset - W - nsuf_i,
    offset + W + fsuf_i] of its band, nsuf_i and fsuf_i summing the near and
    far weights of the later rows whose near or far pass runs.  Cells
    outside the window read as unoccupied, in every row.  The window is
    exact for the answer because:

    1. every predecessor of a kept cell is kept (a carry keeps the column,
       and a row's far or near pass moves it by the weight it adds to
       fsuf or nsuf), so kept cells hold the full table's sums and
       backtracking replays the full table's candidates;
    2. the greedy pair is one the DP represents: near weights <= v
       including a pivot-valued one, a heavy far weight, disjoint bases;
    3. its ratio hi/lo <= 2 keeps its far sum <= 2*cap, so every far pass
       it uses runs and none of its partial differences leaves [-2*cap, cap];
    4. so the best cell has ratio <= hi/lo, and as a cell's ratio is at
       least 1 + |d|/cap (its smaller sum is at most cap), every cell that
       good, ties included, has |d| <= W = floor((hi - lo) * cap / lo).
       best_cell, its tie rule and the heavy-singleton comparison see
       what they see in the full table.

    Backtracking replays the sequential larger-total rule instead of
    storing decisions.  At row r, layer t, column c with near sum S it
    walks the candidates of row r's plan for layer t, in pass order, and
    takes the first source s whose sum in row r-1, at the column the pass
    moves to c, plus the near weight the pass adds equals S.  The counter
    gets the cells actually touched.  The memory a table needs is
    predicted from the full bands and live sets before anything is
    allocated, clipped or not, and a table over MAX_TABLE_BYTES is refused;
    the scratch of a full table alone bounds an admitted table's cap at
    134,217,727.
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
        self.n = n
        self.near = near
        self.far = n - near
        self.pivot_weight = pivot_weight
        # row i's near and far weights, at index i - 1
        self.near_weights = self.weights[near:near + n]
        self.far_weights = self.weights[self.far:self.far + n]
        self.cap = sum(w for w in self.near_weights if w <= pivot_weight)
        self.offset = 2 * self.cap
        self.width = 3 * self.cap + 1
        layout = self._bands()
        need = self._predicted_bytes(layout)
        if need > MAX_TABLE_BYTES:
            raise ValueError(
                f"difference table needs {need} bytes, over the {MAX_TABLE_BYTES}-byte limit"
            )
        # the gate admits only tables that store cells, and those hold a
        # pivot-valued near weight and a heavy far one, as _greedy_pair needs
        if sum(layout[1]) >= _CLIP_MIN_CELLS:
            window = self._window()
            if window is not None:
                layout = self._clipped(layout, window)
        self._rows, sizes = layout
        self._fill(sizes, counter)

    def _bands(self) -> tuple[list[tuple[int, int, tuple[int, ...], _RowPlan | None]], list[int]]:
        """Rows 0..n: first and last live column, each band containing the
        last; the flag layers the row keeps, ascending; and the row's plan
        (None for row 0).  Also each row's stored cell count."""
        near_ws, far_ws, v = self.near_weights, self.far_weights, self.pivot_weight
        # later[i]: the flag bits rows after row i can still set; a layer s
        # of row i can reach the answer layer 3 only while s | later[i] == 3
        later = [0] * (self.n + 1)
        bits = 0
        for i in range(self.n - 1, -1, -1):
            bits |= 2 * (near_ws[i] == v) | (far_ws[i] >= v)
            later[i] = bits
        lo = hi = self.offset
        live = (0,) if bits == 3 else ()
        rows = [(lo, hi, live, None)]
        sizes = [len(live)]
        for near_w, far_w, bits in zip(near_ws, far_ws, later[1:]):
            # far-set extension: difference shifts down by far_w; writes below
            # -2*cap fall off the window (they cannot belong to an optimal
            # pair of this regime).  It is the only pass that writes below
            # the previous lo, so lo moves only when it runs
            far_bit = near_bit = None
            if 0 < far_w <= hi:
                lo = max(0, lo - far_w)
                far_bit = int(far_w >= v)
            if 0 < near_w <= v:
                hi += near_w
                near_bit = 2 * (near_w == v)
            plan = _row_plan(live, far_bit, near_bit, bits)
            live = plan.after
            rows.append((lo, hi, live, plan))
            sizes.append(len(live) * (hi - lo + 1))
        return rows, sizes

    def _window(self) -> int | None:
        """W = floor((hi - lo) * cap / lo) from the greedy pair's sums when its
        ratio hi / lo is at most 2; None (no window) otherwise."""
        hi, lo, _ = _greedy_pair(self.weights, self.n, self.near, self.pivot_weight)
        return (hi - lo) * self.cap // lo if hi <= 2 * lo else None

    def _clipped(self, layout: tuple[list, list[int]], window: int) -> tuple[list, list[int]]:
        """The layout with each row's band cut to the columns that can still
        reach a final difference in [-window, window]."""
        rows, sizes = layout
        rows, sizes = rows[:], sizes[:]
        v = self.pivot_weight
        low, high = self.offset - window, self.offset + window
        for i in range(self.n, 0, -1):
            lo, hi, live, plan = rows[i]
            lo, hi = (lo if lo > low else low), (hi if hi < high else high)
            rows[i] = lo, hi, live, plan
            sizes[i] = len(live) * (hi - lo + 1)
            near_w, far_w = self.near_weights[i - 1], self.far_weights[i - 1]
            if 0 < near_w <= v:  # the row's near pass runs
                low -= near_w
            if 0 < far_w <= rows[i - 1][1]:  # its far pass runs
                high += far_w
        return rows, sizes

    def _predicted_bytes(self, layout: tuple[list, list[int]]) -> int:
        """Bytes of the store and the scratch."""
        rows, sizes = layout
        lo, hi = rows[-1][:2]  # the widest band
        return np.dtype(_sum_dtype(self.cap)).itemsize * (sum(sizes) + 4 * (hi - lo + 1))

    def _fill(self, sizes: list[int], counter: OpCounter | None) -> None:
        rows = self._rows
        dtype = _sum_dtype(self.cap)
        store = np.full(sum(sizes), np.iinfo(dtype).min, dtype=dtype)
        # a clipped final row need not be the widest
        z = np.empty((4, max([hi - lo for lo, hi, _, _ in rows]) + 1), dtype=dtype)
        maximum, add = np.maximum, np.add
        lo0, hi0, _, _ = rows[0]
        x = store[:sizes[0]].reshape(-1, 1)
        x[:, 0] = 0  # the empty pair, if kept
        blocks = [x]
        start = sizes[0]
        ops = 0
        for (lo, hi, _, plan), size, near_w, far_w in zip(
            rows[1:], sizes[1:], self.near_weights, self.far_weights
        ):
            y = store[start:start + size].reshape(-1, hi - lo + 1)
            start += size
            blocks.append(y)
            for kind, _, layers, src, tgt in plan.passes:
                # the pass moves column c of row i - 1 to column c + shift,
                # clamped to both rows' bands; far writes below lo fall off
                # the window
                shift = 0 if kind == _CARRY else near_w if kind == _NEAR else -far_w
                first = lo0 + shift if lo0 + shift > lo else lo
                stop = hi0 + shift + 1 if hi0 + shift < hi else hi + 1
                if first >= stop:
                    continue
                dest = y[tgt, first - lo:stop - lo]
                sums = x[src, first - shift - lo0:stop - shift - lo0]
                if kind == _CARRY:
                    dest[...] = sums
                else:
                    if kind == _NEAR:
                        sums = add(sums, near_w, out=z[:len(layers), :stop - first])
                    maximum(dest, sums, out=dest)
                ops += len(layers) * (stop - first)
            x, lo0, hi0 = y, lo, hi
        self._blocks = blocks
        ops += hi0 - lo0 + 1  # final scan
        if counter is not None:
            counter.add(ops)

    # -- inspection ---------------------------------------------------------

    def _column(self, diff: int) -> int:
        col = diff + self.offset
        if not 0 <= col < self.width:
            raise ValueError(f"difference {diff} outside window [-{2 * self.cap}, {self.cap}]")
        return col

    def _cell(self, row: int, layer: int, col: int) -> int:
        """Stored near sum of a cell; -1 when the row does not keep it or it
        is empty."""
        lo, hi, layers, _ = self._rows[row]
        if layer not in layers or not lo <= col <= hi:
            return -1
        return max(int(self._blocks[row][layers.index(layer), col - lo]), -1)

    def total(self, diff: int) -> int | None:
        """Stored total of the final row's both-flags cell, the only layer
        the final row keeps; None when that cell is unoccupied."""
        near_sum = self._cell(self.n, 3, self._column(diff))
        return None if near_sum < 0 else 2 * near_sum - diff

    # -- reconstruction -----------------------------------------------------

    def reconstruct(self, diff: int) -> tuple[frozenset[int], frozenset[int]]:
        """Walk back from the final row's both-flags cell at `diff`, taking
        at each row the candidate the sequential rule kept, and rebuild
        the stored pair.

        Verifies index discipline on the way out: the near set only holds
        near-side candidate elements, the far set only far-side elements,
        no base occurs on both sides, the sums reproduce the cell's
        difference and total, and both flags hold for the rebuilt sets.
        """
        r, t, c = self.n, 3, self._column(diff)
        near_sum = self._cell(r, t, c)
        if near_sum < 0:
            raise ValueError("cannot reconstruct an unoccupied cell")
        s1: set[int] = set()
        s2: set[int] = set()
        for r in range(r, 0, -1):
            kind, t, c, near_sum = self._kept_candidate(r, t, c, near_sum)
            if kind == _NEAR:
                s1.add(r + self.near)
            elif kind == _FAR:
                s2.add(r + self.far)
        if t != 0 or c != self.offset:
            raise AssertionError("backtracking did not end at the empty pair")
        self._check_discipline(s1, s2, diff)
        return frozenset(s1), frozenset(s2)

    def _kept_candidate(self, r: int, t: int, c: int, near_sum: int) -> tuple[int, int, int, int]:
        """(kind, source layer, source column, source near sum) of the first
        candidate, in row r's pass order, that gives layer t, column c of
        row r its near sum."""
        lo, hi, _, _ = self._rows[r - 1]
        x = self._blocks[r - 1]
        near_w, far_w = self.near_weights[r - 1], self.far_weights[r - 1]
        for kind, s, pos in self._rows[r][3].candidates[t]:
            if kind == _NEAR:
                col, want = c - near_w, near_sum - near_w
            else:
                col, want = c + far_w if kind == _FAR else c, near_sum
            # a negative near sum could only match an empty cell
            if want >= 0 and lo <= col <= hi and x.item(pos, col - lo) == want:
                return kind, s, col, want
        raise AssertionError("backtracking found no candidate for a stored sum")

    def _check_discipline(self, s1: set[int], s2: set[int], diff: int) -> None:
        v, n = self.pivot_weight, self.n
        if not all(self.near < i <= self.near + n for i in s1):
            raise AssertionError("near set left its side")
        if not all(self.far < j <= self.far + n for j in s2):
            raise AssertionError("far set left its side")
        if {(i - 1) % n for i in s1} & {(j - 1) % n for j in s2}:
            raise AssertionError("a pair contributed to both sets")
        near_ws = [self.weights[i - 1] for i in s1]
        far_ws = [self.weights[j - 1] for j in s2]
        sum1, sum2 = sum(near_ws), sum(far_ws)
        if sum1 - sum2 != diff:
            raise AssertionError("reconstructed sums do not match the difference axis")
        if near_ws and max(near_ws) > v:
            raise AssertionError("near set holds an element above the pivot weight")
        if v not in near_ws:
            raise AssertionError("near set holds no pivot-valued element")
        if not far_ws or max(far_ws) < v:
            raise AssertionError("far set holds no heavy element")
        if sum1 + sum2 != self.total(diff):
            raise AssertionError("reconstructed total does not match the stored cell")

    # -- final scan ---------------------------------------------------------

    def best_cell(self) -> tuple[int, int] | None:
        """(difference, total) of the min-ratio cell among (row n, both flags).

        The ratio of a cell is (total+|d|)/(total-|d|), the larger sum over
        the smaller.  An occupied cell at d = 0 has ratio exactly 1 and
        every other difference a larger one, so it is returned at once.
        Otherwise the scan compares ratios exactly over differences in
        increasing order; ties keep the earlier one.
        """
        lo = self._rows[self.n][0]
        sums = self._blocks[self.n].ravel()  # the final row keeps layer 3 alone, or nothing
        if sums.size and sums[self.offset - lo] >= 0:
            total = 2 * int(sums[self.offset - lo])
            assert total > 0
            return 0, total
        cols = np.nonzero(sums >= 0)[0]
        if cols.size == 0:
            return None
        diffs = cols.astype(np.int64) + (lo - self.offset)
        tot = 2 * sums[cols].astype(np.int64) - diffs
        num = tot + np.abs(diffs)
        den = tot - np.abs(diffs)
        assert (den > 0).all()
        # float prefilter, exact integer tie-break among near-minimal entries
        approx = num / den
        keep = np.nonzero(approx <= approx.min() * (1.0 + 1e-9))[0]
        best = None
        for k in keep:
            cand = (int(num[k]), int(den[k]), int(diffs[k]), int(tot[k]))
            if best is None or cand[0] * best[1] < best[0] * cand[1]:
                best = cand
        assert best is not None
        return best[2], best[3]


# ---------------------------------------------------------------------------
# full solver
# ---------------------------------------------------------------------------


def _greedy_pair(
    weights: Sequence[int], n: int, near: int, pivot_weight: int
) -> tuple[int, int, tuple[frozenset[int], frozenset[int]]]:
    """One pair of the side search, built greedily in O(n), as (larger sum,
    smaller sum, sets); _NO_PAIR when it finds none.

    It starts from the first pivot-valued near element and the lightest
    heavy far element on another base (the first of equals), then walks
    the other bases in index order: each joins the lighter side, the near
    side only with a weight <= the pivot weight, when that does not widen
    the difference.  The pair is one DifferenceTable represents whenever
    its ratio is at most 2 (see DifferenceTable).
    """
    v, far = pivot_weight, n - near
    near_ws, far_ws = weights[near:near + n], weights[far:far + n]
    j = near_ws.index(v)
    heavy = [(w, i) for i, w in enumerate(far_ws) if w >= v and i != j]
    if not heavy:
        return _NO_PAIR
    b, k = min(heavy)
    a = v
    s1, s2 = [j], [k]
    for i, (near_w, far_w) in enumerate(zip(near_ws, far_ws)):
        if a == b:
            break  # every base would widen the difference
        if i == j or i == k:
            continue
        if a < b and 0 < near_w <= min(v, 2 * (b - a)):
            a += near_w
            s1.append(i)
        elif b < a and 0 < far_w <= 2 * (a - b):
            b += far_w
            s2.append(i)
    sets = frozenset(i + near + 1 for i in s1), frozenset(i + far + 1 for i in s2)
    return max(a, b), min(a, b), sets


def _solve_one_side(
    weights: Sequence[int], n: int, near: int, pivot_weight: int, counter: OpCounter | None
) -> tuple[int, int, tuple[frozenset[int], frozenset[int]]]:
    """Exact optimum among solutions whose pivot-valued set lies on `near`,
    as (larger sum, smaller sum, sets)."""
    far = n - near
    if pivot_weight not in weights[near:near + n] or max(weights[far:far + n]) < pivot_weight:
        return _NO_PAIR
    table = DifferenceTable(weights, n, near, pivot_weight, counter)
    singleton = _heavy_singleton(table, counter)
    best = table.best_cell()
    if best is not None:
        diff, total = best
        hi, lo = (total + abs(diff)) // 2, (total - abs(diff)) // 2
        # the DP pair stands unless the singleton is strictly better
        if singleton[0] * lo >= hi * singleton[1]:
            return hi, lo, table.reconstruct(diff)
    return singleton


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

    `memo`, one dict for any calls, stores each side's answer under the
    weights as a tuple, then (near side, pivot weight): all a search reads,
    so a repeated side costs no cells.  Weights are validated first, in one
    pass over their types (plain ints only), as (True, 1) == (1, 1).

    When weights[:n] == weights[n:], a side whose twin (the other near side,
    same pivot weight) is in the memo takes the twin's answer with every
    index shifted by n, at no cells.  The pivot's side stands unless the
    other is strictly better.
    """
    if len(weights) % 2 != 0 or not weights:
        raise ValueError("flattened weight list must have positive even length")
    n = len(weights) // 2
    if not 1 <= m <= 2 * n:
        raise ValueError(f"pivot {m} out of range 1..{2 * n}")
    if not {int}.issuperset(map(type, weights)) or min(weights) < 0:
        raise ValueError("weights must be integers >= 0")
    pivot_weight = weights[m - 1]
    if pivot_weight < 1:
        raise ValueError("pivot weight must be >= 1")

    weights = tuple(weights)
    sides = {} if memo is None else memo.setdefault(weights, {})

    def search(side: int) -> tuple[int, int, tuple[frozenset[int], frozenset[int]]]:
        key = (side, pivot_weight)
        if key not in sides:
            twin = (n - side, pivot_weight)
            if twin in sides and weights[:n] == weights[n:]:
                hi, lo, sets = sides[twin]  # every index moved to the other half
                sides[key] = hi, lo, tuple(frozenset(i + n if i <= n else i - n for i in part)
                                           for part in sets)
            else:
                sides[key] = _solve_one_side(weights, n, side, pivot_weight, counter)
        return sides[key]

    near = 0 if m <= n else n
    best = search(near)
    # the pivot weight may also be realised on the opposite side
    other = search(n - near)
    if other[0] * best[1] < best[0] * other[1]:
        best = other
    return best[2]
