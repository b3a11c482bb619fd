"""Orthodontic sequences, intermediate diagrams, and the operator formula.

The straightening algorithm works on an inversion diagram: first every
interval column [j] is counted (the k's) and emptied; then, repeatedly, the
leftmost nonempty column determines a smallest missing tooth i (i absent,
i+1 present), rows i and i+1 are swapped everywhere, and the interval
columns [i] so created are counted (the m's) and emptied.  Columns keep
their original index throughout; emptied columns simply become empty.

One engine, `_engine`, runs the straightening on column bitmasks (bit p =
row p+1) taken straight from one-line entries.  It swaps rows in place in
one list and yields each step's letter, impact (a column bitmask) and that
list: `orthodontic_sequence` snapshots every stage, while
`is_multiplicity_free` (which also casts the survey's vote) compares impact
masks only and stops at the first repeated letter that breaks the condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perms import Diagram, Permutation, mask_rows, rothe_masks
from .poly import Polynomial, _packed_dd

__all__ = [
    "OrthodonticTrace",
    "orthodontic_sequence",
    "build_D_im",
    "column_equivalent",
    "schubert_orthodontic",
    "is_multiplicity_free",
]


@lru_cache(maxsize=64)
def _intervals(n: int) -> frozenset[int]:
    """The masks of the interval columns [1], ..., [n] (rows 1..j)."""
    return frozenset((1 << j) - 1 for j in range(1, n + 1))


def _engine(masks: list[int]):
    """Run the straightening on column masks, yielding one step at a time.

    Step r is (i_r, impact, work).  work is the engine's own list of column
    masks after the first r row swaps, before the interval columns created
    by swap r are emptied; it changes once the next step is requested.
    impact has bit j-1 set iff column j holds a box in row i_r + 1 when swap
    r executes.  Step 0 is (0, 0, input).
    """
    intervals = _intervals(len(masks))
    work = list(masks)
    yield 0, 0, work
    work[:] = [0 if mask in intervals else mask for mask in work]
    while first := next(filter(None, work), 0):
        teeth = ~first & (first >> 1)
        if teeth == 0:
            raise AssertionError("leftmost nonempty column has no missing tooth")
        low = teeth & -teeth  # the bit of row i_r, the smallest missing tooth
        flip, high = 3 * low, 2 * low
        impact = 0
        for j in range(work.index(first), len(work)):  # the columns left of first are empty
            pair = work[j] & flip
            if pair:
                if pair != flip:
                    work[j] ^= flip
                if pair & high:
                    impact |= 1 << j
        yield low.bit_length(), impact, work
        if not intervals.isdisjoint(work):  # empty the interval columns [i_r]
            target = 2 * low - 1
            work[:] = [0 if mask == target else mask for mask in work]
            if not intervals.isdisjoint(work):
                raise AssertionError("unexpected interval column during straightening")


@dataclass(frozen=True)
class OrthodonticTrace:
    """Sequence data (i, k, m) together with the full straightening trace."""

    perm: Permutation
    i: tuple[int, ...]
    k: tuple[int, ...]
    m: tuple[int, ...]
    _stage_masks: tuple[tuple[int, ...], ...]
    removed: tuple[tuple[int, ...], ...]
    impacts: tuple[frozenset[int], ...]

    @property
    def length(self) -> int:
        return len(self.i)

    def stage(self, r: int) -> Diagram:
        """The intermediate diagram after the first r row swaps, with the
        original column indexing (emptied columns stay at their index)."""
        if not 0 <= r <= self.length:
            raise ValueError(f"stage {r} out of range 0..{self.length}")
        return Diagram(tuple(mask_rows(mask) for mask in self._stage_masks[r]))


def orthodontic_sequence(w: Permutation) -> OrthodonticTrace:
    """The orthodontic sequence of w with every stage of its straightening.

    The trace keeps up to n(n-1)/2 stages of n columns each, so it is
    refused before straightening when n > 255, the bound every route that
    reads it needs for its bytes and packed fields.
    """
    if w.n > 255:
        raise ValueError("the orthodontic trace needs n <= 255, since it keeps every stage")
    steps = [(letter, imp, tuple(work)) for letter, imp, work in _engine(rothe_masks(w.entries))]
    letters, impacts, stages = zip(*steps)
    # removed[r]: the interval columns [j] of stage r, which the engine empties
    # next; it raises unless at every step r >= 1 they all are [i_r]
    intervals = _intervals(w.n)
    removed = tuple(
        () if intervals.isdisjoint(stage)
        else tuple([j for j, mask in enumerate(stage, 1) if mask in intervals])
        for stage in stages
    )
    k = [0] * w.n
    for j in removed[0]:
        k[stages[0][j - 1].bit_length() - 1] += 1
    return OrthodonticTrace(
        perm=w,
        i=letters[1:],
        k=tuple(k),
        m=tuple(len(rec) for rec in removed[1:]),
        _stage_masks=stages,
        removed=removed,
        impacts=tuple(frozenset(mask_rows(imp)) for imp in impacts[1:]),
    )


def build_D_im(trace: OrthodonticTrace) -> Diagram:
    """Rebuild the diagram k_1*[1] + ... + k_n*[n] + sum_j m_j * s_{i_1}...s_{i_j}[i_j].

    Zero multiplicities contribute no column; the result is column-equivalent
    to the inversion diagram the trace came from, padded to its n columns.
    """
    n = len(trace.k)
    cols: list[tuple[int, ...]] = []
    for j, kj in enumerate(trace.k, start=1):
        cols.extend([tuple(range(1, j + 1))] * kj)
    for r, mr in enumerate(trace.m, start=1):
        if mr == 0:
            continue
        col = set(range(1, trace.i[r - 1] + 1))
        for t in range(r, 0, -1):
            it = trace.i[t - 1]
            col = {it if v == it + 1 else it + 1 if v == it else v for v in col}
        cols.extend([tuple(sorted(col))] * mr)
    if len(cols) > n:
        raise AssertionError("more columns than the ambient size")
    cols.extend([()] * (n - len(cols)))
    return Diagram(tuple(cols))


def column_equivalent(d1: Diagram, d2: Diagram) -> bool:
    """Equality of the multisets of nonempty columns."""
    left = sorted(col for col in d1.columns if col)
    right = sorted(col for col in d2.columns if col)
    return left == right


def is_multiplicity_free(w: Permutation) -> bool:
    """Every repeated letter of i must have all its impacts equal to one
    common singleton column.  The straightening stops at the first repeated
    letter that breaks this."""
    seen = {}
    # step 0 carries the letter 0, which never repeats
    for letter, imp, _ in _engine(rothe_masks(w.entries)):
        if letter not in seen:
            seen[letter] = imp
        elif imp & (imp - 1) or imp != seen[letter]:
            return False
    return True


def schubert_orthodontic(w: Permutation) -> Polynomial:
    """Evaluate the nested Demazure-operator formula
    omega_1^{k_1}...omega_n^{k_n} pi_{i_1}(omega_{i_1}^{m_1} pi_{i_2}(...)).

    The chain runs on packed keys (see `poly._packed_dd`, which also says
    why no field carries), so n must be at most 255, as `orthodontic_sequence`
    demands before any work.  omega_j^m packs to m * ((1 << 8j) - 1) // 255,
    and pi_i(omega_i^m * f) is the kernel on f with the monomial x_i * omega_i^m.
    """
    n = w.n
    trace = orthodontic_sequence(w)
    cur = {0: 1}
    for i, m in zip(reversed(trace.i), reversed(trace.m)):
        cur = _packed_dd(i, cur, (m * ((1 << 8 * i) - 1) // 255) + (1 << 8 * (i - 1)))
    omega = sum(k * ((1 << 8 * j) - 1) // 255 for j, k in enumerate(trace.k, start=1))
    return Polynomial._from_packed(n, {key + omega: c for key, c in cur.items()})
