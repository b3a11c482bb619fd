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
list: `orthodontic_sequence` snapshots every stage, `is_multiplicity_free`
compares impact masks and stops at the first bad repeated letter, and the
survey's `_StateTable` steps each distinct state once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perms import Diagram, Permutation, mask_rows, rothe_masks
from .poly import Polynomial, _omega, _packed_dd, _x

__all__ = [
    "OrthodonticTrace",
    "orthodontic_sequence",
    "build_D_im",
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


def _repeat_ok(imp: int, other: int) -> bool:
    """The rule for a repeated letter: its impacts imp and other are one singleton column."""
    return imp == other and not imp & (imp - 1)


def _walk_forward(masks: list[int]) -> bool:
    """Multiplicity-freeness from column masks, stopping at the first bad repeat."""
    seen = {}
    # step 0 carries the letter 0, which never repeats
    for letter, imp, _ in _engine(masks):
        if letter not in seen:
            seen[letter] = imp
        elif not _repeat_ok(imp, seen[letter]):
            return False
    return True


class _StateTable(dict):
    """The survey's multiplicity-free vote on S_n, stepping the engine once per state.

    Keys pack column masks, interval columns emptied, n bits per column; emptied
    columns keep their place, so impact bits name the same columns along a chain.
    A value sums up the chain from its state to the empty diagram (key 0): n + 1
    bits per letter i at offset (i-1)(n+1), a seen bit under i's impact mask, or
    None once a repeat breaks `_repeat_ok`.  The survey builds each key prefix by
    prefix and calls `vote`, which decodes the column masks only for a key it
    lacks; it walks to a known state, then folds the new steps back in.  Once
    CAP states are stored, a vote from an unknown state is `_walk_forward`, which
    can stop at the first bad repeat.
    """

    CAP = 1 << 18  # about 80 bytes a state; S_9 has 155739 states, S_10 more than CAP

    def __init__(self, n: int):
        super().__init__({0: 0})
        self.n, self.intervals = n, _intervals(n)

    def _key(self, masks: list[int]) -> int:
        key, n, intervals = 0, self.n, self.intervals
        for mask in reversed(masks):
            key = key << n | (0 if mask in intervals else mask)
        return key

    def vote(self, key: int) -> bool:
        """The vote from a packed key; the column masks are decoded only if it is new."""
        if key in self:
            return self[key] is not None
        n, walked = self.n, []
        masks = [key >> shift & (1 << n) - 1 for shift in range(0, n * n, n)]
        if len(self) >= self.CAP:
            return _walk_forward(masks)
        steps = _engine(masks)
        next(steps)  # later steps leave no interval column but [i_r], which _key empties
        for letter, imp, work in steps:
            walked.append((key, letter, imp))
            key = self._key(work)
            if key in self:
                break
        summary, width = self[key], self.n + 1
        for key, letter, imp in reversed(walked):
            if summary is not None:
                shift = (letter - 1) * width
                field = summary >> shift & ((1 << width) - 1)
                if not field:
                    summary |= (imp << 1 | 1) << shift
                elif not _repeat_ok(imp, field >> 1):
                    summary = None
            if len(self) < self.CAP:
                self[key] = summary
        return summary is not None


@dataclass(frozen=True)
class OrthodonticTrace:
    """Sequence data (i, k, m) together with the full straightening trace."""

    i: tuple[int, ...]
    k: tuple[int, ...]
    m: tuple[int, ...]
    _stage_masks: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.i)

    def _check_stage(self, r: int) -> None:
        """Refuse a stage index outside 0..length."""
        if not 0 <= r <= self.length:
            raise ValueError(f"stage {r} out of range 0..{self.length}")

    def stage(self, r: int) -> Diagram:
        """The intermediate diagram after the first r row swaps, with the
        original column indexing (emptied columns stay at their index)."""
        self._check_stage(r)
        return Diagram._adopt(tuple(mask_rows(mask) for mask in self._stage_masks[r]))


def orthodontic_sequence(w: Permutation) -> OrthodonticTrace:
    """The orthodontic sequence of w with every stage of its straightening.

    k_j counts the interval columns [j] of stage 0 and m_r the columns [i_r]
    of stage r, the only interval columns the engine lets stage r hold.
    The trace keeps up to n(n-1)/2 stages of n columns each, so it is
    refused before straightening when n > 255, the bound every route that
    reads it needs for its bytes and packed fields.
    """
    if w.n > 255:
        raise ValueError("the orthodontic trace needs n <= 255, since it keeps every stage")
    steps = [(letter, tuple(work)) for letter, _, work in _engine(rothe_masks(w))]
    letters, stages = zip(*steps)
    intervals, k = _intervals(w.n), [0] * w.n
    for mask in stages[0]:
        if mask in intervals:
            k[mask.bit_length() - 1] += 1
    return OrthodonticTrace(
        i=letters[1:],
        k=tuple(k),
        m=tuple(stage.count((1 << i) - 1) for i, stage in zip(letters[1:], stages[1:])),
        _stage_masks=stages,
    )


def build_D_im(trace: OrthodonticTrace) -> Diagram:
    """Rebuild the diagram k_1*[1] + ... + k_n*[n] + sum_j m_j * s_{i_1}...s_{i_j}[i_j].

    Zero multiplicities contribute no column; the result is column-equivalent
    to the inversion diagram the trace came from, padded to its n columns.
    The columns are built as masks (bit p is row p+1).
    """
    masks: list[int] = []
    for j, kj in enumerate(trace.k, start=1):
        masks += [(1 << j) - 1] * kj
    for r, mr in enumerate(trace.m, start=1):
        mask = (1 << trace.i[r - 1]) - 1
        for it in reversed(trace.i[:r]):  # s_{i_r} acts first, s_{i_1} last
            flip = 3 << it - 1
            if (mask & flip) not in (0, flip):
                mask ^= flip
        masks += [mask] * mr
    n = len(trace.k)
    if len(masks) > n:
        raise AssertionError("more columns than the ambient size")
    return Diagram._adopt(tuple(mask_rows(mask) for mask in masks + [0] * (n - len(masks))))


def is_multiplicity_free(w: Permutation) -> bool:
    """Every repeated letter of i must have all its impacts equal to one
    common singleton column.  The straightening stops at the first repeated
    letter that breaks this."""
    return _walk_forward(rothe_masks(w))


def schubert_orthodontic(w: Permutation) -> Polynomial:
    """Evaluate the nested Demazure-operator formula
    omega_1^{k_1}...omega_n^{k_n} pi_{i_1}(omega_{i_1}^{m_1} pi_{i_2}(...)).

    The chain runs on packed keys (see `poly._packed_dd`, which also says
    why no field carries), so n must be at most 255, as `orthodontic_sequence`
    demands before any work.  omega_j^m packs to m * `_omega(j)`, and
    pi_i(omega_i^m * f) is the kernel on f with the monomial x_i * omega_i^m.
    """
    n = w.n
    trace = orthodontic_sequence(w)
    cur = {0: 1}
    for i, m in zip(reversed(trace.i), reversed(trace.m)):
        cur = _packed_dd(i, cur, m * _omega(i) + _x(i))
    omega = sum(k * _omega(j) for j, k in enumerate(trace.k, start=1))
    return Polynomial._from_packed(n, {key + omega: c for key, c in cur.items()})
