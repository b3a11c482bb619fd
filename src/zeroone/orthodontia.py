"""Orthodontic sequences, intermediate diagrams, and the operator formula.

The straightening algorithm works on an inversion diagram: first every
interval column [j] is counted (the k's) and emptied; then, repeatedly, the
leftmost nonempty column determines a smallest missing tooth i (i absent,
i+1 present), rows i and i+1 are swapped everywhere, and the interval
columns [i] so created are counted (the m's) and emptied.  Columns keep
their original index throughout; emptied columns simply become empty.

One engine, `_engine`, runs the straightening on one packed int, n + 1
bits a column (see `_layout`), so that a step swaps two rows in every
column with a few big-int operations (Knuth, TAOCP 4A, 7.1.3).  It yields
each step's letter, impact (a column bitmask) and packed stage, before and
after its interval columns are emptied: `orthodontic_sequence` reads i, k and
m in one pass, `is_multiplicity_free` compares impact masks and stops at the
first bad repeated letter, and the survey's `_StateTable` steps each state once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .perms import Diagram, Permutation, mask_rows, rothe_rows
from .poly import Polynomial, _omega, _packed_dd, _x

__all__ = [
    "OrthodonticTrace",
    "orthodontic_sequence",
    "build_D_im",
    "schubert_orthodontic",
    "is_multiplicity_free",
]


@lru_cache(maxsize=64)
def _layout(n: int) -> tuple[int, int, int]:
    """(ones, rows, gather) of the packed layout of n columns.  Column j is the
    field at bit (j-1)(n+1), bit p of it is row p+1, and its top bit is a guard
    that stays 0, so adding up to 2^n - 1 to every field carries into no other.
    ones is bit 0 of every field, rows every row bit, and gather = sum 2^(tn),
    t < n: times gather, bit c of a mask reaches bit c(n+1) (t = c), bit 0 of
    field c reaches bit n(n-1) + c (t = n-1-c), and no two products overlap."""
    ones = sum(1 << j * (n + 1) for j in range(n))
    return ones, ones * ((1 << n) - 1), sum(1 << t * n for t in range(n))


def _rothe_key(w: Permutation) -> int:
    """D(w) packed: times gather, the mask of row d+1 spreads to bit d of its columns.

    Every reader of the engine packs w here, so here n > 255 is refused: the
    routes that read the trace pack into bytes, and the walk takes up to
    n(n-1)/2 steps on n^2-bit keys (a random w in S_700 can take seconds, and
    one in S_1500 took minutes)."""
    if w.n > 255:
        raise ValueError("the orthodontic engine needs n <= 255, since its readers pack into bytes")
    ones, _, gather = _layout(w.n)
    return sum((row * gather & ones) << d for d, row in enumerate(rothe_rows(w.entries)))


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The n column masks of a packed key."""
    return tuple(key >> j * (n + 1) & (1 << n) - 1 for j in range(n))


def _rest(key: int, i: int, ones: int, rows: int, n: int) -> int:
    """key with its interval columns emptied; after swap i (i > 0) each must be [i].
    f & (f + 1) is 0 just for f empty or an interval, and adding 2^n - 1 sets
    the guard bit of each field where it is not 0; an interval holds row 1."""
    columns = key & ones & ~((key & key + ones) + rows >> n)  # bit 0 of each
    if not columns:
        return key
    rest = key & ~(columns * ((1 << n) - 1))
    if i and key ^ rest != columns * ((1 << i) - 1):
        raise AssertionError("unexpected interval column during straightening")
    return rest


def _engine(key: int, n: int):
    """Run the straightening on a packed diagram of n columns, one step at a time.

    Step r is (i_r, impact, stage, rest): stage follows the first r row swaps,
    and rest, the state step r + 1 starts from, is stage with the interval
    columns emptied.  impact has bit j-1 set iff column j holds a box in row
    i_r + 1 when swap r executes.  Step 0 is (0, 0, input, rest).
    """
    ones, rows, gather = _layout(n)
    field, width, i, impact = (1 << n) - 1, n + 1, 0, 0
    while True:
        rest = _rest(key, i, ones, rows, n)
        yield i, impact, key, rest
        if not rest:
            return
        key = rest
        shift = (key & -key).bit_length() - 1
        first = key >> shift - shift % width & field  # the leftmost nonempty column
        teeth = ~first & first >> 1
        if teeth == 0:
            raise AssertionError("leftmost nonempty column has no missing tooth")
        i = (teeth & -teeth).bit_length()  # the smallest missing tooth
        lo, hi = key & ones << i - 1, key & ones << i
        key ^= lo ^ hi ^ lo << 1 ^ hi >> 1
        impact = (hi >> i) * gather >> n * (n - 1) & field  # columns that held row i + 1


def _repeat_ok(imp: int, other: int) -> bool:
    """The rule for a repeated letter: its impacts imp and other are one singleton column."""
    return imp == other and not imp & (imp - 1)


def _walk_forward(key: int, n: int) -> bool:
    """Multiplicity-freeness from a packed diagram, stopping at the first bad repeat."""
    seen = {}
    # step 0 carries the letter 0, which never repeats
    for letter, imp, _, _ in _engine(key, n):
        if letter not in seen:
            seen[letter] = imp
        elif not _repeat_ok(imp, seen[letter]):
            return False
    return True


class _StateTable(dict):
    """The survey's multiplicity-free vote on S_n, stepping the engine once per state.

    Keys are packed diagrams in `_engine`'s layout, n + 1 bits per column
    with a guard bit that stays 0, interval columns emptied; emptied columns
    keep their place, so impact bits name the same columns along a chain.
    A value sums up the chain from its state to the empty diagram (key 0):
    n + 1 bits per letter i at offset (i-1)(n+1), a seen bit under i's
    impact mask, or None once a repeat breaks `_repeat_ok`.  The survey
    builds each key prefix by prefix and calls `vote`, which walks the
    engine from a key it lacks to a known state, then folds the new steps
    back in.  Once CAP states are stored, a vote from an unknown state is
    `_walk_forward`, which can stop at the first bad repeat.
    """

    CAP = 1 << 18  # about 80 bytes a state; S_9 has 155739 states, S_10 more than CAP

    def __init__(self, n: int):
        super().__init__({0: 0})
        self.n = n

    def vote(self, key: int) -> bool:
        """The vote from a packed key whose interval columns are empty."""
        summary = self.get(key, -1)
        if summary != -1:
            return summary is not None
        n, walked = self.n, []
        if len(self) >= self.CAP:
            return _walk_forward(key, n)
        steps = _engine(key, n)
        next(steps)  # key has no interval column, so step 0 leaves it as it is
        for letter, imp, _, rest in steps:
            walked.append((key, letter, imp))
            key = rest
            if key in self:
                break
        summary, width = self[key], n + 1
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
    """Sequence data (i, k, m) and D(w); the first `stage` call replays the stages."""

    i: tuple[int, ...]
    k: tuple[int, ...]
    m: tuple[int, ...]
    _key: int  # D(w), packed as `_engine` packs it

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
        return Diagram._adopt(tuple(map(mask_rows, _unpack(self._stages[r], len(self.k)))))

    @cached_property
    def _stages(self) -> tuple[int, ...]:
        """Every packed stage, from one replay of the engine."""
        return tuple(stage for _, _, stage, _ in _engine(self._key, len(self.k)))


def orthodontic_sequence(w: Permutation) -> OrthodonticTrace:
    """The orthodontic sequence of w, read in one pass of the straightening.

    k_j counts the interval columns [j] of stage 0 and m_r the columns [i_r]
    of stage r, the only interval columns the engine lets stage r hold.
    `_rothe_key` refuses n > 255 before straightening.
    """
    n, letters, k, m = w.n, [], [0] * (w.n + 1), []
    steps = _engine(_rothe_key(w), n)
    _, _, key, rest = next(steps)
    for mask in _unpack(key ^ rest, n):  # stage 0's interval columns, 0 elsewhere
        k[mask.bit_length()] += 1
    for i, _, stage, rest in steps:  # stage ^ rest holds the m_r columns [i_r], i_r bits each
        letters.append(i)
        m.append((stage ^ rest).bit_count() // i)
    return OrthodonticTrace(tuple(letters), tuple(k[1:]), tuple(m), key)


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
    letter that breaks this; `_rothe_key` refuses n > 255, as for the trace."""
    return _walk_forward(_rothe_key(w), w.n)


def schubert_orthodontic(w: Permutation) -> Polynomial:
    """Evaluate the nested Demazure-operator formula
    omega_1^{k_1}...omega_n^{k_n} pi_{i_1}(omega_{i_1}^{m_1} pi_{i_2}(...)).

    The chain runs on packed keys (see `poly._packed_dd`, which also says
    why no field carries), so n must be at most 255, as `_rothe_key` demands
    before any work.  omega_j^m packs to m * `_omega(j)`, and
    pi_i(omega_i^m * f) is the kernel on f with the monomial x_i * omega_i^m.
    """
    n = w.n
    trace = orthodontic_sequence(w)
    cur = {0: 1}
    for i, m in zip(reversed(trace.i), reversed(trace.m)):
        cur = _packed_dd(i, cur, m * _omega(i) + _x(i))
    omega = sum(k * _omega(j) for j, k in enumerate(trace.k, start=1))
    return Polynomial._from_packed(n, {key + omega: c for key, c in cur.items()})
