"""Exact multivariate polynomials and the divided-difference calculus.

Polynomials live in Z[x_1..x_n] with a fixed number of variables; terms map
exponent vectors (length-n tuples) to nonzero Python ints, so all arithmetic
is exact.  The divided difference of a monomial is computed as a geometric
sum, never through rational functions:

    (x_i^p x_{i+1}^q - x_i^q x_{i+1}^p) / (x_i - x_{i+1})
        = sum_{a=q}^{p-1} x_i^a x_{i+1}^{p+q-1-a}          (p > q)

which is the exact quotient of the antisymmetrized numerator.

A Polynomial keys its terms by packed ints, one byte per exponent, x_1
lowest, like every x-weight, which is built from `_x` and `_omega`: the key
of an exponent vector e is int.from_bytes(bytes(e), "little"), so no
exponent exceeds 255.  Every route refuses n > 255, and no exponent of
theirs exceeds n - 1.  The divided-difference kernel `_packed_dd` and the
reindexing `_lift` run on these keys; printing reads them through one
graded-lex formatter, and `terms` decodes them on each read.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .perms import Permutation

__all__ = [
    "Polynomial",
    "divided_difference",
    "demazure",
    "schubert_classic",
    "schubert_all",
    "is_zero_one",
]


class Polynomial:
    """Immutable polynomial over Z with a fixed variable count."""

    __slots__ = ("nvars", "_packed")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        packed = {}
        for e, c in (terms or {}).items():
            if c == 0:
                continue
            if len(e) != nvars:
                raise ValueError(f"exponent vector {e} has wrong length (nvars={nvars})")
            if min(e, default=0) < 0:
                raise ValueError(f"exponent vector {e} has a negative exponent")
            if max(e, default=0) > 255:
                raise ValueError(f"exponent vector {e} has an exponent above 255")
            packed[int.from_bytes(bytes(e), "little")] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_packed", packed)

    @classmethod
    def _from_packed(cls, nvars: int, packed: dict[int, int]) -> "Polynomial":
        """Wrap packed keys as they are: the caller guarantees that no
        coefficient is zero, and hands the dict over, never to change it."""
        f = object.__new__(cls)
        object.__setattr__(f, "nvars", nvars)
        object.__setattr__(f, "_packed", packed)
        return f

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """Exponent vectors mapped to nonzero coefficients, decoded afresh."""
        n = self.nvars
        return {tuple(k.to_bytes(n, "little")): c for k, c in self._packed.items()}

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self._packed == other._packed)

    def __hash__(self):
        return hash((self.nvars, frozenset(self._packed.items())))

    # -- queries ------------------------------------------------------

    def _graded(self, fields: bool = False) -> list[tuple[int, str, int]]:
        """(weight, text, coefficient) per term, descending in graded-lex order;
        the text is the product, or with `fields` the exponent fields (`_HalfTable`)."""
        low, high = _half_tables(self.nvars, fields)
        shift = 8 * high.first
        mask = (1 << shift) - 1
        rows = []
        for k, c in self._packed.items():
            weight, text = low[k & mask]
            more, rest = high[k >> shift]
            rows.append((weight + more, text + rest, c))
        rows.sort(key=itemgetter(0), reverse=True)  # weights are unique per monomial
        return rows

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending graded-lexicographic order."""
        n = self.nvars
        rank = (1 << 8 * n) - 1
        return [(tuple((weight & rank).to_bytes(n, "big")), c) for weight, _, c in self._graded()]

    def records(self, label: str) -> str:
        """One line "label e_1,...,e_n c" per term, in graded-lex order."""
        return "".join(f"{label} {text} {c}\n" for _, text, c in self._graded(fields=True))

    def __str__(self) -> str:
        return " + ".join([
            text[1:] if c == 1 and text else "-" + text[1:] if c == -1 and text else f"{c}{text}"
            for _, text, c in self._graded()
        ]) or "0"

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.terms!r})"


def _x(i: int) -> int:
    """x_i, packed in one-byte fields."""
    return 1 << 8 * (i - 1)


def _omega(j: int) -> int:
    """x_1 x_2 ... x_j, packed in one-byte fields."""
    return ((1 << 8 * j) - 1) // 255


_TABLE_CAP = 1 << 14


class _HalfTable(dict):
    """One half of a packed key -> (weight, text) of its variables.

    The half holds `count` one-byte fields, for x_{first+1} on.  Its
    weight is its degree, shifted above all nvars fields, plus its fields
    read big-endian (x_{first+1} most significant), shifted to where they
    sit in the whole key read that way.  So the weights of a key's two
    halves add up to a number that orders monomials by degree, then
    lexicographically.  Its text is "*x3^2*x5": one factor per nonzero
    exponent, each after a "*"; in a table of `fields` it is "2,0,": each
    exponent, zeros too, then a "," unless it ends the key.  Entries are made
    on first lookup; at most _TABLE_CAP of them are kept.
    """

    __slots__ = ("first", "count", "rank_shift", "degree_shift", "fields")

    def __init__(self, first: int, count: int, nvars: int, fields: bool):
        super().__init__()
        self.first, self.count, self.fields = first, count, fields
        self.rank_shift = 8 * (nvars - first - count)
        self.degree_shift = 8 * nvars

    def __missing__(self, half: int) -> tuple[int, str]:
        exps = half.to_bytes(self.count, "little")
        rank = int.from_bytes(exps, "big")
        weight = sum(exps) << self.degree_shift | rank << self.rank_shift
        if self.fields:  # the high half has rank_shift 0
            text = "".join(f"{e}," for e in exps) if self.rank_shift else ",".join(map(str, exps))
        else:
            text = "".join(f"*x{v}^{e}" if e > 1 else f"*x{v}"
                           for v, e in enumerate(exps, self.first + 1) if e)
        if len(self) < _TABLE_CAP:
            self[half] = weight, text
        return weight, text


@lru_cache(maxsize=16)
def _half_tables(nvars: int, fields: bool) -> tuple[_HalfTable, _HalfTable]:
    """The tables of x_1..x_s and of x_{s+1}..x_nvars, s = nvars // 3.

    Small variables carry the large exponents (x_i has degree at most n - i
    in a Schubert polynomial of S_n), so a short first half keeps both
    tables small.  Plain text and structured records each have their own
    pair, so neither path's entries carry the other's text.
    """
    split = nvars // 3
    return _HalfTable(0, split, nvars, fields), _HalfTable(split, nvars - split, nvars, fields)


def _packed_dd(i: int, terms: dict[int, int], times: int = 0) -> dict[int, int]:
    """d_i(x^times * f) on packed keys, for a packed monomial x^times in x_1..x_i.

    A term with exponents p of x_i and q of x_{i+1} in x^times * f (never
    built) yields |p - q| keys, a progression of step x_i / x_{i+1} whose two
    fields stay below max(p, q).  So for d_i (times 0) and pi_i (times
    x_i * omega_i^m) no result field exceeds the largest exponent of f, or of
    omega_i^m * f, and no field carries while those are at most 255.  The
    classic descent starts from the staircase, with exponents at most n - 1,
    and d_i never raises them; in the orthodontic chain omega_i^m * f is the
    character of a diagram with at most n columns, one of them empty, so its
    exponents are at most n - 1 too.  Both routes refuse n > 255 up front.
    Each run is stepped by adds under a small-int counter: a range over n-byte
    keys cost a range object per term, and long-int iteration past 63 bits.
    """
    at = 8 * (i - 1)
    nxt = at + 8
    unit = 1 << at
    step = unit - (1 << nxt)
    shift = times - unit
    lift = times >> at & 255
    out: dict[int, int] = {}
    get = out.get
    for k, c in terms.items():
        s = (k >> at & 255) - (k >> nxt & 255) + lift
        key = k + shift
        if s > 0:
            out[key] = get(key, 0) + c
            while s > 1:
                key -= step
                out[key] = get(key, 0) + c
                s -= 1
        else:
            while s:
                key += step
                out[key] = get(key, 0) - c
                s += 1
    if 0 in out.values():  # most results have no cancelled term
        return {k: c for k, c in out.items() if c}
    return out


def _lift(terms: dict[int, int], positions: tuple[int, ...], times: int) -> dict[int, int]:
    """x^times * f(x_P) on packed keys: field t of each key moves to field
    P[t] - 1 and the packed monomial x^times is added; P is increasing, so no
    keys merge.  In the pattern theorem f is S_sigma, sigma in S_m, with x_t's
    exponent at most m - t, and x^times is M: in a row i = P[t] it counts the
    boxes (i, w_k) of D(w) with k > i outside P, at most n - i - (m - t), in
    any other row at most n - i boxes.  So no field of x_i exceeds n - i, and
    `schubert_classic` refuses n > 255 before any carry."""
    moves = [(8 * t, 8 * (p - 1)) for t, p in enumerate(positions)]
    out = {}
    for k, c in terms.items():
        key = times
        for src, dst in moves:
            key += (k >> src & 255) << dst
        out[key] = c
    return out


def _through_kernel(i: int, f: Polynomial, times: int) -> Polynomial:
    if not 1 <= i < f.nvars:
        raise ValueError(f"variable index {i} out of range for nvars={f.nvars}")
    return Polynomial._from_packed(f.nvars, _packed_dd(i, f._packed, times))


def divided_difference(i: int, f: Polynomial) -> Polynomial:
    """(f - s_i f) / (x_i - x_{i+1}), exactly."""
    return _through_kernel(i, f, 0)


def demazure(i: int, f: Polynomial) -> Polynomial:
    """pi_i(f) = d_i(x_i * f)."""
    return _through_kernel(i, f, _x(i))


# -- the classic descent ---------------------------------------------

_MAX_STEPS = 990  # the identity of S_45 (990 steps) is answered, that of S_46 refused


@lru_cache(maxsize=16)
def schubert_classic(w: Permutation) -> Polynomial:
    """Schubert polynomial via divided differences, descending from w_0.

    A climb to w_0 by leftmost ascents on a plain list (after a swap at i,
    the next one is at i - 1 or later), then d_i down the same path from the
    staircase.  The braid relations make the result independent of the
    choice, which the test suite checks against a descent by rightmost
    ascents.  The 16 most recently used results are kept; a hit returns the
    same Polynomial.
    The route refuses n > 255, so that exponents fit in a byte, and a chain of
    more than 990 steps (n(n-1)/2 - inversions(w)).  The step cap bounds the
    chain's length, not its cost: it is left over from the frame budget of a
    recursive descent, and the terms along an accepted chain can still run
    into the hundreds of thousands.
    """
    n = w.n
    if n > 255:
        raise ValueError("the classic route needs n <= 255, so that exponents fit in a byte")
    e, path, i = list(w.entries), [], 1
    while i < n:
        if e[i - 1] < e[i]:
            e[i - 1], e[i] = e[i], e[i - 1]
            path.append(i)
            if len(path) > _MAX_STEPS:
                raise ValueError(f"the classic descent needs more than {_MAX_STEPS} steps")
            i = i - 1 or 1
        else:
            i += 1
    packed = {int.from_bytes(bytes(range(n - 1, -1, -1)), "little"): 1}  # the staircase
    for i in reversed(path):
        packed = _packed_dd(i, packed)
    return Polynomial._from_packed(n, packed)


def _transitions(n: int, one, fold) -> Iterator[tuple[bytes, object]]:
    """(one-line entries, value) for every w in S_n, by ascending inversion
    count, each level in decreasing lexicographic order: the transition of
    Lascoux-Schutzenberger (1985), folded.  With r the last descent of w, s
    the last index after r with w(s) < w(r) and v = w t_rs, S_w = x_r S_v +
    sum S_{v t_qr} over q < r with v(q) < v(r) and no q < j < r with
    v(q) < v(j) < v(r).  The identity's value is `one`, each other w's
    fold(value of v, r, the terms' values for q decreasing), made lazily, or
    None without a fold if v's value is None (S_w >= x_r S_v coefficientwise).

    Level k + 1 holds u s_i for each u of level k and each ascent i of u with
    u_i < u_{i+2} < ... < u_n: with u_j < ... < u_n the last run, every i in
    j..n-1, and j - 2 if u_{j-2} < u_{j-1}, u_j.  i is then the last descent
    of u s_i, so each w is reached once, from w s_r.  v is one level below w,
    and each v t_qr is on w's level but greater than w at q, its first
    change, so every term is done when w is reached and only two levels are
    held.  Entries are bytes, so n must lie in 0..255."""
    if not 0 <= n <= 255:
        raise ValueError("the transition walk needs 0 <= n <= 255, so that entries fit in a byte")

    def terms(x: bytearray, r: int, here: dict) -> Iterator:
        top, low = x[r - 1], 0
        for q in range(r - 2, -1, -1):
            if low < x[q] < top:
                low, x[q], x[r - 1] = x[q], top, x[q]
                yield here[bytes(x)]
                x[q], x[r - 1] = low, top

    below = {bytes(range(1, n + 1)): one}
    yield from below.items()
    while below:
        level = []
        for u in below:
            j = n - 1
            while j > 0 and u[j - 1] < u[j]:  # u[j:] is the last increasing run
                j -= 1
            for i in range(j, n - 1):
                level.append((u[:i] + bytes((u[i + 1], u[i])) + u[i + 2 :], i + 1))
            if j > 1 and u[j - 2] < u[j - 1] and u[j - 2] < u[j]:
                level.append((u[: j - 2] + bytes((u[j - 1], u[j - 2])) + u[j:], j - 1))
        here = {}
        for w, r in sorted(level, reverse=True):
            top, x = w[r - 1], bytearray(w)
            s = bisect(w, top, r) - 1  # w is increasing after r
            x[r - 1], x[s] = x[s], top
            v = below[bytes(x)]
            here[w] = value = v if v is None else fold(v, r, terms(x, r, here))
            yield w, value
        below = here


def _all_packed(n: int) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """(one-line entries, packed schubert(w)) for every w in S_n, in the order of
    `_transitions`, folded as x_r S_v plus each term: all positive, none cancels."""
    def fold(terms: dict[int, int], r: int, parts: Iterator[dict[int, int]]) -> dict[int, int]:
        at = _x(r)
        out = {k + at: c for k, c in terms.items()}
        for part in parts:
            for k, c in part.items():
                out[k] = out.get(k, 0) + c
        return out

    return ((tuple(w), terms) for w, terms in _transitions(n, {0: 1}, fold))


def schubert_all(n: int) -> Iterator[tuple[Permutation, Polynomial]]:
    """Yield (w, schubert(w)) for every w in S_n, by ascending inversion count,
    each level in decreasing lexicographic order, holding only two levels."""
    for e, terms in _all_packed(n):
        yield Permutation._adopt(e), Polynomial._from_packed(n, terms)


# -- coefficient predicates -------------------------------------------

def is_zero_one(f: Polynomial) -> bool:
    """True iff every coefficient is 0 or 1: the zero ones are not stored."""
    return all(map((1).__eq__, f._packed.values()))


def _zero_one_supports(n: int) -> Iterator[tuple[bytes, set[int] | None]]:
    """(one-line entries, the support of S_w as a set of packed keys, or None
    if S_w is not zero-one) for every w in S_n, in the order of `_transitions`.

    The survey's class-level twin of is_zero_one(schubert_classic(w)) (ROADMAP
    aim 2), folded on supports: all terms are positive, so S_w is zero-one iff
    x_r S_v and each term are and their supports are disjoint; the fold stops
    at the first overlap."""
    def fold(support: set[int], r: int, parts: Iterator[set[int] | None]) -> set[int] | None:
        support = set(map(_x(r).__add__, support))
        for part in parts:
            if part is None or not support.isdisjoint(part):
                return None
            support |= part
        return support

    return _transitions(n, {0}, fold)
