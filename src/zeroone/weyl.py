"""Dual characters of flagged Weyl modules via exact determinant ranks.

For a diagram D inside [n] x [n], the candidate subdiagrams are all C with
C_j <= D_j columnwise (same size, k-th least element dominated).  Grouping
the C by weight monomial, the coefficient of a monomial in the dual
character is the rank over Q of the span of the products of minors
det(Y[C_j rows; D_j cols]) of the generic upper-triangular matrix Y.  The
spans are built one column at a time and kept as exact echelon bases; the
ranks depend only on the multiset of nonempty columns and are memoized by it.

The dominance check needs chi_{D-hat}(x_k := 0) only, the C <= D-hat with no
box in row k.  Deleting row k and renumbering the rows below it keeps their
order, so these C are the C' <= D' of the minor diagram D' (row k and column
l deleted) in the (n-1) frame, and Y without row and column k is the generic
upper-triangular (n-1)-matrix: every minor and every rank is unchanged.
Each dominance level reads M, the deleted boxes' weight, off its own diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from .perms import Diagram
from .poly import Polynomial, _x

__all__ = [
    "minor",
    "dual_character",
    "pattern_dominance_check",
    "DominanceResult",
    "SizeLimitError",
    "MAX_SUBDIAGRAMS",
]

# Bounds #{C <= D} (at most 2700 on a Rothe diagram of S_7), not the cost: on a
# 2-core x86-64 VM 10^5 took 0.3 s (five columns {3,4,5}, S_5), 85500 7.5 s (six
# columns, S_6; README), 63504 58 s and 2.2 GB (two columns {6,...,10}, S_10).
MAX_SUBDIAGRAMS = 10**5

# A Y-polynomial maps packed exponent keys to ints.  Variable y_ij (i <= j)
# owns the BITS-wide field at offset (j(j-1)/2 + i - 1) * BITS of the key, an
# index that does not depend on n, so one minor cache serves every diagram
# size and multiplying two monomials is adding their keys.
BITS = 8
_FIELD = (1 << BITS) - 1
YPoly = dict[int, int]


class SizeLimitError(ValueError):
    """Diagram too large for the determinant route's guards."""


def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple[tuple[frozenset, int], ...]:
    """Determinant of the upper-triangular generic matrix restricted to
    the given rows and columns, as a tuple of (monomial, coefficient) pairs,
    each monomial a frozenset of ((row, col), exponent) pairs.

    The entry in position (i, j) is y_ij for i <= j and 0 otherwise, so the
    determinant vanishes unless rows <= cols elementwise sorted, and when a
    row or a column repeats.
    """
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    if min(rows + cols, default=1) < 1:
        raise ValueError("minor needs row and column indices from 1")
    if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
        return ()
    if len(rows) > _FIELD:
        # decoding walks every y field below a term's last: the diagonal at 255 rows
        # takes 0.3 to 0.5 s on a 2-core VM
        raise ValueError(f"minor of {len(rows)} rows: at most {_FIELD}")
    terms = _minors(sorted(cols), sorted(rows)).get((1 << len(rows)) - 1, ())
    decoded = [(_unpack(key), coeff) for key, coeff in terms]
    return tuple(sorted(decoded, key=lambda kv: sorted(kv[0])))


def _unpack(key: int) -> frozenset:
    """The ((row, col), exponent) pairs of a packed monomial."""
    pairs = []
    i = j = 1
    while key:
        if key & _FIELD:
            pairs.append(((i, j), key & _FIELD))
        key >>= BITS
        i, j = (1, j + 1) if i == j else (i + 1, j)
    return frozenset(pairs)


def _minors(cols, pool) -> dict[int, list[tuple[int, int]]]:
    """det Y[R; cols] for every set R of len(cols) rows of pool whose minor is
    not 0, keyed by R as a bitmask over pool (bit t for pool[t]), as (key,
    coefficient) pairs; cols and pool are sorted.

    Column by column, Laplace expansion along the last one:
    det Y[R; c_1..c_t] is the sum over r in R with r <= c_t of
    (-1)^#{x in R : x > r} * y_{r c_t} * det Y[R - r; c_1..c_{t-1}].
    Distinct matchings give distinct monomials, so no two terms ever combine.
    """
    dets = {0: [(0, 1)]}
    for c in cols:
        base = c * (c - 1) // 2 - 1
        rows = [(1 << t, 1 << (base + r) * BITS) for t, r in enumerate(pool) if r <= c]
        step: dict[int, list[tuple[int, int]]] = {}
        for mask, terms in dets.items():
            for bit, var in rows:
                if not mask & bit:
                    sign = -1 if (mask & -bit).bit_count() & 1 else 1
                    step.setdefault(mask | bit, []).extend((m + var, sign * v) for m, v in terms)
        dets = step
    return dets


Span = dict[int, YPoly]  # an echelon basis: each row keyed by its largest key


def _insert(basis: Span, row: YPoly) -> None:
    """Add row to the echelon basis unless the basis spans it already.

    Fraction-free: cancel the lead against the basis row with that lead
    until a new lead is left, then store the row with its content divided
    out.  Leads stay distinct, so len(basis) is the rank of all rows added.
    The row is taken over: it is edited in place or stored.
    """
    while row:
        lead = max(row)
        top = basis.get(lead)
        if top is None:
            g = gcd(*row.values())
            basis[lead] = {m: c // g for m, c in row.items()} if g > 1 else row
            return
        g = gcd(top[lead], row[lead])
        a, b = top[lead] // g, row[lead] // g
        if a != 1:
            row = {m: a * c for m, c in row.items()}
        get = row.get
        for m, c in top.items():
            if v := get(m, 0) - b * c:
                row[m] = v
            else:
                del row[m]


def matrix_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by the same elimination."""
    basis: Span = {}
    for row in rows:
        _insert(basis, {c: v for c, v in enumerate(row) if v})
    return len(basis)


@lru_cache(maxsize=4096)
def _choice_count(col: tuple[int, ...]) -> int:
    """The number of choices S <= col, len(_column_minors(col)), counted without listing them."""
    ways = {0: 1}  # ways[v]: choices of the entries so far whose last entry is v
    for bound in sorted(col):
        nxt, run = {}, 0
        for v in range(1, bound + 1):
            run += ways.get(v - 1, 0)
            nxt[v] = run
        ways = nxt
    return sum(ways.values())


@lru_cache(maxsize=4096)
def _column_minors(col: tuple[int, ...]) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """(packed weight, leading key, det Y[S; col]) for every choice S <= col, in
    lexicographic order of S.  A minor of the upper-triangular Y is not 0 exactly
    when S <= col (Hall's condition), so these are the nonzero minors on col."""
    pool = range(1, max(col, default=0) + 1)
    minors = sorted(([i for i in pool if mask >> i - 1 & 1], terms)
                    for mask, terms in _minors(col, pool).items())
    return tuple((sum(map(_x, s)), max(t)[0], tuple(t)) for s, t in minors)


def _times(row: YPoly, terms: tuple[tuple[int, int], ...]) -> YPoly:
    """row * det, zero coefficients dropped."""
    if len(terms) == 1:
        ((m2, c2),) = terms
        return {m1 + m2: c1 * c2 for m1, c1 in row.items()}
    out: YPoly = {}
    get, items = out.get, row.items()
    for m2, c2 in terms:
        for m1, c1 in items:
            key = m1 + m2
            out[key] = get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _extend(spans: dict[int, Span], col: tuple[int, ...], last: bool) -> dict[int, Span]:
    """The spans after one more column, keyed by packed partial weight.

    span(P*Q) = span(P)*Q for a choice's minor Q != 0, and multiplying by Q
    adds Q's leading key to every lead, so each contribution arrives in
    echelon form: the first is adopted and only the others are eliminated.
    In the last column a lone contribution's size is that of its span.
    """
    parts: dict[int, list] = {}
    for wkey, qlead, terms in _column_minors(col):
        for wt, span in spans.items():
            parts.setdefault(wt + wkey, []).append((span, qlead, terms))
    out: dict[int, Span] = {}
    for wt, ((span, qlead, terms), *others) in parts.items():
        if last and not others:
            out[wt] = span
            continue
        basis = out[wt] = {lead + qlead: _times(row, terms) for lead, row in span.items()}
        for span, _, terms in others:
            for row in span.values():
                _insert(basis, _times(row, terms))
    return out


@lru_cache(maxsize=256)
def _character(cols: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """Per packed weight, the rank of the minor products of all C <= D for D's
    sorted nonempty columns cols, built column by column, fewest choices first
    (no span is empty: a flagged minor product is never 0).  Callers share the
    dict: copy it before writing."""
    order = sorted(cols, key=_choice_count)
    spans: dict[int, Span] = {0: {0: {0: 1}}}
    for i, col in enumerate(order, 1):
        spans = _extend(spans, col, i == len(order))
    return {wt: len(b) for wt, b in spans.items()}


def dual_character(d: Diagram) -> Polynomial:
    """The dual character of the flagged Weyl module of d.

    Every coefficient is the exact rank of the span of determinant products
    for one weight group; for inversion diagrams this recovers the Schubert
    polynomial.  Recent results are kept per multiset of nonempty columns.
    """
    # Minors are multilinear, so y_ab has exponent at most #{j : b in D_j} <= n
    # in a product over the columns; a field must hold that without carrying.
    if d.n > _FIELD:
        raise SizeLimitError(
            f"diagram size {d.n} exceeds {_FIELD}, the largest exponent a {BITS}-bit field holds"
        )
    count = prod(map(_choice_count, d.columns))
    if count > MAX_SUBDIAGRAMS:
        raise SizeLimitError(
            f"diagram has {count} subdiagrams C <= D, more than the {MAX_SUBDIAGRAMS} "
            "the determinant route accepts"
        )
    return Polynomial._from_packed(d.n, _character(tuple(sorted(filter(None, d.columns)))))


@dataclass(frozen=True)
class DominanceResult:
    monomial: Polynomial
    remainder: Polynomial
    ok: bool


def pattern_dominance_check(d: Diagram, k: int, l: int) -> DominanceResult:
    """Check chi_D >= M * chi_{D-hat}(x_k := 0) coefficientwise.

    D-hat keeps the [n] x [n] frame and drops the boxes in row k or column
    l; M is the weight of the dropped boxes.  M is a monomial, so the
    remainder's coefficient at M*m is chi_D(M*m) - chi_{D-hat}(m), and at any
    other monomial a rank in chi_D: a nonnegative remainder is exactly the
    group-by-group test.

    chi_{D-hat}(x_k := 0) is the character of D' (row k and column l deleted,
    later ones renumbered, frame n-1) with x_k put back at exponent 0: a C <=
    D-hat has no x_k iff it has no box in row k, renumbering keeps order, and
    Y without row and column k is the generic upper-triangular (n-1)-matrix.
    """
    if not (1 <= k <= d.n and 1 <= l <= d.n):
        raise ValueError(f"row/column ({k}, {l}) out of range for n={d.n}")
    chi = dual_character(d)
    # D passed the guards and D' needs none: n-1 columns, rows in [n-1], no column gains choices
    cols = (tuple(i - (i > k) for i in c if i != k) for j, c in enumerate(d.columns, 1) if j != l)
    chi_minor = _character(tuple(sorted(filter(None, cols))))
    m_key = sum(k in col for col in d.columns) * _x(k)
    m_key += sum(_x(i) for i in d.columns[l - 1] if i != k)
    low, up = _x(k) - 1, _x(2)  # the fields of x_k..x_{n-1} move up one, x_k's reads 0
    remainder = dict(chi._packed)  # the shared character stays as it is
    ok = True
    for key, c in chi_minor.items():
        key = (key & low | (key & ~low) * up) + m_key
        if v := remainder.get(key, 0) - c:
            remainder[key] = v
            ok = ok and v > 0
        else:
            del remainder[key]
    return DominanceResult(Polynomial._from_packed(d.n, {m_key: 1}),
                           Polynomial._from_packed(d.n, remainder), ok)
