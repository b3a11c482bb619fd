"""Dual characters of flagged Weyl modules via exact determinant ranks.

For a diagram D inside [n] x [n], the candidate subdiagrams are all C with
C_j <= D_j columnwise (same size, k-th least element dominated).  Grouping
the C by weight monomial, the coefficient of a monomial in the dual
character is the rank over Q of the span of the products of minors
det(Y[C_j rows; D_j cols]) of the generic upper-triangular matrix Y.  Ranks
are computed exactly by fraction-free (Bareiss) elimination on integer
coefficient matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

from .perms import Diagram, Permutation, delete_row_col, one_step_pattern, rothe_diagram
from .poly import Polynomial, coefficientwise_geq, schubert_classic

__all__ = [
    "column_leq",
    "diagram_leq",
    "minor",
    "dual_character",
    "pattern_dominance_check",
    "schubert_pattern_inequality",
    "DominanceResult",
    "SizeLimitError",
    "DEFAULT_SIZE_LIMIT",
    "MAX_SUBDIAGRAMS",
]

DEFAULT_SIZE_LIMIT = 6
# The route lists every C <= D before ranking, so its cost is #{C <= D}, the
# product of the columns' choice counts; the largest on a Rothe diagram of
# S_7 is 2700, and 10^5 took about 8 s on a 2-core x86-64 VM.
MAX_SUBDIAGRAMS = 10**5

# A Y-polynomial maps packed exponent keys to ints.  Variable y_ij (i <= j)
# owns the BITS-wide field at offset (j(j-1)/2 + i - 1) * BITS of the key, an
# index that does not depend on n, so one minor cache serves every diagram
# size and multiplying two monomials is adding their keys.
BITS = 8
_FIELD = (1 << BITS) - 1
YPoly = dict[int, int]


class SizeLimitError(ValueError):
    """Diagram too large for the configured dual-character limit."""


def column_leq(r: tuple[int, ...] | frozenset, s: tuple[int, ...] | frozenset) -> bool:
    """R <= S: equal size and the k-th least element of R is at most that of S."""
    rs, ss = sorted(r), sorted(s)
    return len(rs) == len(ss) and all(a <= b for a, b in zip(rs, ss))


def diagram_leq(c: Diagram, d: Diagram) -> bool:
    if c.n != d.n:
        return False
    return all(column_leq(cj, dj) for cj, dj in zip(c.columns, d.columns))


def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple[tuple[frozenset, int], ...]:
    """Determinant of the upper-triangular generic matrix restricted to
    the given rows and columns, as a tuple of (monomial, coefficient) pairs,
    each monomial a frozenset of ((row, col), exponent) pairs.

    The entry in position (i, j) is y_ij for i <= j and 0 otherwise, so the
    determinant vanishes unless rows <= cols elementwise sorted.
    """
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    terms = _packed_minor(tuple(sorted(rows)), tuple(sorted(cols)))
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


@lru_cache(maxsize=65536)
def _packed_minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """det Y[rows; cols] for sorted rows and cols, as (key, coefficient) pairs.

    Laplace expansion along the first row.  Distinct permutations give
    distinct monomials, so no two terms ever combine.
    """
    if not rows:
        return ((0, 1),)
    first, rest = rows[0], rows[1:]
    terms: list[tuple[int, int]] = []
    for idx, col in enumerate(cols):
        if first > col:
            continue
        var = 1 << (col * (col - 1) // 2 + first - 1) * BITS
        sign = -1 if idx % 2 else 1
        sub = _packed_minor(rest, cols[:idx] + cols[idx + 1 :])
        terms.extend((mono + var, sign * coeff) for mono, coeff in sub)
    return tuple(terms)


def _ypoly_mul(a: YPoly, b: tuple[tuple[int, int], ...]) -> YPoly:
    out: YPoly = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b:
            key = m1 + m2
            out[key] = get(key, 0) + c1 * c2
    return out


def _det_product(columns: tuple[tuple[int, ...], ...], dcols: tuple[tuple[int, ...], ...]) -> YPoly:
    prod: YPoly = {0: 1}
    shift, scale = 0, 1  # the product of the one-term minors, applied last
    for cj, dj in zip(columns, dcols):
        if dj:
            terms = _packed_minor(cj, dj)
            if len(terms) == 1:
                shift += terms[0][0]
                scale *= terms[0][1]
            else:
                prod = _ypoly_mul(prod, terms)
    return {mono + shift: coeff * scale for mono, coeff in prod.items() if coeff}


def matrix_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    if nrows == 0:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][col]
        top = mat[rank]
        for r in range(rank + 1, nrows):
            factor = mat[r][col]
            row = mat[r]
            for c in range(col + 1, ncols):
                row[c] = (row[c] * pivot - factor * top[c]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def _column_choices(col: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All sorted tuples S with S <= col, elementwise on sorted entries."""
    target = sorted(col)
    results: list[tuple[int, ...]] = []

    def rec(pos: int, prev: int, acc: list[int]):
        if pos == len(target):
            results.append(tuple(acc))
            return
        for v in range(prev + 1, target[pos] + 1):
            acc.append(v)
            rec(pos + 1, v, acc)
            acc.pop()

    rec(0, 0, [])
    return results


@lru_cache(maxsize=4096)
def _choice_count(col: tuple[int, ...]) -> int:
    """len(_column_choices(col)), counted without listing the choices."""
    ways = {0: 1}  # ways[v]: choices of the entries so far whose last entry is v
    for bound in sorted(col):
        nxt, run = {}, 0
        for v in range(1, bound + 1):
            run += ways.get(v - 1, 0)
            nxt[v] = run
        ways = nxt
    return sum(ways.values())


def _weight_groups(d: Diagram) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]]:
    """All C <= D, grouped by weight exponent vector."""
    n = d.n
    per_column = [_column_choices(col) for col in d.columns]
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {}
    for choice in product(*per_column):
        wt = [0] * n
        for col in choice:
            for i in col:
                wt[i - 1] += 1
        groups.setdefault(tuple(wt), []).append(choice)
    return groups


def _group_rank(members: list[tuple[tuple[int, ...], ...]], dcols: tuple[tuple[int, ...], ...]) -> int:
    if len(members) == 1:
        return 1
    polys = [_det_product(choice, dcols) for choice in members]
    basis: dict[int, int] = {}
    for p in polys:
        for mono in p:
            if mono not in basis:
                basis[mono] = len(basis)
    mat = []
    for p in polys:
        row = [0] * len(basis)
        for mono, coeff in p.items():
            row[basis[mono]] = coeff
        mat.append(row)
    return matrix_rank(mat)


def dual_character(d: Diagram, limit: int = DEFAULT_SIZE_LIMIT) -> Polynomial:
    """The dual character of the flagged Weyl module of d.

    Every coefficient is the exact rank of the span of determinant products
    for one weight group; for inversion diagrams this recovers the Schubert
    polynomial.
    """
    if d.n > limit:
        raise SizeLimitError(
            f"diagram size {d.n} exceeds limit {limit}; raise the limit explicitly to proceed"
        )
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
            "the determinant route lists"
        )
    dcols = d.columns
    # Every rank is at least 1, as `_group_rank` already assumes for one
    # member: a flagged minor product of C <= D is never zero.
    terms = {wt: _group_rank(members, dcols) for wt, members in _weight_groups(d).items()}
    return Polynomial._adopt(d.n, terms)


@dataclass(frozen=True)
class DominanceResult:
    monomial: Polynomial
    remainder: Polynomial
    ok: bool


def _hook_monomial(d: Diagram, k: int, l: int) -> Polynomial:
    """Weight of the boxes of d lying in row k or column l, each box once."""
    n = d.n
    e = [0] * n
    for j in range(1, n + 1):
        if k in d.column(j):
            e[k - 1] += 1
    for i in d.column(l):
        if i != k:
            e[i - 1] += 1
    return Polynomial.monomial(tuple(e))


def pattern_dominance_check(
    d: Diagram, k: int, l: int, limit: int = DEFAULT_SIZE_LIMIT
) -> DominanceResult:
    """Check chi_D >= M * chi_{D-hat}(x_k := 0) coefficientwise.

    D-hat keeps the [n] x [n] frame and drops the boxes in row k or column
    l; M is the weight of the dropped boxes.  Also asserts, group by group,
    that the coefficient of M*m in chi_D dominates the coefficient of m in
    chi_{D-hat}, and (for n <= 4) that augmenting any row-k-free C <= D-hat
    by the dropped boxes lands below D.
    """
    n = d.n
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"row/column ({k}, {l}) out of range for n={n}")
    chi = dual_character(d, limit=limit)
    dhat = delete_row_col(d, k, l, reindex=False)
    chi_hat = dual_character(dhat, limit=limit)
    m_poly = _hook_monomial(d, k, l)
    chi_hat0 = chi_hat.substitute_zero(k)
    remainder = chi - m_poly * chi_hat0
    ok = all(c >= 0 for c in remainder.terms.values())

    m_exp = next(iter(m_poly.terms))
    for e, coeff in chi_hat0.terms.items():
        shifted = tuple(a + b for a, b in zip(e, m_exp))
        if chi.coefficient(shifted) < coeff:
            ok = False

    if n <= 4:
        _assert_augmentation(d, dhat, k, l)
    return DominanceResult(monomial=m_poly, remainder=remainder, ok=ok)


def _assert_augmentation(d: Diagram, dhat: Diagram, k: int, l: int):
    row_boxes = [(k, j) for j in range(1, d.n + 1) if k in d.column(j)]
    col_boxes = [(i, l) for i in d.column(l)]
    for choice in product(*[_column_choices(col) for col in dhat.columns]):
        if any(k in col for col in choice):
            continue
        boxes = [(i, j) for j, col in enumerate(choice, start=1) for i in col]
        aug = Diagram.from_boxes(d.n, boxes + row_boxes + col_boxes)
        if not diagram_leq(aug, d):
            raise AssertionError(
                f"augmented subdiagram escapes the ambient diagram: {choice}"
            )


def schubert_pattern_inequality(w: Permutation, k: int) -> bool:
    """schubert(w) - M * schubert(sigma) (reindexed) has no negative coefficient,
    where sigma is the one-step pattern at position k."""
    n = w.n
    if not 1 <= k <= n:
        raise ValueError(f"position {k} out of range for n={n}")
    sigma = one_step_pattern(w, k)
    d = rothe_diagram(w)
    m_poly = _hook_monomial(d, k, w[k])
    positions = tuple(p for p in range(1, n + 1) if p != k)
    lifted = schubert_classic(sigma).reindex(positions, n)
    return coefficientwise_geq(schubert_classic(w), m_poly * lifted)
