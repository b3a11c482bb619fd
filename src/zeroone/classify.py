"""Forbidden configurations, the twelve patterns, and the zero-one predicates.

Four independent tests decide whether a Schubert polynomial has all its
coefficients in {0, 1}: direct expansion, avoidance of the twelve patterns,
absence of configurations A / B / B' in the inversion diagram, and
multiplicity-freeness of the orthodontic sequence.  They are provably
equivalent; `zero_one_status` computes them separately so the equivalence
stays an executable check.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations as it_perms
from typing import Iterator, Optional

from .perms import Permutation, first_pattern, rothe_rows
from .poly import _all_packed, is_zero_one, schubert_classic
from .orthodontia import is_multiplicity_free

__all__ = [
    "MULTIPLICITOUS_PATTERNS",
    "ConfigurationInstance",
    "find_configuration",
    "has_configuration",
    "avoids_multiplicitous",
    "witness_pattern",
    "ZeroOneStatus",
    "zero_one_status",
    "survey",
    "SurveySummary",
    "InternalCheckError",
    "SURVEY_LIMIT_FAST",
    "SURVEY_LIMIT_ALL",
]

MULTIPLICITOUS_PATTERNS: tuple[Permutation, ...] = tuple(
    Permutation(p)
    for p in (
        (1, 2, 5, 4, 3),
        (1, 3, 2, 5, 4),
        (1, 3, 5, 2, 4),
        (1, 3, 5, 4, 2),
        (2, 1, 5, 4, 3),
        (1, 2, 5, 3, 6, 4),
        (1, 2, 5, 6, 3, 4),
        (2, 1, 5, 3, 6, 4),
        (2, 1, 5, 6, 3, 4),
        (3, 1, 5, 2, 6, 4),
        (3, 1, 5, 6, 2, 4),
        (3, 1, 5, 6, 4, 2),
    )
)

_PATTERN_BYTES = frozenset(bytes(p.entries) for p in MULTIPLICITOUS_PATTERNS)

SURVEY_LIMIT_FAST = 8
SURVEY_LIMIT_ALL = 7


class InternalCheckError(AssertionError):
    """Checked-mode disagreement between provably equivalent predicates."""


@dataclass(frozen=True)
class ConfigurationInstance:
    kind: str  # "A", "B", or "B'"
    indices: tuple[int, ...]  # (r1, c1, r2, c2, r3) or (r1, c1, r2, c2, r3, r4)


def _first_configuration(entries: tuple[int, ...]) -> Optional[ConfigurationInstance]:
    """Lexicographically least configuration instance in the inversion diagram.

    Kinds are searched in the order A, B, B'; within a kind, index tuples
    (r1, c1, r2, c2, r3[, r4]) are least in lexicographic order.  Rows r3, r4
    above r1 exist iff the least (for B', the second least) of w_1..w_{r1-1}
    is below c1 and, for B, the second least is below c2.  Within a row r1
    the least admissible c1 leaves the most room for c2, so each kind takes
    one look per row.
    """
    n = len(entries)
    rows = rothe_rows(entries)  # bit c-1 of rows[r-1]: box (r, c)
    under = [0] * (n + 1)  # under[r]: columns with a box in some row below r
    least = [n + 1] * (n + 1)  # least[r], second[r]: the two least of w_1..w_{r-1}
    second = [n + 1] * (n + 1)
    for r in range(n - 1, 0, -1):
        under[r] = under[r + 1] | rows[r]
    for r in range(1, n):
        v, lo, hi = entries[r - 1], least[r], second[r]
        least[r + 1], second[r + 1] = (v, lo) if v < lo else (lo, min(v, hi))
    low_c1 = [0] * (n + 1)  # low_c1[r]: least c1 of a box (r, c1) with least[r] < c1, or 0
    for r in range(1, n + 1):
        c1s = rows[r - 1] >> least[r] << least[r]
        low_c1[r] = (c1s & -c1s).bit_length()

    def first_box(r1: int, cmask: int) -> tuple[int, int]:
        """Least box (r2, c2) with r2 > r1 and bit c2-1 set in cmask (within under[r1])."""
        for r2 in range(r1 + 1, n + 1):
            hit = rows[r2 - 1] & cmask
            if hit:
                return r2, (hit & -hit).bit_length()

    def above(r1: int, c: int) -> Iterator[int]:
        """Rows r < r1 with w_r < c, in increasing order."""
        return (r for r in range(1, r1) if entries[r - 1] < c)

    # A: (r1,c1),(r2,c2) boxes, r3<r1<r2, c1<c2, (r1,c2) missing, w_{r3}<c1
    for r1 in range(1, n + 1):
        c1 = low_c1[r1]
        if c1:
            c2s = (under[r1] & ~rows[r1 - 1]) >> c1 << c1
            if c2s:
                r2, c2 = first_box(r1, c2s)
                return ConfigurationInstance("A", (r1, c1, r2, c2, next(above(r1, c1))))
    # B: (r1,c1),(r1,c2),(r2,c2) boxes, r4 != r3 both above r1 < r2,
    #    w_{r3} < c1, w_{r4} < c2
    for r1 in range(1, n + 1):
        c1 = low_c1[r1]
        if c1:
            floor = max(c1, second[r1])
            c2s = (rows[r1 - 1] & under[r1]) >> floor << floor
            if c2s:
                r2, c2 = first_box(r1, c2s)
                r3 = next(above(r1, c1))
                r4 = next(r for r in above(r1, c2) if r != r3)
                return ConfigurationInstance("B", (r1, c1, r2, c2, r3, r4))
    # B': (r1,c1),(r1,c2),(r2,c1) boxes, r4<r3<r1<r2, c1<c2, w_{r3}<c1, w_{r4}<c1
    for r1 in range(1, n + 1):
        c1s = (rows[r1 - 1] & under[r1]) >> second[r1] << second[r1]
        if c1s:
            c1 = (c1s & -c1s).bit_length()
            c2s = rows[r1 - 1] >> c1
            if c2s:
                r2 = first_box(r1, 1 << (c1 - 1))[0]
                rs = above(r1, c1)
                r4, r3 = next(rs), next(rs)
                c2 = c1 + (c2s & -c2s).bit_length()
                return ConfigurationInstance("B'", (r1, c1, r2, c2, r3, r4))
    return None


def find_configuration(w: Permutation) -> Optional[ConfigurationInstance]:
    """Lexicographically least configuration instance of w, or None."""
    return _first_configuration(w.entries)


def has_configuration(entries: tuple[int, ...]) -> bool:
    """True iff the inversion diagram of entries holds a configuration."""
    return _first_configuration(entries) is not None


def avoids_multiplicitous(w: Permutation) -> bool:
    """True iff w avoids all twelve multiplicitous patterns."""
    return witness_pattern(w) is None


def witness_pattern(w: Permutation) -> Optional[tuple[Permutation, tuple[int, ...]]]:
    """The first of the twelve patterns, in list order, held by w, with its least realization."""
    return first_pattern(w, MULTIPLICITOUS_PATTERNS)


@dataclass(frozen=True)
class ZeroOneStatus:
    by_expansion: Optional[bool]
    by_patterns: bool
    by_configurations: bool
    by_multiplicity_free: bool
    witness: Optional[tuple[Permutation, tuple[int, ...]]]  # `witness_pattern(w)`

    def computed(self) -> list[bool]:
        out = [self.by_patterns, self.by_configurations, self.by_multiplicity_free]
        if self.by_expansion is not None:
            out.append(self.by_expansion)
        return out

    def agree(self) -> bool:
        values = self.computed()
        return all(values) or not any(values)

    def verdict(self) -> bool:
        return all(self.computed())


def zero_one_status(
    w: Permutation, include_expansion: bool = False, checked: bool = False
) -> ZeroOneStatus:
    """Evaluate the zero-one predicates independently.

    Expansion is opt-in since it dominates the runtime.  In checked mode a
    disagreement raises InternalCheckError: the predicates are theorems of
    each other, so disagreement means an implementation bug.
    """
    witness = witness_pattern(w)
    status = ZeroOneStatus(
        by_expansion=is_zero_one(schubert_classic(w)) if include_expansion else None,
        by_patterns=witness is None,
        by_configurations=find_configuration(w) is None,
        by_multiplicity_free=is_multiplicity_free(w),
        witness=witness,
    )
    if checked and not status.agree():
        raise InternalCheckError(f"zero-one predicates disagree for {w}: {status}")
    return status


@dataclass(frozen=True)
class SurveySummary:
    n: int
    total: int
    zero_one: int
    disagreements: int
    methods: str


def _deletion_tables(n: int) -> list[tuple[bytes, bytes]]:
    """Entry x (for x in 1..n) holds the bytes.translate arguments that delete
    the value x and flatten: a table mapping every byte v to v - (v > x), and x."""
    return [(bytes(v - (v > x) for v in range(256)), bytes((x,))) for x in range(n + 1)]


def _sieve_avoids(entries: bytes, below: set[bytes], tables: list[tuple[bytes, bytes]]) -> bool:
    """Pattern vote of the survey: does entries avoid the twelve patterns?

    entries holds one-line values as bytes, below must be the set of avoiders
    in S_{n-1} and tables must come from `_deletion_tables(m)` with m >= n.
    Containment is transitive, so w avoids every pattern iff w is not itself
    one of them and each of its one-step patterns (delete one entry, flatten)
    avoids them all.
    """
    if entries in _PATTERN_BYTES:
        return False
    for x in entries:
        table, delete = tables[x]
        if entries.translate(table, delete) not in below:
            return False
    return True


def _avoider_class(n: int) -> set[bytes]:
    """One-line entries, as bytes, of every permutation in S_n avoiding the
    twelve patterns, built level by level from S_0 with `_sieve_avoids`."""
    tables = _deletion_tables(n)
    level = {b""}
    for m in range(1, n + 1):
        perms = map(bytes, it_perms(range(1, m + 1)))
        level = {e for e in perms if _sieve_avoids(e, level, tables)}
    return level


def _fast_votes(n: int):
    """The survey's pattern, configuration and multiplicity-free votes on S_n,
    as one function of the one-line entries."""
    tables = _deletion_tables(n)
    below = _avoider_class(n - 1)

    def votes(entries: tuple[int, ...]) -> tuple[bool, bool, bool]:
        pat = _sieve_avoids(bytes(entries), below, tables)
        conf = not has_configuration(entries)
        mult = is_multiplicity_free(Permutation._adopt(entries))
        return pat, conf, mult

    return votes


def _block_entries(n: int, first: Optional[int]):
    """S_n in lexicographic order; only the permutations starting with first if given."""
    if first is None:
        return it_perms(range(1, n + 1))
    rest = [v for v in range(1, n + 1) if v != first]
    return ((first,) + e for e in it_perms(rest))


def _pool_size(workers: int, blocks: int) -> int:
    """Worker processes for a survey: at most the requested, the cores and the blocks."""
    return max(1, min(workers, os.cpu_count() or 1, blocks))


def _tally(votes: Iterator[tuple[bool, ...]]) -> tuple[int, int, int]:
    """(zero-one, disagreements, total) over the vote tuples of a survey."""
    zero_one = disagreements = total = 0
    for vote in votes:
        total += 1
        if all(vote):
            zero_one += 1
        elif any(vote):
            disagreements += 1
    return zero_one, disagreements, total


def _survey_block(args) -> tuple[int, int, int]:
    n, first = args
    return _tally(map(_fast_votes(n), _block_entries(n, first)))


def survey(
    n: int,
    methods: str = "fast",
    workers: int = 1,
    limit: int | None = None,
) -> SurveySummary:
    """Exhaustively classify S_n and summarize.

    methods="fast" runs the pattern, configuration, and multiplicity-freeness
    predicates; methods="all" additionally expands every Schubert polynomial
    (streamed level by level, single process).  Size limits default to 8 and
    7 respectively; pass limit= to override deliberately.

    The pattern vote comes from a sieve rather than a scan of every 5- and
    6-entry subsequence: the avoiders of S_{n-1} are built level by level,
    and w in S_n avoids the twelve patterns iff w is not one of them and all
    n of its one-step patterns are avoiders.  This is exact because pattern
    containment is transitive; it assumes nothing about zero-one-ness, so
    the vote stays independent of the other predicates.  Permutations are
    held as bytes, each one-step pattern is one bytes.translate, and so n
    must be at most 255.  With workers > 1, S_n is split into one block per
    first entry, on at most as many processes as there are cores and blocks.
    """
    if methods not in ("fast", "all"):
        raise ValueError(f"unknown methods {methods!r}")
    if n < 0:
        raise ValueError("survey size must be nonnegative")
    if n > 255:
        raise ValueError("survey size must be at most 255, so that values fit in a byte")
    if workers < 1:
        raise ValueError("survey workers must be positive")
    cap = limit if limit is not None else (
        SURVEY_LIMIT_FAST if methods == "fast" else SURVEY_LIMIT_ALL
    )
    if n > cap:
        raise ValueError(f"survey size {n} exceeds limit {cap}")
    pool_size = _pool_size(workers, n)
    if methods == "all":
        fast_votes = _fast_votes(n)  # the expansion vote reads the packed coefficients
        zero_one, disagreements, total = _tally(
            (all(c == 1 for c in terms.values()), *fast_votes(e)) for e, terms in _all_packed(n)
        )
    elif pool_size == 1:
        zero_one, disagreements, total = _survey_block((n, None))
    else:
        blocks = [(n, first) for first in range(1, n + 1)]
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            zero_one, disagreements, total = map(sum, zip(*pool.map(_survey_block, blocks)))
    return SurveySummary(n, total, zero_one, disagreements, methods)
