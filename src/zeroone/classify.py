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
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from operator import or_
from typing import Iterator, Optional

from .perms import Permutation, first_pattern, rothe_rows
from .poly import _zero_one_supports, is_zero_one, schubert_classic
from .orthodontia import _layout, _rest, _StateTable, is_multiplicity_free

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


class InternalCheckError(AssertionError):
    """Checked-mode disagreement between provably equivalent predicates."""


@dataclass(frozen=True)
class ConfigurationInstance:
    kind: str  # "A", "B", or "B'"
    indices: tuple[int, ...]  # (r1, c1, r2, c2, r3) or (r1, c1, r2, c2, r3, r4)


def _pending(row: int, least: int, second: int) -> tuple[int, int, int]:
    """The columns that row r1 of an inversion diagram leaves pending, as masks
    (A, B, B'): a box of a later row in one of them completes an instance of
    that kind whose (r1, c1) box lies in row r1.

    row is the row mask (bit c-1: box (r1, c)); least and second are the two
    least of w_1..w_{r1-1} (n + 1 for none).  Rows r3, r4 above r1 exist iff
    the least (for B', the second least) of them is below c1 and, for B, the
    second least is below c2.  The least admissible c1 leaves the most room
    for c2, so with c1 the least column of the row above least:
      A: (r1,c1),(r2,c2) boxes, r3<r1<r2, c1<c2, (r1,c2) missing, w_{r3}<c1:
         the columns above c1 outside the row;
      B: (r1,c1),(r1,c2),(r2,c2) boxes, r4 != r3 both above r1 < r2,
         w_{r3} < c1, w_{r4} < c2: the row's columns above max(c1, second);
      B': (r1,c1),(r1,c2),(r2,c1) boxes, r4<r3<r1<r2, c1<c2, w_{r3}<c1,
         w_{r4}<c1: the row's columns above second but its last.
    """
    a = b = 0
    c1s = row >> least << least
    if c1s:
        c1 = (c1s & -c1s).bit_length()
        a = ~row >> c1 << c1
        floor = max(c1, second)
        b = row >> floor << floor
    return a, b, row >> second << second & ~(1 << row.bit_length() >> 1)


def _configurations(entries: tuple[int, ...]) -> Iterator[tuple[int, str, int, int, list[int]]]:
    """(r1, kind, hits, least, rows) for every row r1 holding the (r1, c1) box
    of some instance of kind A, B or B', in row order (kinds in that order
    within a row).  hits are the row's pending columns (`_pending`) that hold
    a box further down, least is the least of w_1..w_{r1-1} (n + 1 for none)
    and rows are the row masks (bit c-1 of rows[r-1]: box (r, c))."""
    rows = rothe_rows(entries)
    unders = list(accumulate(rows[:0:-1], or_, initial=0))  # columns with a box below
    least = second = len(entries) + 1  # the two least of w_1..w_{r1-1}
    for r1, (v, row, under) in enumerate(zip(entries, rows, reversed(unders)), 1):
        if row:
            for kind, pending in zip(("A", "B", "B'"), _pending(row, least, second)):
                if hits := pending & under:
                    yield r1, kind, hits, least, rows
        if v < second:
            least, second = (v, least) if v < least else (least, v)


def _instance(
    entries: tuple[int, ...], r1: int, kind: str, hits: int, least: int, rows: list[int]
) -> ConfigurationInstance:
    """The least instance of kind whose (r1, c1) box lies in row r1, from a
    hit of `_configurations`.

    Its (r2, c2) box (for B', its (r2, c1) box) lies in h, the least hit
    column, and in the first row below r1 with a box there: a box (r, c')
    above a box (r', c) with c < c' makes (r, c) a box too (c < c' < w_r and
    w^-1(c) > r' > r), so the first row below r1 with a box in any hit
    column has one in h.
    """
    row = rows[r1 - 1]
    h = (hits & -hits).bit_length()
    r2 = next(r for r, below in enumerate(rows[r1:], r1 + 1) if below >> h - 1 & 1)

    def above(c: int) -> Iterator[int]:
        """Rows r < r1 with w_r < c, in increasing order."""
        return (r for r in range(1, r1) if entries[r - 1] < c)

    if kind == "B'":
        c2s = row >> h
        rs = above(h)
        r4, r3 = next(rs), next(rs)
        return ConfigurationInstance(kind, (r1, h, r2, h + (c2s & -c2s).bit_length(), r3, r4))
    c1s = row >> least << least
    c1 = (c1s & -c1s).bit_length()
    r3 = next(above(c1))
    if kind == "A":
        return ConfigurationInstance(kind, (r1, c1, r2, h, r3))
    r4 = next(r for r in above(h) if r != r3)
    return ConfigurationInstance(kind, (r1, c1, r2, h, r3, r4))


def find_configuration(w: Permutation) -> Optional[ConfigurationInstance]:
    """Lexicographically least configuration instance of w, or None.

    Kinds are searched in the order A, B, B'; within a kind, index tuples
    (r1, c1, r2, c2, r3[, r4]) are least in lexicographic order.
    """
    # the least hit by kind, then row: "A" < "B" < "B'" as strings
    hit = min(_configurations(w.entries), key=lambda h: (h[1], h[0]), default=None)
    return None if hit is None else _instance(w.entries, *hit)


def has_configuration(entries: tuple[int, ...]) -> bool:
    """True iff the inversion diagram of entries holds a configuration: does
    `_configurations` yield at all?"""
    return next(_configurations(entries), None) is not None


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

    Expansion is opt-in since it dominates the runtime.  The votes that
    refuse n > 255 (expansion, multiplicity-freeness) run first, so no scan
    runs on a refused w.  In checked mode a disagreement raises
    InternalCheckError: the predicates are theorems of each other, so
    disagreement means an implementation bug.
    """
    expansion = is_zero_one(schubert_classic(w)) if include_expansion else None
    multfree = is_multiplicity_free(w)
    no_configuration = not has_configuration(w.entries)
    witness = witness_pattern(w)
    status = ZeroOneStatus(expansion, witness is None, no_configuration, multfree, witness)
    if checked and not status.agree():
        raise InternalCheckError(f"zero-one predicates disagree for {w}: {status}")
    return status


@dataclass(frozen=True)
class SurveySummary:
    n: int
    total: int
    zero_one: int
    disagreements: int
    disagreement: Optional[Permutation] = None  # the least one, in lexicographic order


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


@lru_cache(maxsize=1)  # one build per process serves every block of a survey
def _avoider_class(n: int) -> set[bytes]:
    """One-line entries, as bytes, of every permutation in S_n avoiding the
    twelve patterns, built level by level from S_0 with `_sieve_avoids`.
    The set is shared between callers, so none may change it.

    Level m tests only the children of level m-1, the value m put into every
    position of each member: deleting the maximum of an avoider leaves an
    avoider, so no avoider is missed, and distinct members have distinct
    children.
    """
    tables = _deletion_tables(n)
    level = {b""}
    for m in range(1, n + 1):
        top = bytes((m,))
        children = (e[:k] + top + e[k:] for e in level for k in range(m))
        level = {e for e in children if _sieve_avoids(e, level, tables)}
    return level


def _survey_votes(n: int, first: Optional[int] = None):
    """(one-line entries as bytes, (pattern, configuration, multiplicity-free
    vote)) for every w in S_n, in lexicographic order; only for those
    starting with first if given.  The votes read the deletion tables of S_n,
    the avoiders of S_{n-1} (the S_0 leaf deletes nothing, so it reads none)
    and a state table of their own.

    One odometer over the prefixes of S_n (Knuth, TAOCP 4A, 7.2.1.2): a node
    places v at depth d, and with avail the values not yet placed,
    row = avail & (bit(v) - 1) is both row d+1 of D(w) (bit c-1: box (d+1, c))
    and the set of still-open columns that gain row d+1.  So each node does
    O(1) big-integer work for the row it adds:
    - the configuration vote ORs in the columns the row leaves pending
      (`_pending`) and falls at the first later box in one of them;
    - the state key, packed as `_StateTable` keys are (`orthodontia._layout`),
      gains the row: one multiply spreads its bit c to bit d of column c+1.
    Each leaf runs the sieve on its entries and looks its key up once
    `orthodontia._rest` has emptied the interval columns.
    """
    tables, states = _deletion_tables(n), _StateTable(n)
    if not n:
        yield b"", (_sieve_avoids(b"", set(), tables), True, states.vote(0))
        return
    below = _avoider_class(n - 1)
    field, last, top = (1 << n) - 1, n - 1, n + 1
    ones, rows, gather = _layout(n)
    singles = [bytes((v,)) for v in range(top)]
    entries = bytearray(n)
    # one frame per depth: the values to try there, then the prefix state above
    # it: the unplaced values (as bytes and as a mask), the key, the pending
    # columns (None once a configuration is found), the two least entries
    values = bytes(range(1, top))
    frames = [(iter(values if first is None else singles[first]), values, field, 0, 0, top, top)]
    while frames:
        untried, values, avail, key, pending, least, second = frames[-1]
        v = next(untried, 0)
        if not v:
            frames.pop()
            continue
        d = len(frames) - 1
        while True:  # place v at depth d, then the one value left if that is all
            entries[d] = v
            bit = 1 << v - 1
            avail ^= bit
            row = avail & bit - 1
            if row:
                key += (row * gather & ones) << d
                if pending is not None:
                    if row & pending:
                        pending = None
                    else:
                        a, b, b_prime = _pending(row, least, second)
                        pending |= a | b | b_prime
            if d == last:
                e = bytes(entries)
                rest = _rest(key, 0, ones, rows, n)
                yield e, (_sieve_avoids(e, below, tables), pending is not None, states.vote(rest))
                break
            if d + 1 == last:  # row n is empty, so least and second no longer matter
                d, v = last, avail.bit_length()
                continue
            if v < second:
                least, second = (v, least) if v < least else (least, v)
            values = values.replace(singles[v], b"")
            frames.append((iter(values), values, avail, key, pending, least, second))
            break


def _pool_size(workers: int, blocks: int) -> int:
    """Worker processes for a survey: at most the requested, the cores and the blocks."""
    return max(1, min(workers, os.cpu_count() or 1, blocks))


def _survey_block(n: int, zero_ones: Optional[set[bytes]], first: Optional[int]):
    """(zero-one, disagreements, total, first disagreeing entries or None) over
    the w in S_n starting with first, or over all of S_n for None, from a state
    table of its own.  zero_ones, if given, holds the one-line entries of the
    zero-one S_w among them and adds the expansion vote."""
    votes = _survey_votes(n, first)
    if zero_ones is not None:
        votes = ((e, (e in zero_ones, *vote)) for e, vote in votes)
    zero_one = disagreements = total = 0
    least = None
    for entries, vote in votes:
        if all(vote):
            zero_one += 1
        elif any(vote):
            if not disagreements:
                least = entries
            disagreements += 1
        total += 1
    return zero_one, disagreements, total, least


def survey(
    n: int,
    methods: str = "fast",
    workers: int = 1,
    checked: bool = False,
) -> SurveySummary:
    """Exhaustively classify S_n and summarize.

    methods="fast" runs the pattern, configuration, and multiplicity-freeness
    predicates; methods="all" adds the expansion vote from one transition
    walk over S_n that holds the supports of two inversion levels, never a
    coefficient (`poly._zero_one_supports`), and keeps only the zero-one w.

    The pattern vote comes from a sieve rather than a scan of every 5- and
    6-entry subsequence: the avoiders of S_{n-1} are built level by level,
    and w in S_n avoids the twelve patterns iff w is not one of them and all
    n of its one-step patterns are avoiders.  This is exact because pattern
    containment is transitive; it assumes nothing about zero-one-ness, so
    the vote stays independent of the other predicates.  Permutations are
    held as bytes, each one-step pattern is one bytes.translate, and so n
    must be at most 255.

    All three votes come from one odometer over the prefixes of S_n in
    lexicographic order (`_survey_votes`): each node adds one row of the
    inversion diagram, so the configuration vote and the multiplicity-free
    state key are built prefix by prefix, and each leaf runs the sieve and
    looks its key up in the state table.  Every survey tallies through
    `_survey_block`: in process once, over all of S_n with one state table;
    with workers > 1 once per first entry, on at most as many processes as
    there are cores and blocks.  A process builds the avoider class once
    (`_avoider_class` keeps its last build), but each block gets a state
    table of its own: from S_10 up a block fills a table to its cap, so a
    table kept for a process's later blocks would serve none of them.
    methods="all" takes the expansion votes once, in the calling process, and
    hands each block only the zero-one entries that start with its first entry.

    The summary names the least permutation, in lexicographic order, on which
    the votes disagree.  In checked mode any disagreement raises
    InternalCheckError naming it.
    """
    if methods not in ("fast", "all"):
        raise ValueError(f"unknown methods {methods!r}")
    if n < 0:
        raise ValueError("survey size must be nonnegative")
    if n > 255:
        raise ValueError("survey size must be at most 255, so that values fit in a byte")
    if workers < 1:
        raise ValueError("survey workers must be positive")
    zero_ones = None
    if methods == "all":
        zero_ones = {e for e, support in _zero_one_supports(n) if support is not None}
    pool_size = _pool_size(workers, n)
    if pool_size == 1:
        blocks = [_survey_block(n, zero_ones, None)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported only when a pool runs

        shares = [None if zero_ones is None else set() for _ in range(n)]
        for e in zero_ones or ():
            shares[e[0] - 1].add(e)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            blocks = list(pool.map(partial(_survey_block, n), shares, range(1, n + 1)))
    counts, disagreeing, totals, firsts = zip(*blocks)
    zero_one, disagreements, total = sum(counts), sum(disagreeing), sum(totals)
    first = min((e for e in firsts if e is not None), default=None)
    disagreement = None if first is None else Permutation(tuple(first))
    if checked and disagreements:
        raise InternalCheckError(
            f"survey of S_{n}: the votes disagree on {disagreements} permutations,"
            f" first on {disagreement}"
        )
    return SurveySummary(n, total, zero_one, disagreements, disagreement)
