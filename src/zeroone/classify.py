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
from itertools import combinations, permutations as it_perms
from typing import Optional

from .perms import Permutation, contains_pattern, rothe_diagram
from .poly import is_zero_one, schubert_all, schubert_classic
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

_PATTERNS_BY_LENGTH: dict[int, frozenset[tuple[int, ...]]] = {}
for _p in MULTIPLICITOUS_PATTERNS:
    _PATTERNS_BY_LENGTH.setdefault(_p.n, set()).add(_p.entries)  # type: ignore[arg-type]
_PATTERNS_BY_LENGTH = {m: frozenset(s) for m, s in _PATTERNS_BY_LENGTH.items()}

SURVEY_LIMIT_FAST = 8
SURVEY_LIMIT_ALL = 7


class InternalCheckError(AssertionError):
    """Checked-mode disagreement between provably equivalent predicates."""


@dataclass(frozen=True)
class ConfigurationInstance:
    kind: str  # "A", "B", or "B'"
    indices: tuple[int, ...]  # (r1, c1, r2, c2, r3) or (r1, c1, r2, c2, r3, r4)


def _rothe_boxes(entries: tuple[int, ...]) -> list[tuple[int, int]]:
    n = len(entries)
    inv = [0] * (n + 1)
    for pos, v in enumerate(entries, start=1):
        inv[v] = pos
    boxes = []
    for i in range(1, n + 1):
        wi = entries[i - 1]
        for j in range(1, wi):
            if inv[j] > i:
                boxes.append((i, j))
    return boxes


def _prefix_counts(entries: tuple[int, ...]) -> list[list[int]]:
    """cnt[r][c] = number of rows r' < r with w_{r'} < c (1-based r, c)."""
    n = len(entries)
    cnt = [[0] * (n + 2) for _ in range(n + 2)]
    for r in range(1, n + 2):
        prev = entries[r - 2] if r >= 2 else None
        for c in range(1, n + 2):
            cnt[r][c] = cnt[r - 1][c] + (1 if prev is not None and prev < c else 0)
    return cnt


def find_configuration(
    w: Permutation, d=None
) -> Optional[ConfigurationInstance]:
    """Lexicographically least configuration instance in the inversion diagram.

    Kinds are searched in the order A, B, B'; within a kind, index tuples
    (r1, c1, r2, c2, r3[, r4]) are scanned in lexicographic order.
    """
    if d is None:
        d = rothe_diagram(w)
    entries = w.entries
    n = w.n
    boxes = sorted(_rothe_boxes(entries))
    box_set = set(boxes)
    # A: (r1,c1),(r2,c2) boxes, r3<r1<r2, 1<c1<c2, (r1,c2) missing, w_{r3}<c1
    for r1, c1 in boxes:
        if c1 < 2:
            continue
        for r2, c2 in boxes:
            if r2 <= r1 or c2 <= c1 or (r1, c2) in box_set:
                continue
            for r3 in range(1, r1):
                if entries[r3 - 1] < c1:
                    return ConfigurationInstance("A", (r1, c1, r2, c2, r3))
    # B: (r1,c1),(r1,c2),(r2,c2) boxes, r4 != r3 both above r1 < r2,
    #    w_{r3} < c1, w_{r4} < c2
    for r1, c1 in boxes:
        if c1 < 2:
            continue
        for r2 in range(r1 + 1, n + 1):
            for c2 in range(c1 + 1, n + 1):
                if (r1, c2) not in box_set or (r2, c2) not in box_set:
                    continue
                for r3 in range(1, r1):
                    if entries[r3 - 1] >= c1:
                        continue
                    for r4 in range(1, r1):
                        if r4 != r3 and entries[r4 - 1] < c2:
                            return ConfigurationInstance("B", (r1, c1, r2, c2, r3, r4))
    # B': (r1,c1),(r1,c2),(r2,c1) boxes, r4<r3<r1<r2, 2<c1<c2, w_{r3}<c1, w_{r4}<c1
    for r1, c1 in boxes:
        if c1 < 3:
            continue
        for r2 in range(r1 + 1, n + 1):
            if (r2, c1) not in box_set:
                continue
            for c2 in range(c1 + 1, n + 1):
                if (r1, c2) not in box_set:
                    continue
                for r3 in range(2, r1):
                    if entries[r3 - 1] >= c1:
                        continue
                    for r4 in range(1, r3):
                        if entries[r4 - 1] < c1:
                            return ConfigurationInstance("B'", (r1, c1, r2, c2, r3, r4))
    return None


def has_configuration(entries: tuple[int, ...]) -> bool:
    """Fast existence test equivalent to find_configuration(...) is not None."""
    n = len(entries)
    boxes = _rothe_boxes(entries)
    if not boxes:
        return False
    box_set = set(boxes)
    cnt = _prefix_counts(entries)
    total = cnt[n + 1]
    # columns -> rows holding a box, for "some box strictly below r1" tests
    max_row = [0] * (n + 1)
    for r, c in boxes:
        if r > max_row[c]:
            max_row[c] = r
    rows: dict[int, list[int]] = {}
    for r, c in boxes:
        rows.setdefault(r, []).append(c)
    # A
    for r1, c1 in boxes:
        if c1 < 2 or cnt[r1][c1] == 0:
            continue
        for r2, c2 in boxes:
            if r2 > r1 and c2 > c1 and (r1, c2) not in box_set:
                return True
    # B
    for r1, cs in rows.items():
        if len(cs) < 2:
            continue
        cs = sorted(cs)
        for a, c1 in enumerate(cs):
            if c1 < 2 or cnt[r1][c1] == 0:
                continue
            for c2 in cs[a + 1 :]:
                if max_row[c2] > r1 and cnt[r1][c2] >= 2:
                    return True
    # B'
    for r1, cs in rows.items():
        if len(cs) < 2:
            continue
        cs = sorted(cs)
        for a, c1 in enumerate(cs):
            if c1 < 3 or cnt[r1][c1] < 2 or max_row[c1] <= r1:
                continue
            if any(c2 > c1 for c2 in cs[a + 1 :]):
                return True
    return False


def _contains_any_pattern(entries: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """First multiplicitous pattern contained in entries, scanning lengths 5, 6."""
    n = len(entries)
    for m in sorted(_PATTERNS_BY_LENGTH):
        if m > n:
            break
        targets = _PATTERNS_BY_LENGTH[m]
        for idxs in combinations(range(n), m):
            vals = [entries[i] for i in idxs]
            ranks = tuple(sum(1 for u in vals if u <= v) for v in vals)
            if ranks in targets:
                return ranks
    return None


def avoids_multiplicitous(w: Permutation) -> bool:
    """True iff w avoids all twelve multiplicitous patterns."""
    return _contains_any_pattern(w.entries) is None


def witness_pattern(w: Permutation) -> Optional[tuple[Permutation, tuple[int, ...]]]:
    """A contained multiplicitous pattern and its least realization, if any."""
    for p in MULTIPLICITOUS_PATTERNS:
        realization = contains_pattern(w, p)
        if realization is not None:
            return p, realization
    return None


@dataclass(frozen=True)
class ZeroOneStatus:
    by_expansion: Optional[bool]
    by_patterns: bool
    by_configurations: bool
    by_multiplicity_free: bool

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
    status = ZeroOneStatus(
        by_expansion=is_zero_one(schubert_classic(w)) if include_expansion else None,
        by_patterns=avoids_multiplicitous(w),
        by_configurations=find_configuration(w) is None,
        by_multiplicity_free=is_multiplicity_free(w),
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


def _sieve_avoids(entries: tuple[int, ...], below: set[tuple[int, ...]]) -> bool:
    """Pattern vote of the survey: does entries avoid the twelve patterns?

    below must be the set of avoiders in S_{n-1}.  Containment is transitive,
    so w avoids every pattern iff w is not itself one of them and each of its
    one-step patterns (delete one entry, flatten) avoids them all.
    """
    if entries in _PATTERNS_BY_LENGTH.get(len(entries), ()):
        return False
    return all(tuple(v - (v > x) for v in entries if v != x) in below for x in entries)


def _avoider_class(n: int) -> set[tuple[int, ...]]:
    """One-line entries of every permutation in S_n avoiding the twelve patterns.

    Built level by level from S_0 with `_sieve_avoids`.
    """
    level = {()}
    for m in range(1, n + 1):
        level = {e for e in it_perms(range(1, m + 1)) if _sieve_avoids(e, level)}
    return level


def _fast_triple(
    entries: tuple[int, ...], below: set[tuple[int, ...]]
) -> tuple[bool, bool, bool]:
    pat = _sieve_avoids(entries, below)
    conf = not has_configuration(entries)
    mult = _multfree_fast(entries)
    return pat, conf, mult


def _multfree_fast(entries: tuple[int, ...]) -> bool:
    n = len(entries)
    inv = [0] * (n + 1)
    for pos, v in enumerate(entries, start=1):
        inv[v] = pos
    masks = []
    for j in range(1, n + 1):
        mask = 0
        for i in range(1, inv[j]):
            if j < entries[i - 1]:
                mask |= 1 << (i - 1)
        masks.append(mask)
    work = [0 if m != 0 and m & (m + 1) == 0 else m for m in masks]
    seen: dict[int, tuple[int, ...]] = {}
    while True:
        first = next((m for m in work if m), None)
        if first is None:
            return True
        teeth = ~first & (first >> 1)
        tooth = (teeth & -teeth).bit_length()
        imp = tuple(j for j, m in enumerate(work) if m >> tooth & 1)
        prev = seen.get(tooth)
        if prev is None:
            seen[tooth] = imp
        elif len(prev) != 1 or prev != imp:
            return False
        flip = 0b11 << (tooth - 1)
        target = (1 << tooth) - 1
        for j, m in enumerate(work):
            lo = m >> (tooth - 1) & 1
            hi = m >> tooth & 1
            if lo != hi:
                m ^= flip
            work[j] = 0 if m == target else m


def _block_entries(n: int, first: Optional[int]):
    """S_n in lexicographic order; only the permutations starting with first if given."""
    if first is None:
        return it_perms(range(1, n + 1))
    rest = [v for v in range(1, n + 1) if v != first]
    return ((first,) + e for e in it_perms(rest))


def _pool_size(workers: int, blocks: int) -> int:
    """Worker processes for a survey: at most the requested, the cores and the blocks."""
    return max(1, min(workers, os.cpu_count() or 1, blocks))


def _survey_block(args) -> tuple[int, int, int]:
    n, first = args
    below = _avoider_class(n - 1)
    zero_one = 0
    disagreements = 0
    total = 0
    for e in _block_entries(n, first):
        pat, conf, mult = _fast_triple(e, below)
        total += 1
        if pat and conf and mult:
            zero_one += 1
        elif pat or conf or mult:
            disagreements += 1
    return zero_one, disagreements, total


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
    the vote stays independent of the other predicates.  With workers > 1,
    S_n is split into one block per first entry, on at most as many
    processes as there are cores and blocks.
    """
    if methods not in ("fast", "all"):
        raise ValueError(f"unknown methods {methods!r}")
    if n < 0:
        raise ValueError("survey size must be nonnegative")
    cap = limit if limit is not None else (
        SURVEY_LIMIT_FAST if methods == "fast" else SURVEY_LIMIT_ALL
    )
    if n > cap:
        raise ValueError(f"survey size {n} exceeds limit {cap}")
    if methods == "all":
        below = _avoider_class(n - 1)
        zero_one = 0
        disagreements = 0
        total = 0
        for w, f in schubert_all(n):
            expansion = is_zero_one(f)
            pat, conf, mult = _fast_triple(w.entries, below)
            total += 1
            votes = (expansion, pat, conf, mult)
            if all(votes):
                zero_one += 1
            elif any(votes):
                disagreements += 1
        return SurveySummary(n, total, zero_one, disagreements, methods)
    pool_size = _pool_size(workers, n)
    if pool_size == 1:
        zero_one, disagreements, total = _survey_block((n, None))
    else:
        blocks = [(n, first) for first in range(1, n + 1)]
        zero_one = disagreements = total = 0
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            for z, dis, t in pool.map(_survey_block, blocks):
                zero_one += z
                disagreements += dis
                total += t
    return SurveySummary(n, total, zero_one, disagreements, methods)
