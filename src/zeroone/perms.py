"""Permutations, their inversion diagrams, and pattern containment.

Everything is 1-based: a permutation of [n] is stored in one-line notation
as a tuple of the values (w_1, ..., w_n), and a diagram is a sequence of n
column subsets of [n].  Box (i, j) means row i, column j, read as in a
matrix (i grows downward, j rightward).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, permutations
from typing import Iterator, Optional

__all__ = [
    "Permutation",
    "Diagram",
    "rothe_diagram",
    "rothe_rows",
    "mask_rows",
    "first_pattern",
    "one_step_pattern",
    "pattern_at",
    "parse_permutation",
    "parse_diagram",
    "format_word",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] in one-line notation.

    >>> w = Permutation((3, 1, 5, 4, 2))
    >>> w.n, w.inverse().entries
    (5, (2, 5, 1, 4, 3))
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        n = len(self.entries)
        if sorted(self.entries) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {self.entries}")

    @classmethod
    def _adopt(cls, entries: tuple[int, ...]) -> "Permutation":
        """Wrap entries unvalidated: the caller guarantees a tuple permuting [n]."""
        w = object.__new__(cls)
        object.__setattr__(w, "entries", entries)
        return w

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        """Value w_i, 1-based."""
        return self.entries[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.entries, start=1):
            inv[v - 1] = i
        return Permutation._adopt(tuple(inv))

    def __str__(self) -> str:
        return format_word(self.entries)


def format_word(word: tuple[int, ...]) -> str:
    """One-line text: digits if every letter is at most 9 (for w in S_n, n <= 9), else commas."""
    sep = "" if all(letter <= 9 for letter in word) else ","
    return sep.join(map(str, word))


def _is_numeral(field: str) -> bool:
    """Nonempty ASCII digits: str.isdigit alone admits other scripts' digits."""
    return field.isascii() and field.isdigit()


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation: digits for n <= 9, comma-separated otherwise;
    every field, stripped of spaces, must be nonempty ASCII digits."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    fields = [f.strip() for f in text.split(",")] if "," in text else list(text)
    if not all(map(_is_numeral, fields)):
        raise ValueError(f"bad permutation text: {text!r}")
    return Permutation(tuple(map(int, fields)))


@dataclass(frozen=True)
class Diagram:
    """A sequence of n column subsets of [n], stored as sorted tuples."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cols = tuple(tuple(sorted(set(col))) for col in self.columns)
        for col in cols:
            if col and not (1 <= col[0] and col[-1] <= len(cols)):
                raise ValueError(f"row index out of [{len(cols)}] in column {col}")
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _adopt(cls, columns: tuple[tuple[int, ...], ...]) -> "Diagram":
        """Wrap columns unvalidated: the caller guarantees sorted tuples of distinct rows in [n]."""
        d = object.__new__(cls)
        object.__setattr__(d, "columns", columns)
        return d

    @property
    def n(self) -> int:
        return len(self.columns)

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All boxes (i, j), column by column."""
        for j, col in enumerate(self.columns, start=1):
            for i in col:
                yield (i, j)

    def __contains__(self, box: tuple[int, int]) -> bool:
        i, j = box
        return 1 <= j <= self.n and i in self.columns[j - 1]

    @staticmethod
    def from_boxes(n: int, boxes) -> "Diagram":
        cols: list[set[int]] = [set() for _ in range(n)]
        for i, j in boxes:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"box {(i, j)} outside [{n}]x[{n}]")
            cols[j - 1].add(i)
        return Diagram._adopt(tuple(tuple(sorted(c)) for c in cols))

    def __str__(self) -> str:
        cols = enumerate(self.columns, start=1)
        return "\n".join(f"{j}:" + "".join(f" {i}" for i in col) for j, col in cols)


def parse_diagram(text: str) -> Diagram:
    """Parse the one-line-per-column format emitted by Diagram.__str__."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty diagram text")
    cols = []
    for j, line in enumerate(lines, start=1):
        head, _, tail = line.partition(":")
        if head.strip() != str(j) and not (_is_numeral(head.strip()) and int(head) == j):
            raise ValueError(f"expected column label {j} in line {line!r}")
        rows = tail.split()
        # split() yields nonempty fields, so one test of their concatenation covers each
        if rows and not _is_numeral("".join(rows)):
            raise ValueError(f"bad row indices in line {line!r}")
        cols.append(map(int, rows))
    return Diagram(tuple(cols))  # rows are checked after every label


def rothe_rows(entries: tuple[int, ...]) -> list[int]:
    """Rows of the inversion diagram of w = entries, as bitmasks.

    Bit j-1 of mask i-1 is set iff box (i, j) is present: j < w_i and the
    value j comes after position i.
    """
    rows = []
    later = (1 << len(entries)) - 1  # bit j-1: value j not yet passed
    for v in entries:
        bit = 1 << (v - 1)
        later ^= bit
        rows.append(later & (bit - 1))
    return rows


def mask_rows(mask: int) -> tuple[int, ...]:
    """The rows of a column bitmask (bit i-1 = row i), ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def rothe_diagram(w: Permutation) -> Diagram:
    """Inversion diagram of w: box (i, j) present iff i < (w^-1)_j and j < w_i.
    D(w) is the transpose of D(w^-1), so its columns are the inverse's rows."""
    return Diagram._adopt(tuple(map(mask_rows, rothe_rows(w.inverse().entries))))


@lru_cache(maxsize=64)
def _depth_plan(s: tuple[int, ...]) -> tuple[tuple, ...]:
    """Per depth k of s (m = len(s)): the depths of the nearest earlier entries
    below and above s_k (m and m + 1 for none); whether s_k bounds no later
    entry from above, and from below; and (below, above, offset) for every
    later depth whose bounds are placed by depth k."""
    m = len(s)
    lo_of = [max((d for d in range(k) if s[d] < v), key=s.__getitem__, default=m)
             for k, v in enumerate(s)]
    hi_of = [min((d for d in range(k) if s[d] > v), key=s.__getitem__, default=m + 1)
             for k, v in enumerate(s)]
    return (lo_of, hi_of,
            tuple(k not in hi_of[k + 1:] for k in range(m)),
            tuple(k not in lo_of[k + 1:] for k in range(m)),
            tuple(tuple((lo_of[t], hi_of[t], t - k - 1) for t in range(k + 1, m)
                        if {lo_of[t], hi_of[t]} <= {*range(k + 1), m, m + 1})
                  for k in range(m)))


def first_pattern(w: Permutation, patterns) -> Optional[tuple[Permutation, tuple[int, ...]]]:
    """The first of patterns (Permutations) in w, with its least realization, or
    None.  A realization of sigma is indices j_1 < ... < j_m whose values are
    ordered like sigma, of its exact length.

    Indices grow left to right in lexicographic order, keeping a prefix only
    while depth k's value lies between those placed at sigma's nearest
    earlier entries below and above sigma_k.  A candidate is skipped when a
    later depth whose bounds are placed has no value of w in its interval far
    enough right (one suffix table serves every pattern), or when an earlier
    candidate at the same depth and prefix failed with a value that serves
    every later depth at least as well (if sigma_k bounds no later entry from
    above, a failure at v rules out all later values above v; symmetrically
    from below).  Only prefixes that cannot be completed are dropped, so the
    first full match is the least.
    """
    e, n = w.entries, w.n
    # bit v of later[j]: v is among e[j + 1:]
    later = [*accumulate(reversed(e[1:]), lambda bits, v: bits | 1 << v, initial=0)][::-1]
    for sigma in patterns:
        m = sigma.n
        lo_of, hi_of, cut_hi, cut_lo, ahead = _depth_plan(sigma.entries)
        vals = [0] * m + [0, n + 1]  # vals[d]: the value placed at depth d
        pos = [0] * m
        lo_at, hi_at = [0] * m, [0] * m  # the interval left at a depth that is resumed
        k = j = 0
        failed = -1  # a position whose candidate is known to fail
        while 0 <= k < m:  # k = -1: no realization
            far = ahead[k]
            lo, hi = (lo_at[k], hi_at[k]) if j == failed else (vals[lo_of[k]], vals[hi_of[k]])
            for j in range(j, n - m + k + 1):
                v = e[j]
                if lo < v < hi:
                    vals[k] = v
                    if j != failed:
                        for a, b, t in far:  # a later depth finds no value of w to fill it
                            if not later[j + t] & (1 << vals[b]) - (2 << vals[a]):
                                break
                        else:
                            break
                    if cut_hi[k]:
                        hi = v
                    if cut_lo[k]:
                        lo = v
            else:  # depth k is exhausted, so the candidate at depth k - 1 failed
                k -= 1
                j = failed = pos[k]
                continue
            lo_at[k], hi_at[k], pos[k] = lo, hi, j
            k, j = k + 1, j + 1
        if k == m:
            return sigma, tuple(p + 1 for p in pos)
    return None


def pattern_at(w: Permutation, positions: tuple[int, ...]) -> Permutation:
    """The pattern of w at increasing 1-based positions: their values, flattened."""
    if not all(a < b for a, b in zip((0, *positions), (*positions, w.n + 1))):
        raise ValueError(f"positions {positions} are not increasing inside [1, {w.n}]")
    values = [w[p] for p in positions]
    rank = {v: r for r, v in enumerate(sorted(values), 1)}
    return Permutation._adopt(tuple(map(rank.__getitem__, values)))


def one_step_pattern(w: Permutation, k: int) -> Permutation:
    """The pattern in S_{n-1} obtained by deleting entry w_k and flattening."""
    if not 1 <= k <= w.n:
        raise ValueError(f"position {k} out of range for n={w.n}")
    return pattern_at(w, tuple(p for p in range(1, w.n + 1) if p != k))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order."""
    return map(Permutation._adopt, permutations(range(1, n + 1)))
