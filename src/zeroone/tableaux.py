"""Root operators on reading words and the tableau expansion.

Words are plain tuples of integers in [n].  The set T_w is built from the
orthodontic sequence by alternately prepending minimal column words
(1, 2, ..., j) and closing under a root operator f_i, which changes the
leftmost unmatched i to i+1 after the usual parenthesis matching of
(i, i+1) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .perms import Diagram, Permutation, rothe_diagram
from .poly import Polynomial
from .orthodontia import OrthodonticTrace, build_D_im, orthodontic_sequence

__all__ = [
    "root_operator",
    "quantized_demazure",
    "tableaux_set",
    "tableaux_stage",
    "tableaux_stages",
    "schubert_from_tableaux",
    "tau_reindexing",
    "read_into_diagram",
    "FillingView",
    "FillingError",
    "word_weight",
    "parse_word",
    "format_word",
]

Word = tuple[int, ...]


def _unmatched(i: int, word: Word) -> list[int]:
    """Positions of the unmatched i's of word, left to right.

    Scanning left to right, an i opens a bracket and an i+1 closes the most
    recent open one; the surviving letters form i+1, ..., i+1, i, ..., i.
    """
    if i < 1:
        raise ValueError("root operator index must be >= 1")
    stack: list[int] = []
    closer = i + 1
    for pos, letter in enumerate(word):
        if letter == i:
            stack.append(pos)
        elif letter == closer and stack:
            stack.pop()
    return stack


def root_operator(i: int, word: Word) -> Optional[Word]:
    """Apply f_i, or return None when no unmatched i remains.

    f_i raises the leftmost unmatched i (see `_unmatched`) to i+1.
    """
    stack = _unmatched(i, word)
    if not stack:
        return None
    pos = stack[0]
    return word[:pos] + (i + 1,) + word[pos + 1 :]


def quantized_demazure(i: int, words: Iterable[Word]) -> set[Word]:
    """Union of the full f_i orbits {T, f_i(T), f_i^2(T), ...}.

    One bracket scan gives a word's whole orbit: no open i precedes its
    leftmost unmatched i, so the i+1 that f_i writes there closes nothing,
    and the other unmatched i's stay unmatched.  f_i^k(T) is therefore T with
    its first k unmatched i's raised.  A walk stops at the first member
    already in the set, whose orbit is in the set too.
    """
    out: set[Word] = set()
    for word in words:
        cur = tuple(word)
        if cur in out:
            continue
        out.add(cur)
        letters = list(cur)
        for pos in _unmatched(i, cur):
            letters[pos] = i + 1
            cur = tuple(letters)
            if cur in out:
                break
            out.add(cur)
    return out


def word_weight(word: Word, n: int) -> tuple[int, ...]:
    wt = [0] * n
    for letter in word:
        wt[letter - 1] += 1
    return tuple(wt)


def _omega_word(j: int, copies: int = 1) -> Word:
    return tuple(range(1, j + 1)) * copies


def tableaux_stages(w: Permutation, trace: OrthodonticTrace | None = None) -> list[set[Word]]:
    """All partial stages [T_w(0), ..., T_w(l)], index r = stage r.

    Stage l is the single minimal word for the innermost column block;
    stage r-1 prepends the m_{r-1} block and closes under f_{i_r}; stage 0
    additionally carries the interval-column prefix recorded by the k's.
    """
    if trace is None:
        trace = orthodontic_sequence(w)
    l = trace.length
    stages: list[set[Word]] = [set() for _ in range(l + 1)]
    k_prefix: Word = ()
    for j, kj in enumerate(trace.k, start=1):
        k_prefix += _omega_word(j, kj)
    if l == 0:
        stages[0] = {k_prefix}
        return stages
    stages[l] = {_omega_word(trace.i[l - 1], trace.m[l - 1])}
    for r in range(l - 1, 0, -1):
        prefix = _omega_word(trace.i[r - 1], trace.m[r - 1])
        closed = quantized_demazure(trace.i[r], stages[r + 1])
        stages[r] = {prefix + word for word in closed}
    closed = quantized_demazure(trace.i[0], stages[1])
    stages[0] = {k_prefix + word for word in closed}
    return stages


def tableaux_set(w: Permutation) -> set[Word]:
    return tableaux_stages(w)[0]


def tableaux_stage(w: Permutation, r: int) -> set[Word]:
    stages = tableaux_stages(w)
    if not 0 <= r < len(stages):
        raise ValueError(f"stage {r} out of range 0..{len(stages) - 1}")
    return stages[r]


def schubert_from_tableaux(w: Permutation) -> Polynomial:
    """Sum of x^{wt(T)} over T_w."""
    n = w.n
    terms: dict[tuple[int, ...], int] = {}
    get = terms.get
    for word in tableaux_set(w):
        e = word_weight(word, n)
        terms[e] = get(e, 0) + 1
    return Polynomial._adopt(n, terms)


def tau_reindexing(w: Permutation, trace: OrthodonticTrace | None = None) -> Permutation:
    """The unique stable matching of columns of D(w) onto the rebuilt diagram.

    tau(c) = p means column c of D(w) equals column p of the rebuilt diagram
    (padded with empty columns); equal columns keep their relative order.
    """
    if trace is None:
        trace = orthodontic_sequence(w)
    d = rothe_diagram(w)
    rebuilt = build_D_im(trace, w.n)
    slots: dict[tuple[int, ...], list[int]] = {}
    for p, col in enumerate(rebuilt.columns, start=1):
        slots.setdefault(col, []).append(p)
    used: dict[tuple[int, ...], int] = {}
    tau = []
    for col in d.columns:
        idx = used.get(col, 0)
        positions = slots.get(col)
        if positions is None or idx >= len(positions):
            raise AssertionError("rebuilt diagram is not column-equivalent to the original")
        tau.append(positions[idx])
        used[col] = idx + 1
    return Permutation(tuple(tau))


class FillingError(ValueError):
    """A word does not read into its target diagram as a valid filling."""


@dataclass(frozen=True)
class FillingView:
    """A word placed into an intermediate diagram under the tau fill order."""

    word: Word
    diagram: Diagram
    column_order: tuple[int, ...]
    entries: tuple[tuple[tuple[int, int], int], ...]

    def entry(self, i: int, j: int) -> int:
        for (r, c), v in self.entries:
            if (r, c) == (i, j):
                return v
        raise KeyError((i, j))

    def is_column_strict(self) -> bool:
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in self.entries:
            by_col.setdefault(c, []).append((r, v))
        for col in by_col.values():
            col.sort()
            for (_, a), (_, b) in zip(col, col[1:]):
                if a >= b:
                    return False
        return True

    def is_row_flagged(self) -> bool:
        return all(v <= r for (r, _), v in self.entries)

    def weight(self, n: int) -> tuple[int, ...]:
        return word_weight(self.word, n)


def read_into_diagram(
    word: Word,
    w: Permutation,
    r: int,
    trace: OrthodonticTrace | None = None,
    validate: bool = True,
) -> FillingView:
    """Place a stage-r word into the stage-r diagram.

    Columns are filled top to bottom, taken in the order their rebuilt
    counterparts were laid down (increasing tau position); the word is
    consumed left to right.  With validate=True a violation of
    column-strictness or row-flagging raises FillingError.
    """
    if trace is None:
        trace = orthodontic_sequence(w)
    stage = trace.stage(r)
    tau = tau_reindexing(w, trace)
    order = sorted(stage.nonempty_columns(), key=lambda c: tau[c])
    if len(word) != stage.box_count():
        raise FillingError(
            f"word length {len(word)} != box count {stage.box_count()} at stage {r}"
        )
    entries = []
    pos = 0
    for c in order:
        for row in stage.column(c):
            entries.append(((row, c), word[pos]))
            pos += 1
    view = FillingView(
        word=tuple(word),
        diagram=stage,
        column_order=tuple(order),
        entries=tuple(entries),
    )
    if validate:
        if not view.is_column_strict():
            raise FillingError(f"word {word} is not column-strict in stage {r}")
        if not view.is_row_flagged():
            raise FillingError(f"word {word} is not row-flagged in stage {r}")
    return view


def format_word(word: Word) -> str:
    if all(letter <= 9 for letter in word):
        return "".join(str(letter) for letter in word)
    return ",".join(str(letter) for letter in word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    if not text.isdigit():
        raise ValueError(f"bad word text: {text!r}")
    return tuple(int(ch) for ch in text)
