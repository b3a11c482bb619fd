"""Root operators on reading words and the tableau expansion.

Words are plain tuples of integers in [n] (bytes inside the engine, so
n <= 255, which `orthodontic_sequence` demands).  The set T_w is built
from one orthodontic trace by alternately prepending minimal column words
(1, 2, ..., j) and closing under a root operator f_i, which changes the
leftmost unmatched i to i+1 after the usual parenthesis matching of
(i, i+1) pairs.  Stage r is reached by one walk down from the innermost
stage l that keeps only the stage at hand.  A function that reads the
stages takes that trace and nothing else, D(w) being its stage 0; one that
starts from w straightens it itself, through `orthodontic_sequence`.
"""

from __future__ import annotations

from collections import Counter
from operator import gt
from typing import Iterable, Optional

from .perms import Permutation
from .poly import Polynomial, _omega, _x
from .orthodontia import OrthodonticTrace, build_D_im, orthodontic_sequence

__all__ = [
    "root_operator",
    "tableaux_set",
    "tableaux_stage",
    "schubert_from_tableaux",
    "tau_reindexing",
    "read_words_into_diagram",
    "FillingError",
]

Word = tuple[int, ...]


def _unmatched(i: int, word: Word | bytes) -> list[int]:
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


def _orbits(i: int, stage: dict[bytes, int]) -> dict[bytes, int]:
    """Union of the full f_i orbits {T, f_i(T), ...} of words mapped to packed weights.

    One bracket scan gives a word's whole orbit: no open i precedes its
    leftmost unmatched i, so the i+1 that f_i writes there closes nothing,
    and the other unmatched i's stay unmatched.  f_i^k(T) is therefore T with
    its first k unmatched i's raised, each raise moving one unit of weight
    from field i-1 to field i.  The union starts as a copy of the stage, and
    a walk from each word with an unmatched i stops at the first member
    already in the union, the rest of whose orbit some walk covers.

    The unmatched positions depend only on where the i's and (i+1)'s sit,
    so words with the same shape (every other letter read as 0) share one
    bracket scan.
    """
    out = dict(stage)
    up = _x(i + 1) - _x(i)
    shape_of = bytearray(256)  # a translate table keeping i and i+1, mapping the rest to 0
    shape_of[i : i + 2] = bytes((i, i + 1))
    scans: dict[bytes, list[int]] = {}
    for word, wt in stage.items():
        shape = word.translate(shape_of)
        unmatched = scans.get(shape)
        if unmatched is None:
            unmatched = scans[shape] = _unmatched(i, shape)
        if not unmatched:
            continue
        buf = bytearray(word)
        for pos in unmatched:
            buf[pos] = i + 1
            wt += up
            cur = bytes(buf)
            if cur in out:
                break
            out[cur] = wt
    return out


def _block(trace: OrthodonticTrace, q: int) -> tuple[bytes, int]:
    """The block stage q prepends, with its packed weight: (1, ..., i_q)^{m_q},
    or at q = 0 the interval-column prefix recorded by the k's."""
    blocks = [(trace.i[q - 1], trace.m[q - 1])] if q else list(enumerate(trace.k, start=1))
    return (b"".join(bytes(range(1, j + 1)) * c for j, c in blocks),
            sum(c * _omega(j) for j, c in blocks))


def _prepend(stage: dict[bytes, int], block: tuple[bytes, int]) -> dict[bytes, int]:
    """block + T for each word T of stage; an empty block passes the stage on as it is."""
    prefix, pw = block
    return {prefix + word: pw + wt for word, wt in stage.items()} if prefix else stage


def _unblocked(trace: OrthodonticTrace, r: int, wt: int = 0) -> dict[bytes, int]:
    """Stage r without its own block: the f_{i_{r+1}} closure of stage r+1,
    or the empty word at r = l; every weight carries wt on top."""
    trace._check_stage(r)
    stage = {b"": wt}
    for q in range(trace.length, r, -1):
        stage = _orbits(trace.i[q - 1], _prepend(stage, _block(trace, q)))
    return stage


def _stage(trace: OrthodonticTrace, r: int) -> dict[bytes, int]:
    """Stage T_w(r), as bytes words mapped to packed weights.

    The walk starts from the empty word at stage l.  Stage q closes stage
    q+1 under f_{i_{q+1}} (stage l has nothing to close) and prepends its
    block (1, ..., i_q)^{m_q}; stage 0 prepends instead the interval-column
    prefix recorded by the k's.  Only the stage at hand is kept; an empty
    block copies no word.  A packed weight holds the count of letter t in
    bits 8(t-1)..8t-1.  The fields never carry: every stage word is a
    column-strict filling of a diagram with n columns, so a letter occurs at
    most n times, and n <= 255 (for larger n the word of column [256] does
    not fit in bytes and raises).
    """
    return _prepend(_unblocked(trace, r), _block(trace, r))  # r is checked before _block reads it


def tableaux_stage(trace: OrthodonticTrace, r: int) -> set[Word]:
    """The partial stage T_w(r), for 0 <= r <= l."""
    return set(map(tuple, _stage(trace, r)))


def tableaux_set(w: Permutation) -> set[Word]:
    return tableaux_stage(orthodontic_sequence(w), 0)


def schubert_from_tableaux(w: Permutation) -> Polynomial:
    """Sum of x^{wt(T)} over T_w, counted with the words of stage 0 left unbuilt:
    the walk below them starts from their prefix's weight."""
    trace = orthodontic_sequence(w)
    return Polynomial._from_packed(w.n, Counter(_unblocked(trace, 0, _block(trace, 0)[1]).values()))


def tau_reindexing(trace: OrthodonticTrace) -> Permutation:
    """The unique stable matching of columns of D(w) onto the rebuilt diagram.

    tau(c) = p means column c of D(w) (stage 0 of the trace) equals column p
    of the rebuilt diagram (padded with empty columns); equal columns keep
    their relative order.
    """
    slots: dict[tuple[int, ...], list[int]] = {}
    for p, col in enumerate(build_D_im(trace).columns, start=1):
        slots.setdefault(col, []).append(p)
    try:  # each column of D(w) takes the leftmost free position of its equals
        tau = [slots[col].pop(0) for col in trace.stage(0).columns]
    except (KeyError, IndexError):
        raise AssertionError("rebuilt diagram is not column-equivalent to the original") from None
    return Permutation(tuple(tau))


class FillingError(ValueError):
    """A word does not read into its target diagram as a valid filling."""


def read_words_into_diagram(
    words: Iterable[Word], trace: OrthodonticTrace, r: int
) -> list[tuple[int, int]]:
    """Check that each stage-r word fills the stage-r diagram of the trace,
    and return the reading cells: position p of a word fills cell p (row, column).

    Columns are filled top to bottom, taken in the order their rebuilt
    counterparts were laid down (increasing tau position); a word is
    consumed left to right.  The cells are built once for all the words.  A
    word of the wrong length, or one that violates column-strictness (a
    letter not above the next one down its column) or row-flagging (a letter
    above its row), raises FillingError.
    """
    columns, tau = trace.stage(r).columns, tau_reindexing(trace)
    order = sorted((c for c, col in enumerate(columns, start=1) if col), key=tau.__getitem__)
    cells = [(row, c) for c in order for row in columns[c - 1]]
    below = [p for p in range(1, len(cells)) if cells[p][1] == cells[p - 1][1]]
    rows = [row for row, _ in cells]
    for word in words:
        if len(word) != len(cells):
            raise FillingError(f"word length {len(word)} != box count {len(cells)} at stage {r}")
        if any(word[p - 1] >= word[p] for p in below):
            raise FillingError(f"word {word} is not column-strict in stage {r}")
        if any(map(gt, word, rows)):
            raise FillingError(f"word {word} is not row-flagged in stage {r}")
    return cells
