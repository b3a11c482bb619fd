"""The tableaux walk that builds every word, the reference for `zeroone.tableaux`.

This walk prepends every block, the empty ones too, and builds all the words
of stage 0.  Its orbit union walks every word that is not in the union yet,
starting from an empty union.  The tests check `_stage` and
`schubert_from_tableaux` against it.
"""

from collections import Counter

from zeroone.poly import _omega, _x
from zeroone.tableaux import _unmatched


def orbits(i, stage):
    """Union of the full f_i orbits of the words of stage, mapped to packed weights."""
    out = {}
    up = _x(i + 1) - _x(i)
    for word, wt in stage.items():
        if word in out:
            continue
        out[word] = wt
        buf = bytearray(word)
        for pos in _unmatched(i, word):
            buf[pos] = i + 1
            wt += up
            cur = bytes(buf)
            if cur in out:
                break
            out[cur] = wt
    return out


def column_word(j, copies):
    """The word (1, ..., j)^copies and its packed weight."""
    return bytes(range(1, j + 1)) * copies, copies * _omega(j)


def stage(trace, r):
    """Stage T_w(r), as bytes words mapped to packed weights, every block prepended."""
    trace._check_stage(r)
    words = {b"": 0}
    for q in range(trace.length, r - 1, -1):
        if q < trace.length:
            words = orbits(trace.i[q], words)
        if q:
            prefix, pw = column_word(trace.i[q - 1], trace.m[q - 1])
        else:
            blocks = [column_word(j, kj) for j, kj in enumerate(trace.k, start=1)]
            prefix, pw = b"".join(b for b, _ in blocks), sum(wt for _, wt in blocks)
        words = {prefix + word: pw + wt for word, wt in words.items()}
    return words


def weight_counts(trace):
    """Packed weight -> number of words of stage 0, the terms of the Schubert polynomial."""
    return Counter(stage(trace, 0).values())
