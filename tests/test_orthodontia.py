"""Orthodontic sequences, reconstruction, impacts, multiplicity-freeness."""

import random
import tracemalloc

import pytest

from zeroone.orthodontia import (
    _engine,
    _layout,
    _rest,
    _rothe_key,
    _unpack,
    build_D_im,
    is_multiplicity_free,
    orthodontic_sequence,
    schubert_orthodontic,
)
from zeroone.perms import (
    Diagram,
    Permutation,
    all_permutations,
    mask_rows,
    parse_permutation,
    rothe_diagram,
    rothe_rows,
)
from zeroone.poly import Polynomial, is_zero_one, schubert_classic

from diagram_lemma import has_northwest_property
from straightening import emptied, straighten


def test_sequence_paper_example():
    tr = orthodontic_sequence(parse_permutation("31542"))
    assert tr.i == (2, 3, 1)
    assert tr.k == (1, 0, 0, 0, 0)
    assert tr.m == (0, 1, 1)
    assert tr.length == 3


def test_sequence_identity():
    tr = orthodontic_sequence(Permutation((1, 2, 3, 4)))
    assert tr.i == ()
    assert tr.k == (0, 0, 0, 0)
    assert tr.m == ()


def test_sequence_big_paper_example():
    tr = orthodontic_sequence(parse_permutation("457812693"))
    assert tr.i == (6, 5, 7, 6, 2, 1, 3, 2)


def test_stages_keep_original_indexing():
    w = parse_permutation("31542")
    tr = orthodontic_sequence(w)
    assert tr.stage(0) == rothe_diagram(w)
    assert tr.stage(1).columns == ((), (1, 2, 4), (), (2,), ())
    assert tr.stage(2).columns == ((), (1, 2, 3), (), (2,), ())
    assert tr.stage(3).columns == ((), (), (), (1,), ())
    # the k-step empties column 1, stage 0's one interval column: [1]
    assert tr.stage(0).columns[0] == (1,) and tr.k == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        tr.stage(4)


def test_trace_holds_no_stage_until_one_is_read():
    # the trace keeps i, k, m and D(w) packed; the first stage call replays the engine
    w = Permutation(tuple(random.Random(60).sample(range(1, 61), 60)))
    tracemalloc.start()
    try:
        tr = orthodontic_sequence(w)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100_000, held
    assert tr.stage(0) == rothe_diagram(w)


def test_stage_northwest_property():
    for w in all_permutations(6):
        tr = orthodontic_sequence(w)
        for r in range(tr.length + 1):
            assert has_northwest_property(tr.stage(r))


def pack(masks):
    """Column masks packed n + 1 bits a column, n = len(masks)."""
    return sum(mask << j * (len(masks) + 1) for j, mask in enumerate(masks))


def engine_steps(w):
    """The engine's steps on w, with impacts and stages as sets of indices.

    Every packed stage keeps its guard bits 0, and every rest is its stage
    with the interval columns emptied.
    """
    n, steps = w.n, []
    guards = _layout(n)[0] << n
    key = _rothe_key(w)
    assert key == pack(rothe_rows(w.inverse().entries)), w
    for letter, imp, stage, rest in _engine(key, n):
        assert not (stage | rest) & guards, (w, letter)
        cols = tuple(frozenset(mask_rows(mask)) for mask in _unpack(stage, n))
        assert [set(mask_rows(mask)) for mask in _unpack(rest, n)] == emptied(cols), (w, letter)
        steps.append((letter, frozenset(mask_rows(imp)), cols))
    return steps


def is_interval(mask):
    """Is the column mask a nonempty interval [j], rows 1..j?"""
    return bool(mask) and mask_rows(mask) == tuple(range(1, len(mask_rows(mask)) + 1))


def check_field_helpers(masks):
    """The field helpers on the packed masks against their per-column definitions."""
    n = len(masks)
    ones, rows, _ = _layout(n)
    key = pack(masks)
    assert _unpack(key, n) == tuple(masks)
    intervals = [m for m in masks if is_interval(m)]
    cleared = tuple(0 if m in intervals else m for m in masks)
    assert _unpack(_rest(key, 0, ones, rows, n), n) == cleared, masks
    for i in range(1, n + 1):
        if all(m == (1 << i) - 1 for m in intervals):
            assert _unpack(_rest(key, i, ones, rows, n), n) == cleared, (masks, i)
        else:
            with pytest.raises(AssertionError, match="unexpected interval column"):
                _rest(key, i, ones, rows, n)


def test_field_helpers_match_per_column_definitions():
    rng = random.Random(34)
    # every column mask in every column position, beside empty and seeded columns
    for n in range(1, 7):
        for j in range(n):
            for mask in range(1 << n):
                for others in ([0] * n, [rng.randrange(1 << n) for _ in range(n)]):
                    check_field_helpers(others[:j] + [mask] + others[j + 1:])
    # seeded keys: each column empty, an interval, one interval from size i, or any mask
    for n in range(7, 41):
        for _ in range(20):
            i = rng.randrange(1, n + 1)
            masks = [rng.choice((0, (1 << i) - 1, (1 << rng.randrange(1, n + 1)) - 1,
                                 rng.randrange(1 << n))) for _ in range(n)]
            check_field_helpers(masks)


def reference_k_m(steps, n):
    """k and m counted off the reference straightening's steps: k_j is the
    number of columns [j] in stage 0, m_r the number of columns [i_r] in stage r."""
    interval = [frozenset(range(1, j + 1)) for j in range(n + 1)]
    k = tuple(steps[0][2].count(interval[j]) for j in range(1, n + 1))
    m = tuple(stage.count(interval[i]) for i, _, stage in steps[1:])
    return k, m


def test_engine_matches_reference_straightening():
    def check(w):
        steps = straighten(w)
        assert engine_steps(w) == steps, w
        tr = orthodontic_sequence(w)
        assert (tr.k, tr.m) == reference_k_m(steps, w.n), w

    for n in range(1, 7):
        for w in all_permutations(n):
            check(w)
    # one seeded permutation of each size 10, 13, ..., 40 (lengths up to about 400)
    rng = random.Random(13)
    for n in range(10, 41, 3):
        check(Permutation(tuple(rng.sample(range(1, n + 1), n))))


def test_orthodontic_trace_refuses_sizes_beyond_a_byte():
    # the routes that read the trace pack rows into bytes, and its walk takes
    # up to n(n-1)/2 steps on n^2-bit keys
    with pytest.raises(ValueError, match="255"):
        orthodontic_sequence(Permutation(tuple(range(1, 257))))
    # the multiplicity-free test keeps no stages, but its walk is as long as the trace
    with pytest.raises(ValueError, match="255"):
        is_multiplicity_free(Permutation(tuple(range(1, 257))))
    assert is_multiplicity_free(Permutation(tuple(range(1, 256))))


def test_build_D_im_paper_example():
    w = parse_permutation("31542")
    rebuilt = build_D_im(orthodontic_sequence(w))
    # the paper's figure: columns {1}, {1,3,4}, {3}, padded with empties
    assert rebuilt.columns == ((1,), (1, 3, 4), (3,), (), ())
    assert sorted(filter(None, rebuilt.columns)) == sorted(filter(None, rothe_diagram(w).columns))


def test_build_D_im_empty():
    tr = orthodontic_sequence(Permutation((1, 2, 3)))
    assert build_D_im(tr) == Diagram(((), (), ()))


def test_build_D_im_column_equivalent_exhaustive():
    for n in range(1, 8):
        for w in all_permutations(n):
            tr = orthodontic_sequence(w)
            rebuilt, d = build_D_im(tr).columns, rothe_diagram(w).columns
            assert sorted(filter(None, rebuilt)) == sorted(filter(None, d)), w


def test_impact_paper_examples():
    impacts = [imp for _, imp, _ in engine_steps(parse_permutation("457812693"))[1:]]
    assert len(impacts) == 8
    assert impacts[0] == frozenset({3})
    assert impacts[3] == frozenset({3})
    assert impacts[4] == frozenset({6})
    assert impacts[7] == frozenset({6})


def test_impacts_nonempty():
    for w in all_permutations(5):
        assert all(imp for _, imp, _ in engine_steps(w)[1:])


def test_multiplicity_free_examples():
    assert is_multiplicity_free(parse_permutation("457812693"))
    assert is_multiplicity_free(Permutation((1, 2, 3, 4, 5)))
    assert not is_multiplicity_free(parse_permutation("12543"))


def test_schubert_orthodontic_examples():
    w = parse_permutation("31542")
    assert schubert_orthodontic(w) == schubert_classic(w)
    assert schubert_orthodontic(Permutation((1, 2, 3))) == Polynomial(3, {(0, 0, 0): 1})


def test_schubert_orthodontic_exhaustive_S5():
    for w in all_permutations(5):
        assert schubert_orthodontic(w) == schubert_classic(w)


def test_distinct_letters_imply_zero_one(schubert_table_6):
    # letters of i all distinct forces a zero-one polynomial
    for w in all_permutations(6):
        tr = orthodontic_sequence(w)
        if len(set(tr.i)) == len(tr.i):
            assert is_zero_one(schubert_table_6[w.entries])


def test_multiplicity_free_implies_zero_one_S6(schubert_table_6):
    for w in all_permutations(6):
        if is_multiplicity_free(w):
            assert is_zero_one(schubert_table_6[w.entries])
