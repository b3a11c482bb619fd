"""Root operators, word sets, and readings into intermediate diagrams."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from zeroone.orthodontia import _engine, _rothe_key, is_multiplicity_free, orthodontic_sequence
from zeroone.perms import (
    Permutation,
    all_permutations,
    format_word,
    mask_rows,
    parse_permutation,
)
from zeroone.poly import Polynomial, schubert_classic
from zeroone.tableaux import (
    FillingError,
    _orbits,
    _stage,
    read_words_into_diagram,
    root_operator,
    schubert_from_tableaux,
    tableaux_set,
    tableaux_stage,
    tau_reindexing,
)

import tableaux_reference

words_strategy = st.lists(st.integers(1, 5), min_size=0, max_size=12).map(tuple)

PAPER_WORD = (3, 1, 2, 2, 2, 1, 3, 1, 2, 4, 3, 2, 4, 1, 3, 1)


def test_root_operator_paper_chain():
    once = root_operator(1, PAPER_WORD)
    assert once == (3, 1, 2, 2, 2, 1, 3, 1, 2, 4, 3, 2, 4, 2, 3, 1)
    twice = root_operator(1, once)
    assert twice == (3, 1, 2, 2, 2, 1, 3, 1, 2, 4, 3, 2, 4, 2, 3, 2)
    assert root_operator(1, twice) is None


def test_root_operator_single_letters():
    assert root_operator(1, (2,)) is None
    assert root_operator(1, (1,)) == (2,)
    assert root_operator(2, ()) is None


@given(words_strategy, st.integers(1, 4))
def test_root_operator_weight_exchange(word, i):
    image = root_operator(i, word)
    if image is None:
        return
    # one i becomes an i+1, every other letter stays
    assert Counter(image) - Counter(word) == Counter([i + 1])
    assert Counter(word) - Counter(image) == Counter([i])


def quantized_demazure(i, words):
    """The union of the full f_i orbits of words, through the engine's `_orbits`."""
    return set(map(tuple, _orbits(i, dict.fromkeys(map(bytes, words), 0))))


@given(words_strategy, st.integers(1, 4))
def test_quantized_demazure_contains_orbit(word, i):
    orbit = quantized_demazure(i, [word])
    assert word in orbit
    for member in orbit:
        image = root_operator(i, member)
        assert image is None or image in orbit


def _orbit_closure(i, words):
    """The definition: apply root_operator to each word until it gives None."""
    out = set()
    for word in words:
        cur = tuple(word)
        while cur is not None:
            out.add(cur)
            cur = root_operator(i, cur)
    return out


@given(st.lists(words_strategy, max_size=5), st.integers(1, 4), st.data())
def test_quantized_demazure_matches_root_operator_closure(words, i, data):
    assert quantized_demazure(i, words) == _orbit_closure(i, words)
    # inputs that already share orbits, in any order
    pool = sorted(_orbit_closure(i, words))
    if pool:
        mixed = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        assert quantized_demazure(i, mixed) == _orbit_closure(i, mixed)


def test_quantized_demazure_matches_closure_on_every_stage():
    for n in range(1, 7):
        for w in all_permutations(n):
            trace = orthodontic_sequence(w)
            for r in range(1, trace.length + 1):
                i, stage = trace.i[r - 1], tableaux_stage(trace, r)
                assert quantized_demazure(i, stage) == _orbit_closure(i, stage)


def block(j, copies):
    """The column word (1, ..., j), copies times over."""
    return tuple(range(1, j + 1)) * copies


def test_every_stage_follows_the_recursion():
    # stage l is the block (1..i_l)^{m_l}; stage r-1 is the block
    # (1..i_{r-1})^{m_{r-1}}, or the k prefix when r = 1, prepended to each
    # word of the f_{i_r} closure of stage r
    for n in range(1, 7):
        for w in all_permutations(n):
            trace = orthodontic_sequence(w)
            l = trace.length
            prefixes = [sum((block(j, kj) for j, kj in enumerate(trace.k, 1)), ())]
            prefixes += [block(i, m) for i, m in zip(trace.i, trace.m)]
            stage = tableaux_stage(trace, l)
            assert stage == {prefixes[l]}, w
            for r in range(l, 0, -1):
                below = tableaux_stage(trace, r - 1)
                closed = _orbit_closure(trace.i[r - 1], stage)
                assert below == {prefixes[r - 1] + t for t in closed}, (w, r)
                stage = below


def test_quantized_demazure_examples():
    assert quantized_demazure(1, [(1,)]) == {(1,), (2,)}
    assert quantized_demazure(3, set()) == set()
    assert quantized_demazure(3, [(1, 2, 3, 1), (1, 2, 3, 2)]) == {
        (1, 2, 3, 1),
        (1, 2, 4, 1),
        (1, 2, 3, 2),
        (1, 2, 4, 2),
    }


PAPER_TABLEAUX = {
    "11231", "11241", "11341", "11232", "11233", "11242", "11342", "11343",
}


def test_tableaux_paper_example():
    words = tableaux_set(parse_permutation("31542"))
    assert {format_word(t) for t in words} == PAPER_TABLEAUX


def test_tableaux_identity():
    assert tableaux_set(Permutation((1, 2, 3, 4))) == {()}


def test_tableaux_stages_match_paper_chain():
    trace = orthodontic_sequence(parse_permutation("31542"))
    stages = [tableaux_stage(trace, r) for r in range(trace.length + 1)]
    as_str = [sorted(format_word(t) for t in s) for s in stages]
    assert len(as_str) == 4
    assert as_str[3] == ["1"]
    assert as_str[2] == ["1231", "1232"]
    assert as_str[1] == ["1231", "1232", "1241", "1242"]
    assert len(as_str[0]) == 8


def test_carried_weights_decode_to_word_weights():
    for n in range(1, 7):
        for w in all_permutations(n):
            trace = orthodontic_sequence(w)
            for r in range(trace.length + 1):
                for word, packed in _stage(trace, r).items():
                    assert Counter(word) == Counter(dict(enumerate(packed.to_bytes(n, "little"), 1)))


def test_walk_matches_the_reference_that_builds_every_word():
    # the walk skips empty blocks and never builds stage 0 for the polynomial
    seen = Counter()
    for n in range(1, 7):
        for w in all_permutations(n):
            trace = orthodontic_sequence(w)
            for r in range(trace.length + 1):
                assert _stage(trace, r) == tableaux_reference.stage(trace, r), (w, r)
            counts = tableaux_reference.weight_counts(trace)
            assert schubert_from_tableaux(w) == Polynomial._from_packed(n, counts), w
            seen["empty block"] += 0 in trace.m
            seen["all-zero k"] += not any(trace.k)
            seen["identity"] += w.entries == tuple(range(1, n + 1))
    assert seen["identity"] == 6 < seen["all-zero k"] and seen["empty block"], seen


def test_public_word_sets_hold_int_tuples():
    w = parse_permutation("31542")
    trace = orthodontic_sequence(w)
    results = [tableaux_set(w), *(tableaux_stage(trace, r) for r in range(trace.length + 1))]
    for words in results:
        assert isinstance(words, set) and words
        for word in words:
            assert type(word) is tuple and all(type(letter) is int for letter in word)


def test_tableaux_count_matches_coefficient_sum():
    for w in all_permutations(5):
        total = sum(schubert_classic(w).terms.values())
        assert len(tableaux_set(w)) == total


def test_schubert_from_tableaux():
    w = parse_permutation("31542")
    assert schubert_from_tableaux(w) == schubert_classic(w)
    assert schubert_from_tableaux(Permutation((1, 2, 3))) == Polynomial(3, {(0, 0, 0): 1})
    for v in all_permutations(4):
        assert schubert_from_tableaux(v) == schubert_classic(v)


def test_tau_paper_example():
    tau = tau_reindexing(orthodontic_sequence(parse_permutation("31542")))
    assert tau.entries == (1, 2, 4, 3, 5)
    identity = Permutation((1, 2, 3, 4))
    assert tau_reindexing(orthodontic_sequence(identity)) == identity


def test_tau_stability_for_equal_columns():
    # D(321) has columns {1,2}, {1}, {}; the rebuilt diagram lists [1] before [2]
    assert tau_reindexing(orthodontic_sequence(parse_permutation("321"))).entries == (2, 1, 3)


def read_one(word, w, r):
    """The filling of the stage-r diagram by word, as {(row, column): letter}."""
    return dict(zip(read_words_into_diagram([word], orthodontic_sequence(w), r), word))


def test_read_into_diagram_paper_elements():
    w = parse_permutation("31542")
    for r, word in [(3, (1,)), (2, (1, 2, 3, 2)), (1, (1, 2, 4, 2)), (0, (1, 1, 3, 4, 2))]:
        assert len(read_one(word, w, r)) == len(word)
    # stage 2 fills column 2 top to bottom, then column 4
    filling = read_one((1, 2, 3, 2), w, 2)
    assert list(filling.items()) == [((1, 2), 1), ((2, 2), 2), ((3, 2), 3), ((2, 4), 2)]


def test_read_into_diagram_empty():
    assert read_one((), Permutation((1, 2, 3)), 0) == {}


def test_read_into_diagram_rejects_bad_input():
    w = parse_permutation("31542")
    with pytest.raises(FillingError, match=r"^word length 2 != box count 5 at stage 0$"):
        read_one((1, 2), w, 0)
    with pytest.raises(FillingError, match=r"^word \(1, 1, 1, 1, 1\) is not column-strict in stage 0$"):
        read_one((1, 1, 1, 1, 1), w, 0)
    with pytest.raises(FillingError, match=r"^word \(1, 1, 3, 4, 4\) is not row-flagged in stage 0$"):
        read_one((1, 1, 3, 4, 4), w, 0)


def test_root_operators_touch_only_the_impact_column():
    # multiplicity-free w with a repeated letter: every f application between
    # the two occurrences lands in the common singleton column
    checked = 0
    for w in all_permutations(6):
        tr = orthodontic_sequence(w)
        if not is_multiplicity_free(w):
            continue
        letters = tr.i
        pairs = [
            (r, s)
            for r in range(1, len(letters) + 1)
            for s in range(r + 1, len(letters) + 1)
            if letters[r - 1] == letters[s - 1]
        ]
        if not pairs:
            continue
        stages = [tableaux_stage(tr, r) for r in range(tr.length + 1)]
        impacts = [mask_rows(imp) for _, imp, _, _ in _engine(_rothe_key(w), w.n)]
        for r, s in pairs:
            (c,) = impacts[r]
            for j in range(r, s + 1):
                assert impacts[j] == (c,)
                cells = read_words_into_diagram(stages[j], tr, j)
                for word in stages[j]:
                    image = root_operator(letters[j - 1], word)
                    if image is None:
                        continue
                    pos = next(p for p in range(len(word)) if word[p] != image[p])
                    assert cells[pos][1] == c
                    checked += 1
    assert checked > 0


def test_multiplicity_free_words_have_distinct_weights():
    for w in all_permutations(6):
        if is_multiplicity_free(w):
            words = tableaux_set(w)
            assert len({frozenset(Counter(t).items()) for t in words}) == len(words)


def test_tau_uniqueness_by_enumeration():
    from itertools import permutations as it_perms

    from zeroone.orthodontia import build_D_im, orthodontic_sequence
    from zeroone.perms import rothe_diagram

    for w in all_permutations(5):
        tr = orthodontic_sequence(w)
        d = rothe_diagram(w)
        rebuilt = build_D_im(tr)
        matches = []
        for cand in it_perms(range(1, 6)):
            if any(d.columns[c - 1] != rebuilt.columns[cand[c - 1] - 1] for c in range(1, 6)):
                continue
            stable = all(
                cand[c - 1] < cand[cp - 1]
                for c in range(1, 6)
                for cp in range(c + 1, 6)
                if d.columns[c - 1] == d.columns[cp - 1]
            )
            if stable:
                matches.append(cand)
        assert matches == [tau_reindexing(tr).entries]


def test_word_text_round_trip():
    assert format_word((1, 1, 2, 3, 1)) == "11231"
    assert format_word((10, 2, 11)) == "10,2,11"
    assert str(Permutation((9, 1, 2, 3, 4, 5, 6, 7, 8))) == "912345678"
    assert str(Permutation((10, 1, 2, 3, 4, 5, 6, 7, 8, 9))) == "10,1,2,3,4,5,6,7,8,9"
    rng = random.Random(20)
    for n in range(1, 21):
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert parse_permutation(str(w)) == w
