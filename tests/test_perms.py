"""Permutation, diagram, and pattern-containment basics."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from zeroone.perms import (
    Diagram,
    Permutation,
    all_permutations,
    first_pattern,
    one_step_pattern,
    parse_diagram,
    parse_permutation,
    pattern_at,
    rothe_diagram,
    rothe_rows,
)
from zeroone.orthodontia import build_D_im, orthodontic_sequence

import diagram_reference
from diagram_lemma import delete_and_flatten, has_northwest_property
from pattern_scan import scan_witness

perm_strategy = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda e: Permutation(tuple(e)))
)


def rothe_by_inversions(w):
    """Independent oracle: one box (i, w_j) for every inversion i<j, w_i>w_j."""
    boxes = [
        (i, w[j])
        for i, j in combinations(range(1, w.n + 1), 2)
        if w[i] > w[j]
    ]
    return Diagram.from_boxes(w.n, boxes)


def test_adopted_permutation_equals_validated():
    for w in all_permutations(4):
        adopted = Permutation._adopt(w.entries)
        assert adopted == w and hash(adopted) == hash(w) and adopted.n == w.n


def test_adopted_diagram_equals_validated():
    # every builder that wraps columns unvalidated (the Rothe diagram, each stage
    # of the straightening, and D_im) and the Rothe diagram's text read back
    sites = 0
    for n in range(1, 7):
        for w in all_permutations(n):
            d, trace = rothe_diagram(w), orthodontic_sequence(w)
            stages = map(trace.stage, range(trace.length + 1))
            for adopted in (d, parse_diagram(str(d)), *stages, build_D_im(trace)):
                validated = Diagram(adopted.columns)
                assert adopted == validated and hash(adopted) == hash(validated), (w, adopted)
                assert type(adopted.columns) is tuple, (w, adopted)
                sites += 1
    assert sites == 5355


def test_from_boxes_equals_validated():
    # each box once, in a seeded order, and each box twice
    rng = random.Random(5)
    for n in range(1, 6):
        for w in all_permutations(n):
            d = rothe_diagram(w)
            boxes = list(d.boxes())
            rng.shuffle(boxes)
            for built in (Diagram.from_boxes(n, boxes), Diagram.from_boxes(n, boxes + boxes[::-1])):
                validated = Diagram(d.columns)
                assert built == validated and hash(built) == hash(validated), w
                assert type(built.columns) is tuple and all(type(c) is tuple for c in built.columns)
    # rows up to 40, whose sets need not iterate in sorted order
    for _ in range(50):
        boxes = [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(rng.randint(0, 300))]
        columns = tuple(tuple(i for i, j in boxes if j == c) for c in range(1, 41))
        assert Diagram.from_boxes(40, boxes).columns == Diagram(columns).columns
    for box in ((0, 1), (1, 0), (4, 1), (1, 4), (-1, 2)):
        with pytest.raises(ValueError, match=rf"box \({box[0]}, {box[1]}\) outside \[3\]x\[3\]"):
            Diagram.from_boxes(3, [(1, 1), box])


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))


def test_inverse_involution():
    w = parse_permutation("31542")
    assert w.inverse().inverse() == w
    assert w.inverse().entries == (2, 5, 1, 4, 3)
    # inverse() does not validate its result, so its entries are validated here
    rng = random.Random(29)
    for n in range(1, 301):
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert Permutation(w.inverse().entries) == w.inverse()
        assert w.inverse().inverse() == w


def test_parse_and_format():
    assert parse_permutation("31542").entries == (3, 1, 5, 4, 2)
    assert parse_permutation("4,5,7,8,1,2,6,9,3").n == 9
    assert str(parse_permutation("31542")) == "31542"
    big = Permutation(tuple(range(10, 0, -1)))
    assert parse_permutation(str(big)) == big
    with pytest.raises(ValueError):
        parse_permutation("")
    with pytest.raises(ValueError):
        parse_permutation("3x1")


def test_rothe_paper_example():
    d = rothe_diagram(parse_permutation("31542"))
    assert d.columns == ((1,), (1, 3, 4), (), (3,), ())


def test_rothe_identity_empty():
    for n in (1, 3, 5):
        assert not any(rothe_diagram(Permutation(tuple(range(1, n + 1)))).columns)


def test_rothe_321_brute_force():
    w = parse_permutation("321")
    expected = {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)
                if i < w.inverse()[j] and j < w[i]}
    assert expected == {(1, 1), (1, 2), (2, 1)}
    assert set(rothe_diagram(w).boxes()) == expected


@given(perm_strategy)
def test_rothe_matches_inversion_oracle(w):
    assert rothe_diagram(w) == rothe_by_inversions(w)


@given(perm_strategy)
def test_rothe_box_count_is_inversions(w):
    assert len(list(rothe_diagram(w).boxes())) == sum(a > b for a, b in combinations(w.entries, 2))


def test_rothe_rows_match_definition():
    for n in range(1, 8):
        for w in all_permutations(n):
            winv = w.inverse()
            rows = rothe_rows(w.entries)
            assert len(rows) == n
            for i in range(1, n + 1):
                expected = sum(1 << (j - 1) for j in range(1, n + 1) if i < winv[j] and j < w[i])
                assert rows[i - 1] == expected, (w, i)


def test_rothe_diagram_transposes_rothe_rows():
    for n in range(1, 8):
        for w in all_permutations(n):
            rows = rothe_rows(w.entries)
            transpose = tuple(
                tuple(i for i, row in enumerate(rows, 1) if row >> j & 1) for j in range(n)
            )
            assert rothe_diagram(w).columns == transpose, w


def test_northwest_of_rothe_small():
    for n in range(1, 7):
        for w in all_permutations(n):
            assert has_northwest_property(rothe_diagram(w))


def test_northwest_counterexample():
    d = Diagram.from_boxes(2, [(1, 2), (2, 1)])
    assert not has_northwest_property(d)
    assert has_northwest_property(Diagram(((), (), ())))


def test_contains_pattern_paper_examples():
    w = parse_permutation("154623")
    assert first_pattern(w, (parse_permutation("132"),)) is not None
    assert first_pattern(w, (parse_permutation("132456"),)) is None


def test_contains_pattern_reflexive():
    for n in range(1, 5):
        for w in all_permutations(n):
            assert first_pattern(w, (w,)) == (w, tuple(range(1, n + 1)))


def test_contains_pattern_least_realization():
    # both (1,2) and (1,3) realize 21 in 312; lexicographic minimum wins
    assert first_pattern(parse_permutation("312"), (parse_permutation("21"),))[1] == (1, 2)


def test_contains_pattern_matches_the_scan_exhaustively():
    sigmas = [sigma for m in range(4) for sigma in all_permutations(m)]
    for w in (w for n in range(6) for w in all_permutations(n)):
        for sigma in sigmas:
            assert first_pattern(w, (sigma,)) == scan_witness(w, (sigma,))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_contains_pattern_matches_the_scan(data):
    # w in S_8..S_12, and in S_1..S_5 so that sigma may be longer than w
    n = data.draw(st.one_of(st.integers(8, 12), st.integers(1, 5)))
    m = data.draw(st.integers(1, 6))
    w = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    sigma = Permutation(tuple(data.draw(st.permutations(range(1, m + 1)))))
    assert first_pattern(w, (sigma,)) == scan_witness(w, (sigma,))


@given(st.data())
@settings(max_examples=50)
def test_contains_pattern_transitive(data):
    a = data.draw(st.integers(2, 4))
    b = data.draw(st.integers(a, 5))
    c = data.draw(st.integers(b, 6))
    sigma = Permutation(tuple(data.draw(st.permutations(list(range(1, a + 1))))))
    tau = Permutation(tuple(data.draw(st.permutations(list(range(1, b + 1))))))
    w = Permutation(tuple(data.draw(st.permutations(list(range(1, c + 1))))))
    if first_pattern(tau, (sigma,)) and first_pattern(w, (tau,)):
        assert first_pattern(w, (sigma,))


def test_one_step_pattern_examples():
    assert one_step_pattern(parse_permutation("31542"), 3).entries == (3, 1, 4, 2)
    assert one_step_pattern(Permutation((1, 2, 3, 4, 5)), 2) == Permutation((1, 2, 3, 4))
    with pytest.raises(ValueError):
        one_step_pattern(parse_permutation("21"), 3)


def test_pattern_at_flattens_and_checks_positions():
    w = parse_permutation("31542")
    assert pattern_at(w, (1, 3, 5)).entries == (2, 3, 1)
    assert pattern_at(w, ()) == Permutation(())
    assert pattern_at(w, (1, 2, 3, 4, 5)) == w
    for bad in [(0,), (6,), (2, 1), (3, 3)]:
        with pytest.raises(ValueError):
            pattern_at(w, bad)


def test_delete_row_col_reindex_matches_pattern():
    w = parse_permutation("31542")
    d = rothe_diagram(w)
    assert delete_and_flatten(d, 3, w[3]) == rothe_diagram(parse_permutation("3142"))
    assert one_step_pattern(w, 3) == parse_permutation("3142")


def test_one_step_pattern_diagram_lemma_exhaustive():
    for w in all_permutations(5):
        d = rothe_diagram(w)
        for k in range(1, 6):
            assert rothe_diagram(one_step_pattern(w, k)) == delete_and_flatten(d, k, w[k])


def test_pattern_diagram_lemma_any_realization():
    # deleting the complement of any index subset, one position at a time,
    # turns D(w) into the diagram of the flattened pattern
    for w in all_permutations(5):
        for m in range(1, 5):
            for kept in combinations(range(1, 6), m):
                current = w
                diagram = rothe_diagram(w)
                for k in sorted(set(range(1, 6)) - set(kept), reverse=True):
                    diagram = delete_and_flatten(diagram, k, current[k])
                    current = one_step_pattern(current, k)
                assert diagram == rothe_diagram(current)
                assert pattern_at(w, kept) == current
                ranks = sorted(w[j] for j in kept)
                assert current.entries == tuple(ranks.index(w[j]) + 1 for j in kept)


def _parsed(parse, text):
    """What parse makes of text: the Diagram, or the text of its ValueError."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _odd_diagram_text(rng):
    """A seeded text near the diagram format: rows shuffled and repeated, labels
    zero-padded or spaced, blank lines, CRLF or CR line ends, a BOM, a bare label
    with no colon, fullwidth digits, rows out of range, wrong labels."""
    n = rng.randint(1, 5)
    lines = []
    for j in range(1, n + 1):
        rows = [str(rng.randint(1, n)) for _ in range(rng.randint(0, n))]
        rows += rng.sample(rows, len(rows) // 2)  # repeated rows, then shuffled
        rng.shuffle(rows)
        label = rng.choice([str(j), str(j), "0" + str(j), f" {j} ", str(j + 1)])
        line = label if not rows and rng.random() < 0.3 else f"{label}:" + " ".join(rows)
        if rng.random() < 0.1:
            line = line.replace(str(rng.randint(1, n)), chr(0xFF10 + rng.randint(0, 9)), 1)
        if rng.random() < 0.1:
            line += f" {rng.choice([0, n + 1])}"
        lines.append(line)
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "  ", "\t"]))
    text = rng.choice(["\n", "\r\n", "\r"]).join(lines)
    return "\ufeff" + text if rng.random() < 0.05 else text


def test_parse_diagram_matches_the_reference():
    for n in range(1, 7):
        for w in all_permutations(n):
            d = rothe_diagram(w)
            assert parse_diagram(str(d)) == diagram_reference.parse_diagram(str(d)) == d
    # a row out of range and a later wrong label: the label is reported, as before
    for text in ("1: 5\n3: 1", "1: 0\n2:\n4:", "1: 1 9 1\n1:"):
        assert _parsed(parse_diagram, text) == _parsed(diagram_reference.parse_diagram, text)
        assert "expected column label" in _parsed(parse_diagram, text)
    rng = random.Random(7919)
    seen = set()
    for _ in range(2000):
        text = _odd_diagram_text(rng)
        got = _parsed(parse_diagram, text)
        assert got == _parsed(diagram_reference.parse_diagram, text), text
        seen.add(got.split(" ")[1] if isinstance(got, str) else "Diagram")
    assert seen == {"Diagram", "expected", "bad", "row"}


def test_diagram_text_round_trip():
    d = rothe_diagram(parse_permutation("31542"))
    assert parse_diagram(str(d)) == d
    assert str(d).splitlines()[2] == "3:"
    with pytest.raises(ValueError):
        parse_diagram("")
    with pytest.raises(ValueError):
        parse_diagram("2: 1")
    # labels and rows are ASCII digits: not the Arabic-Indic one, nor a superscript
    for text in ("\u0661: 1", "1: \u0661", "1: \u00b2", "1: 1\n\u0662: 1"):
        with pytest.raises(ValueError, match="expected column label|bad row indices"):
            parse_diagram(text)
    with pytest.raises(ValueError):
        Diagram(((5,), ()))
