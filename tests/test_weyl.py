"""Flagged Weyl module characters, exact ranks, and dominance."""

import random
from collections import ChainMap
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from zeroone.perms import (
    Diagram,
    Permutation,
    all_permutations,
    parse_permutation,
    pattern_at,
    rothe_diagram,
    rothe_rows,
)
from zeroone.poly import (
    Polynomial,
    _lift,
    _pattern_inequalities,
    schubert_classic,
    schubert_pattern_inequality,
)
from zeroone.weyl import (
    SizeLimitError,
    dual_character,
    matrix_rank,
    minor,
    pattern_dominance_check,
    _choice_count,
    _column_minors,
    _extend,
    _insert,
    _times,
    _unpack,
)
import zeroone.weyl as weyl

import ring
from diagram_lemma import delete_row_col, diagram_leq, has_northwest_property


def test_minor_examples():
    assert dict(minor((1,), (2,))) == {frozenset({((1, 2), 1)}): 1}
    assert minor((2,), (1,)) == ()
    diag = dict(minor((1, 2, 3), (1, 2, 3)))
    assert diag == {frozenset({((1, 1), 1), ((2, 2), 1), ((3, 3), 1)}): 1}
    with pytest.raises(ValueError):
        minor((1, 2), (1,))
    # a repeated row or column makes two equal lines: the determinant is 0
    assert minor((1, 1), (1, 2)) == minor((1, 2), (2, 2)) == minor((2, 2), (3, 3)) == ()
    for rows, cols in [((0,), (1,)), ((1, 2), (0, 2)), ((-1,), (-1,))]:
        with pytest.raises(ValueError, match="from 1"):
            minor(rows, cols)


def test_minor_refuses_more_rows_than_a_byte():
    # decoding a term walks every y field below its last column, which is what the
    # bound holds down: the diagonal minor takes 0.3 to 0.5 s to decode at 255 rows
    for size in (256, 1200):
        with pytest.raises(ValueError, match="at most 255"):
            minor(tuple(range(1, size + 1)), tuple(range(1, size + 1)))
    assert minor(tuple(range(2, 257)), tuple(range(1, 256))) == ()


def test_minor_antisymmetry_signs():
    # rows {1,2}, cols {2,3}: y12 y23 - y13 y22
    terms = dict(minor((1, 2), (2, 3)))
    assert terms[frozenset({((1, 2), 1), ((2, 3), 1)})] == 1
    assert terms[frozenset({((1, 3), 1), ((2, 2), 1)})] == -1


def rank_by_fractions(rows):
    """Plain Gaussian elimination over Q as an independent oracle."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=200)
def test_matrix_rank_matches_fraction_oracle(rows):
    assert matrix_rank(rows) == rank_by_fractions(rows)


@given(
    st.lists(
        st.dictionaries(st.integers(0, 11), st.integers(-10**6, 10**6).filter(bool), max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.lists(st.integers(-10**6, 10**6), min_size=5, max_size=5), max_size=4),
)
@settings(max_examples=200)
def test_sparse_elimination_matches_fraction_oracle(base, mixes):
    # sparse rows with large coefficients, plus integer combinations of them,
    # so that leading terms cancel between rows that share no small factor
    rows = [[row.get(c, 0) for c in range(12)] for row in base]
    rows += [[sum(k * r[c] for k, r in zip(mix, rows)) for c in range(12)] for mix in mixes]
    rank = rank_by_fractions(rows)
    assert matrix_rank(rows) == rank
    basis = {}
    for row in rows:
        _insert(basis, {c: v for c, v in enumerate(row) if v})
    assert len(basis) == rank
    for lead, row in basis.items():  # distinct leads, content divided out
        assert lead == max(row) and gcd(*row.values()) == 1


def column_choices(col):
    """All sorted tuples S with S <= col, elementwise on sorted entries, in
    lexicographic order: the choices a column of a subdiagram C <= D can make."""
    target = sorted(col)
    pool = combinations(range(1, max(target, default=0) + 1), len(target))
    return [s for s in pool if all(a <= b for a, b in zip(s, target))]


@cache
def leibniz_minor(rows, cols):
    """det Y[rows; cols] for sorted rows and cols, as the sum over the bijections
    pi with rows[t] <= cols[pi(t)] of sign(pi) * prod_t y_{rows[t] cols[pi(t)]},
    keyed by monomial as `minor` keys them."""
    terms = {}
    for pi in permutations(range(len(cols))):
        if all(r <= cols[p] for r, p in zip(rows, pi)):
            sign = (-1) ** sum(a > b for a, b in combinations(pi, 2))
            terms[frozenset(((r, cols[p]), 1) for r, p in zip(rows, pi))] = sign
    return terms


def _packed_y(monomial):
    """A monomial of `minor` as a packed key: y_ij owns the field (j(j-1)/2 + i - 1)."""
    return sum(e << (j * (j - 1) // 2 + i - 1) * weyl.BITS for (i, j), e in monomial)


def test_column_choices():
    assert column_choices(()) == [()]
    assert column_choices((3,)) == [(1,), (2,), (3,)]
    assert column_choices((1, 2)) == [(1, 2)]
    assert set(column_choices((2, 3))) == {(1, 2), (1, 3), (2, 3)}
    for n in range(7):
        for col in product(*([(False, True)] * n)):
            rows = tuple(r for r, on in enumerate(col, 1) if on)
            assert _choice_count(rows) == len(column_choices(rows))


def test_minor_matches_leibniz():
    rng = random.Random(20261020)
    for _ in range(300):
        size = rng.randint(0, 5)
        rows = tuple(sorted(rng.sample(range(1, 10), size)))
        cols = tuple(sorted(rng.sample(range(1, 10), size)))
        got = minor(tuple(rng.sample(rows, size)), tuple(rng.sample(cols, size)))
        assert dict(got) == leibniz_minor(rows, cols), (rows, cols)


def test_column_minors_match_leibniz():
    # every column inside [7]: one entry per choice S <= col in lexicographic order,
    # with S's packed weight, the minor's largest key, and the minor itself
    for n in range(8):
        for col in combinations(range(1, 8), n):
            choices = column_choices(col)
            got = _column_minors(col)
            assert [wkey for wkey, _, _ in got] == [sum(map(weyl._x, s)) for s in choices], col
            for s, (_, lead, terms) in zip(choices, got):
                expected = {_packed_y(m): c for m, c in leibniz_minor(s, col).items()}
                assert dict(terms) == expected and len(terms) == len(expected), (s, col)
                assert lead == max(expected), (s, col)


def test_product_drops_cancelled_terms():
    # (y11 + y12)(y11 - y12) = y11^2 - y12^2: the cross terms cancel
    y11, y12 = 1, 1 << weyl.BITS
    assert _times({y11: 1, y12: 1}, ((y11, 1), (y12, -1))) == {2 * y11: 1, 2 * y12: -1}
    assert _times({y11: 3, y12: 1}, ((y12, -1),)) == {y11 + y12: -3, 2 * y12: -1}


def _mono_mul(a, b):
    exps = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return frozenset(exps.items())


def character_by_definition(d):
    """List every C <= D, group by weight, and rank each group's products
    of the Leibniz minors with the Fraction oracle."""
    groups = {}
    for choice in product(*[column_choices(col) for col in d.columns]):
        wt = [0] * d.n
        for col in choice:
            for i in col:
                wt[i - 1] += 1
        groups.setdefault(tuple(wt), []).append(choice)
    terms = {}
    for wt, members in groups.items():
        polys = []
        for choice in members:
            poly = {frozenset(): 1}
            for cj, dj in zip(choice, d.columns):
                out = {}
                for m1, c1 in poly.items():
                    for m2, c2 in leibniz_minor(cj, dj).items():
                        m = _mono_mul(m1, m2)
                        out[m] = out.get(m, 0) + c1 * c2
                poly = out
            polys.append(poly)
        monos = sorted({m for poly in polys for m in poly}, key=sorted)
        terms[wt] = rank_by_fractions([[poly.get(m, 0) for m in monos] for poly in polys])
    return Polynomial(d.n, terms)


def _random_diagrams(seed, count):
    """Seeded diagrams with n from 1 to 5 and at most 2n boxes, which keeps
    #{C <= D} within the Fraction oracle's reach."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        boxes = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n))}
        out.append(Diagram.from_boxes(n, boxes))
    return out


def test_dual_character_matches_definition():
    diagrams = [rothe_diagram(w) for n in range(1, 6) for w in all_permutations(n)]
    for w in all_permutations(4):
        d = rothe_diagram(w)
        diagrams += [delete_row_col(d, k, l) for k, l in product(range(1, 5), repeat=2)]
    diagrams += _random_diagrams(20261018, 200)
    for d in diagrams:
        assert dual_character(d) == character_by_definition(d), d.columns


def test_dual_character_trivial_diagrams():
    assert dual_character(Diagram(((), (), ()))) == Polynomial(3, {(0, 0, 0): 1})
    single = Diagram(((1, 2, 3), (), ()))
    assert dual_character(single) == Polynomial(3, {(1, 1, 1): 1})


def test_dual_character_is_schubert_S4():
    for w in all_permutations(4):
        assert dual_character(rothe_diagram(w)) == schubert_classic(w)


def test_dual_character_size_limit():
    # the library caps no size: the command line's cap of n = 6 is tested by test_char_limit
    big = Diagram(tuple(() for _ in range(7)))
    assert dual_character(big) == Polynomial(7, {(0,) * 7: 1})
    w = Permutation((2, 1, 5, 4, 3, 7, 6))
    d = rothe_diagram(w)
    assert dual_character(d) == schubert_classic(w)
    assert pattern_dominance_check(d, 3, 5).ok


def test_exponent_fields_hold_n():
    # every column {5}: y_{c,5} reaches exponent 5, and the character is
    # h_5(x_1..x_5), all 126 monomials of degree 5 with coefficient 1
    d = Diagram(tuple((5,) for _ in range(5)))
    chi = dual_character(d)
    expected = {e: 1 for e in product(range(6), repeat=5) if sum(e) == 5}
    assert len(expected) == 126
    assert chi.terms == expected
    spans = {0: {0: {0: 1}}}
    for col in d.columns:
        spans = _extend(spans, col, False)
    assert len(spans) == 126
    (row,) = spans[5].values()  # weight x_1^5: every column chose row 1
    (key,) = row
    assert _unpack(key) == frozenset({((1, 5), 5)})


def test_exponent_width_guard(monkeypatch):
    def refuse(cols):
        raise AssertionError("the width guard must act before the column pass")

    wide = weyl._FIELD + 1
    empty = Diagram(((),) * (wide - 1))
    assert dual_character(empty) == Polynomial(wide - 1, {(0,) * (wide - 1): 1})
    # the empty diagram's character is cached by now: refusing the cached
    # column pass also shows that the guard acts before the cache
    monkeypatch.setattr(weyl, "_character", refuse)
    with pytest.raises(SizeLimitError):
        dual_character(Diagram(((),) * wide))


def test_subdiagram_count_guard(monkeypatch):
    # h_5 of test_exponent_fields_hold_n has 5^5 = 3125 subdiagrams
    h5 = Diagram(tuple((5,) for _ in range(5)))
    monkeypatch.setattr(weyl, "MAX_SUBDIAGRAMS", 3125)
    assert len(dual_character(h5).terms) == 126
    monkeypatch.setattr(weyl, "MAX_SUBDIAGRAMS", 3124)
    with pytest.raises(SizeLimitError, match="3125 subdiagrams"):
        dual_character(h5)
    monkeypatch.undo()

    def refuse(cols):
        raise AssertionError("the count guard must act before the column pass")

    # every column {4,5,6}: C(6,3)^6 = 20^6 subdiagrams, within the command line's cap of n = 6
    monkeypatch.setattr(weyl, "_character", refuse)
    with pytest.raises(SizeLimitError, match="64000000 subdiagrams"):
        dual_character(Diagram(((4, 5, 6),) * 6))


def _random_northwest_diagram(rng, n=4):
    boxes = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))}
    changed = True
    while changed:
        changed = False
        for (r, cp), (rp, c) in product(list(boxes), repeat=2):
            if r < rp and c < cp and (r, c) not in boxes:
                boxes.add((r, c))
                changed = True
    return Diagram.from_boxes(n, boxes)


def test_dual_character_support_and_coefficient_bounds():
    rng = random.Random(20250808)
    diagrams = [rothe_diagram(w) for w in all_permutations(4)]
    diagrams += [_random_northwest_diagram(rng) for _ in range(20)]
    for d in diagrams:
        assert has_northwest_property(d)
        chi = dual_character(d)
        expected_support = set()
        group_sizes = {}
        for choice in product(*[column_choices(col) for col in d.columns]):
            wt = [0] * d.n
            for col in choice:
                for i in col:
                    wt[i - 1] += 1
            expected_support.add(tuple(wt))
            group_sizes[tuple(wt)] = group_sizes.get(tuple(wt), 0) + 1
        assert set(chi.terms) == expected_support
        for e, c in chi.terms.items():
            assert 1 <= c <= group_sizes[e]


def assert_augmentation(d, k, l):
    """Every row-k-free C <= D-hat, augmented by the boxes of D in row k and
    column l, lands below D (D-hat drops those boxes and keeps the frame)."""
    dhat = delete_row_col(d, k, l)
    row_boxes = [(k, j) for j in range(1, d.n + 1) if k in d.columns[j - 1]]
    col_boxes = [(i, l) for i in d.columns[l - 1]]
    for choice in product(*[column_choices(col) for col in dhat.columns]):
        if any(k in col for col in choice):
            continue
        boxes = [(i, j) for j, col in enumerate(choice, start=1) for i in col]
        assert diagram_leq(Diagram.from_boxes(d.n, boxes + row_boxes + col_boxes), d), choice


def test_pattern_dominance_check_empty_hook():
    d = rothe_diagram(parse_permutation("31542"))
    result = pattern_dominance_check(d, 5, 3)  # row 5 and column 3 hold no boxes
    assert result.monomial == Polynomial(5, {(0, 0, 0, 0, 0): 1})
    chi = dual_character(d)
    assert result.remainder == ring.sub(chi, ring.substitute_zero(5, chi))
    assert result.ok


def test_pattern_dominance_check_rothe_matches_theorem():
    w = parse_permutation("2143")
    d = rothe_diagram(w)
    for k in range(1, 5):
        result = pattern_dominance_check(d, k, w[k])
        assert result.ok
        assert_augmentation(d, k, w[k])
    with pytest.raises(ValueError):
        pattern_dominance_check(d, 0, 1)


def test_pattern_dominance_check_all_S4():
    for w in all_permutations(4):
        d = rothe_diagram(w)
        for k in range(1, 5):
            for l in range(1, 5):
                assert pattern_dominance_check(d, k, l).ok
                assert_augmentation(d, k, l)


def test_pattern_dominance_check_general_diagrams():
    # the inequality needs no northwest hypothesis
    rng = random.Random(99)
    for _ in range(15):
        n = rng.randint(2, 4)
        boxes = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 5))}
        d = Diagram.from_boxes(n, boxes)
        for k, l in product(range(1, n + 1), repeat=2):
            assert pattern_dominance_check(d, k, l).ok, (d.columns, k, l)
            assert_augmentation(d, k, l)


def test_dominance_remainder_matches_full_frame_oracle():
    # the check works on the (n-1)-frame minor diagram; the oracle keeps the
    # frame, expands D-hat whole and sets x_k := 0 on tuple-keyed terms
    randoms = _random_diagrams(20261019, 80)
    assert {d.n for d in randoms} == {1, 2, 3, 4, 5}
    assert any(() in d.columns for d in randoms)  # an empty column
    assert any(len({i for col in d.columns for i in col}) < d.n for d in randoms)  # an empty row
    for d in [rothe_diagram(w) for n in range(1, 5) for w in all_permutations(n)] + randoms:
        chi = dual_character(d)
        for k, l in product(range(1, d.n + 1), repeat=2):
            result = pattern_dominance_check(d, k, l)
            hat = ring.substitute_zero(k, dual_character(delete_row_col(d, k, l)))
            oracle = ring.sub(chi, ring.mul(result.monomial, hat))
            assert result.remainder == oracle, (d.columns, k, l)
            assert result.ok == all(c > 0 for c in oracle.terms.values())
            e = [0] * d.n
            for i, j in d.boxes():
                if i == k or j == l:
                    e[i - 1] += 1
            assert result.monomial == Polynomial(d.n, {tuple(e): 1}), (d.columns, k, l)


def test_dominance_bounds_the_minor_diagram_not_d_hat(monkeypatch):
    # dropping row k can give a column more choices, renumbering never does:
    # D-hat may have more subdiagrams than D, D' never has; so the dominance
    # check guards D alone and reads the character of D' straight from the kernel
    def count(columns):
        return prod(map(_choice_count, columns))

    rothe = [rothe_diagram(w) for n in range(1, 7) for w in all_permutations(n)]
    for d in _random_diagrams(5, 100) + rothe:
        for k, l in product(range(1, d.n + 1), repeat=2):
            d_minor = [tuple(i - (i > k) for i in col if i != k)
                       for j, col in enumerate(d.columns, 1) if j != l]
            assert count(d_minor) <= count(d.columns), (d.columns, k, l)
    d = Diagram(((1,), (1, 3), (1, 3)))
    monkeypatch.setattr(weyl, "MAX_SUBDIAGRAMS", 4)
    with pytest.raises(SizeLimitError, match="9 subdiagrams"):
        dual_character(delete_row_col(d, 1, 1))
    assert count(d.columns) == 4 and pattern_dominance_check(d, 1, 1).ok


def test_character_memo_ignores_column_order_and_frame():
    for d in _random_diagrams(7, 40):
        weyl._character.cache_clear()
        chi = dual_character(d)
        # the same nonempty columns, reversed, in a frame two larger
        moved = Diagram(d.columns[::-1] + ((), ()))
        assert dual_character(moved) == character_by_definition(moved), d.columns
        assert weyl._character.cache_info().hits == 1
        assert dual_character(moved).terms == {e + (0, 0): c for e, c in chi.terms.items()}


def test_dominance_leaves_the_shared_character_intact():
    for d in [rothe_diagram(parse_permutation("31542"))] + _random_diagrams(11, 10):
        weyl._character.cache_clear()
        for k, l in product(range(1, d.n + 1), repeat=2):
            pattern_dominance_check(d, k, l)
        hits = weyl._character.cache_info().hits
        assert dual_character(d) == character_by_definition(d), d.columns
        assert weyl._character.cache_info().hits == hits + 1  # read from the shared entry


def test_schubert_pattern_inequality_examples():
    assert schubert_pattern_inequality(Permutation((1, 2, 3, 4)), (1, 3, 4))
    for w in all_permutations(5):
        for k in range(1, 6):
            assert schubert_pattern_inequality(w, tuple(p for p in range(1, 6) if p != k))
    w = parse_permutation("31542")
    assert schubert_pattern_inequality(w, ())
    assert schubert_pattern_inequality(w, (1, 2, 3, 4, 5))
    for bad in [(0, 2), (2, 6), (3, 1), (2, 2)]:
        with pytest.raises(ValueError):
            schubert_pattern_inequality(w, bad)


def test_table_inequality_matches_the_classic_route(schubert_packed):
    # criteria 6 and 10 read S_w and S_sigma from the session table of S_0..S_7
    rng = random.Random(7919)
    for _ in range(300):
        n = rng.randint(1, 7)
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        positions = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        for v in (w, pattern_at(w, positions)):
            assert schubert_packed[v.entries] == schubert_classic(v)._packed, v
        assert [*_pattern_inequalities(w, [positions], schubert_packed)] == [
            schubert_pattern_inequality(w, positions)]
        # the check reads S_sigma from the table for each P: with S_() read as 2 it
        # must fail at P = (), since S_w has coefficient 1 at M, the weight of all of D(w)
        two = ChainMap({(): {0: 2}}, schubert_packed)
        assert [*_pattern_inequalities(w, [(), positions], two)] == [False, positions != ()], w


def _reindexed(f, positions, nvars):
    """f with x_t sent to x_{positions[t-1]} among nvars variables, on tuple keys."""
    out = {}
    for e, c in f.terms.items():
        new = [0] * nvars
        for old, exp in enumerate(e):
            new[positions[old] - 1] = exp
        out[tuple(new)] = c
    return Polynomial(nvars, out)


def test_lifted_weight_matches_tuple_product():
    # M * S_sigma(x_P) on packed keys against the tuple-keyed reference `ring`:
    # M counted from the boxes of D(w), the reindexing loop and the product
    pairs = 0
    for n in range(1, 6):
        for w in all_permutations(n):
            boxes = list(rothe_diagram(w).boxes())
            for m in range(n + 1):
                for kept in combinations(range(1, n + 1), m):
                    cols = {w[p] for p in kept}
                    e = [0] * n
                    for i, j in boxes:
                        if i not in kept or j not in cols:
                            e[i - 1] += 1
                    sigma = schubert_classic(pattern_at(w, kept))
                    oracle = ring.mul(Polynomial(n, {tuple(e): 1}), _reindexed(sigma, kept, n))
                    lifted = _lift(sigma._packed, kept, int.from_bytes(bytes(e), "little"))
                    assert Polynomial._from_packed(n, lifted) == oracle, (w, kept)
                    # the bound that keeps every field in a byte: x_i's is at most n - i
                    assert all(v <= n - i for key in lifted
                               for i, v in enumerate(key.to_bytes(n, "little"), 1)), (w, kept)
                    pairs += 1
    assert pairs == 4282


def test_schubert_pattern_inequality_at_the_byte_edge():
    # at n = 255 a lifted field reaches n - 1 = 254 without carrying; the
    # classic route refuses n = 256 before any packing
    w0 = Permutation(tuple(range(255, 0, -1)))
    for w in (w0, Permutation((254, 255, *range(253, 0, -1))), Permutation((*range(255, 2, -1), 1, 2))):
        for positions in [(), (1,), (1, 2, 255), (2, 100, 254, 255), tuple(range(1, 256))]:
            assert schubert_pattern_inequality(w, positions), (w.entries[:3], positions)
    with pytest.raises(ValueError, match="n <= 255"):
        schubert_pattern_inequality(Permutation(tuple(range(256, 0, -1))), (1, 2))


def test_deleted_weight_degree_is_the_length_drop():
    # M is D(w)'s weight less the boxes in rows P and columns w(P), which must be
    # D(sigma) reindexed: l(sigma) boxes, code(sigma)_t of them in row P[t]; so
    # the deleted boxes number l(w) - l(sigma), read off the inversions of w inside P
    for n in range(1, 7):
        for w in all_permutations(n):
            rows = rothe_rows(w.entries)
            length = sum(a > b for a, b in combinations(w.entries, 2))
            for m in range(n + 1):
                for kept in combinations(range(1, n + 1), m):
                    cols = sum(1 << w[p] - 1 for p in kept)
                    inside = [(rows[p - 1] & cols).bit_count() for p in kept]
                    s = pattern_at(w, kept).entries
                    code = [sum(v < s[t] for v in s[t + 1:]) for t in range(m)]
                    assert inside == code, (w, kept)
                    deleted = sum(row.bit_count() for row in rows) - sum(inside)
                    assert deleted == length - sum(w[p] > w[q] for p, q in combinations(kept, 2))


def test_deleted_weight_counts_the_hook(monkeypatch):
    # M depends on d alone; the characters of D and D' are stubbed out, since some
    # of these diagrams have more subdiagrams than the determinant route accepts
    monkeypatch.setattr(weyl, "dual_character", lambda d: Polynomial(d.n, {}))
    monkeypatch.setattr(weyl, "_character", lambda cols: {})
    rng = random.Random(20261018)
    for _ in range(100):
        n = rng.randint(1, 6)
        boxes = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3 * n))}
        d = Diagram.from_boxes(n, boxes)
        for k, l in product(range(1, n + 1), repeat=2):
            e = [0] * n
            for i, j in boxes:
                if i == k or j == l:
                    e[i - 1] += 1
            monomial = pattern_dominance_check(d, k, l).monomial
            assert monomial == Polynomial(n, {tuple(e): 1}), (boxes, k, l)


def test_max_coefficient_monotone_under_one_step(schubert_table_5, schubert_table_6):
    from zeroone.perms import one_step_pattern
    for entries, f in schubert_table_6.items():
        w = Permutation(entries)
        for k in range(1, 7):
            sigma = one_step_pattern(w, k)
            assert max(schubert_table_5[sigma.entries].terms.values()) <= max(f.terms.values())
