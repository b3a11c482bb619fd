"""Polynomials and the divided-difference operators."""

import random
from itertools import combinations, permutations
from math import prod
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from zeroone.classify import survey
from zeroone.orthodontia import orthodontic_sequence
from zeroone.perms import Permutation, all_permutations, parse_permutation
from zeroone.poly import (
    Polynomial,
    _all_packed,
    _transitions,
    _zero_one_supports,
    demazure,
    divided_difference,
    is_zero_one,
    schubert_all,
    schubert_classic,
)

import ring


@st.composite
def polynomials(draw, min_vars=2, max_vars=5, max_exp=4, max_terms=6):
    n = draw(st.integers(min_vars, max_vars))
    exps = st.tuples(*([st.integers(0, max_exp)] * n))
    terms = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=max_terms))
    return Polynomial(n, terms)


def test_polynomial_canonical():
    f = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in f.terms
    assert f == Polynomial(2, {(1, 0): 1})
    assert not ring.sub(f, f).terms
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0, 0): 1})


def test_polynomial_rejects_negative_exponents():
    # printed, x1^-1 would vanish: this once read "3 + 2"
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(2, {(-1, 0): 2, (0, 0): 3})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(2, {(0, -2): 1})
    assert str(Polynomial(2, {(1, 0): 2, (0, 0): 3})) == "2*x1 + 3"
    assert Polynomial(0, {(): 5}).terms == {(): 5}


def test_divided_difference_basics():
    n = 3
    x1, x2 = Polynomial(n, {(1, 0, 0): 1}), Polynomial(n, {(0, 1, 0): 1})
    assert divided_difference(1, x1) == Polynomial(n, {(0,) * n: 1})
    x1x2 = ring.mul(x1, x2)
    assert not divided_difference(1, x1x2).terms
    assert divided_difference(1, ring.mul(x1, x1x2)) == x1x2
    with pytest.raises(ValueError):
        divided_difference(3, x1)


@given(polynomials(), st.data())
def test_divided_difference_exact_quotient(f, data):
    # multiply-back oracle: (x_i - x_{i+1}) * d_i(f) == f - s_i(f)
    i = data.draw(st.integers(1, f.nvars - 1))
    xi, xj = (tuple(int(t == s) for t in range(1, f.nvars + 1)) for s in (i, i + 1))
    lhs = ring.mul(Polynomial(f.nvars, {xi: 1, xj: -1}), divided_difference(i, f))
    assert lhs == ring.sub(f, ring.swap(i, f))


@given(polynomials(), st.data())
def test_divided_difference_squares_to_zero(f, data):
    i = data.draw(st.integers(1, f.nvars - 1))
    assert not divided_difference(i, divided_difference(i, f)).terms


@given(polynomials(min_vars=3, max_vars=5), st.data())
@settings(max_examples=50)
def test_braid_relation(f, data):
    i = data.draw(st.integers(1, f.nvars - 2))
    left = divided_difference(i, divided_difference(i + 1, divided_difference(i, f)))
    right = divided_difference(i + 1, divided_difference(i, divided_difference(i + 1, f)))
    assert left == right


@given(polynomials(), st.data())
def test_demazure_idempotent(f, data):
    i = data.draw(st.integers(1, f.nvars - 1))
    once = demazure(i, f)
    assert demazure(i, once) == once


def _reference_divided_difference(i, terms):
    """d_i on tuple-keyed terms, term by term: the definition the packed kernel must meet."""
    out = {}
    for e, c in terms.items():
        p, q = e[i - 1], e[i]
        if p == q:
            continue
        lo, hi, sgn = (q, p, c) if p > q else (p, q, -c)
        le = list(e)
        for a in range(lo, hi):
            le[i - 1], le[i] = a, lo + hi - 1 - a
            key = tuple(le)
            out[key] = out.get(key, 0) + sgn
    return {e: c for e, c in out.items() if c}


def _reference_demazure(i, terms):
    """pi_i = d_i(x_i * f), with x_i * f built as tuples."""
    shifted = {e[: i - 1] + (e[i - 1] + 1,) + e[i:]: c for e, c in terms.items()}
    return _reference_divided_difference(i, shifted)


# exponents up to 255, the largest a packed field holds, with the ends drawn often
_byte_exponents = st.one_of(st.integers(0, 4), st.integers(250, 255), st.integers(0, 255))


@st.composite
def byte_polynomials(draw):
    n = draw(st.integers(2, 5))
    exps = st.tuples(*([_byte_exponents] * n))
    terms = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=5))
    return Polynomial(n, terms)


@given(byte_polynomials(), st.data())
def test_kernel_matches_tuple_definition(f, data):
    i = data.draw(st.integers(1, f.nvars - 1))
    assert divided_difference(i, f).terms == _reference_divided_difference(i, f.terms)
    assert demazure(i, f).terms == _reference_demazure(i, f.terms)


def test_kernel_on_keys_wider_than_a_machine_word():
    # nvars 9..12 packs keys of 72-96 bits, as the routes do at S_10; each
    # term comes with its s_i-swap at +-c, so whole runs cancel or overlap
    rng = random.Random(45)
    draws = ((0, 4), (250, 255), (0, 255))
    for nvars in range(9, 13):
        for i in range(1, nvars):
            terms = {}
            for _ in range(4):
                e = [rng.randint(*rng.choice(draws)) for _ in range(nvars)]
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                swap = tuple(e[: i - 1] + [e[i], e[i - 1]] + e[i + 1 :])
                terms[tuple(e)] = c
                terms[swap] = terms.get(swap, 0) + rng.choice((c, -c))
            f = Polynomial(nvars, terms)
            assert divided_difference(i, f).terms == _reference_divided_difference(i, f.terms)
            assert demazure(i, f).terms == _reference_demazure(i, f.terms)


def test_kernel_refuses_exponents_beyond_a_byte():
    for op in (divided_difference, demazure):
        with pytest.raises(ValueError, match="255"):
            op(2, Polynomial(3, {(0, 1, 256): 1}))
    top = Polynomial(2, {(255, 0): 1})  # pi_1 multiplies by x_1 and still fits
    assert demazure(1, top).terms == _reference_demazure(1, top.terms)
    assert len(demazure(1, top).terms) == 256


def _omega_times(j, m, terms):
    """(x_1 ... x_j)^m times tuple-keyed terms."""
    if not m:
        return terms
    lift = (m,) * j + (0,) * (len(next(iter(terms))) - j)
    return {tuple(map(add, e, lift)): c for e, c in terms.items()}


def test_demazure_chain_exponents_stay_below_n():
    # The packed orthodontic route relies on this: every product omega_i^m * f
    # and every pi_i result of the chain has all its exponents at most n - 1.
    for n in range(1, 8):
        for w, f in schubert_all(n):
            trace = orthodontic_sequence(w)
            cur = {(0,) * n: 1}
            for i, m in zip(reversed(trace.i), reversed(trace.m)):
                cur = _omega_times(i, m, cur)
                assert max(map(max, cur)) <= n - 1, (w, i)
                cur = _reference_demazure(i, cur)
                assert max(map(max, cur)) <= n - 1, (w, i)
            for j, k in enumerate(trace.k, start=1):
                cur = _omega_times(j, k, cur)
            assert max(map(max, cur)) <= n - 1, w
            assert cur == f.terms, w


def test_demazure_examples():
    n = 2
    assert demazure(1, Polynomial(n, {(0,) * n: 1})) == Polynomial(n, {(0,) * n: 1})
    x1, x2 = Polynomial(n, {(1, 0): 1}), Polynomial(n, {(0, 1): 1})
    assert demazure(1, x1) == ring.add(x1, x2)


def test_demazure_operator_formula_for_31542():
    # x1 * pi_2(pi_3(x1 x2 x3 * pi_1(x1)))
    n = 5
    omega3 = Polynomial(5, {(1, 1, 1, 0, 0): 1})
    x1 = Polynomial(n, {(1, 0, 0, 0, 0): 1})
    inner = demazure(1, x1)
    f = ring.mul(x1, demazure(2, demazure(3, ring.mul(omega3, inner))))
    assert f == schubert_classic(parse_permutation("31542"))


SCHUBERT_31542 = {
    (3, 1, 1, 0, 0): 1,
    (3, 1, 0, 1, 0): 1,
    (3, 0, 1, 1, 0): 1,
    (2, 2, 1, 0, 0): 1,
    (2, 1, 2, 0, 0): 1,
    (2, 2, 0, 1, 0): 1,
    (2, 1, 1, 1, 0): 1,
    (2, 0, 2, 1, 0): 1,
}


def test_schubert_paper_example():
    assert schubert_classic(parse_permutation("31542")).terms == SCHUBERT_31542


def test_schubert_longest_and_identity():
    assert schubert_classic(parse_permutation("4321")) == Polynomial(4, {(3, 2, 1, 0): 1})
    assert schubert_classic(Permutation((1, 2, 3, 4))) == Polynomial(4, {(0, 0, 0, 0): 1})
    assert schubert_classic(Permutation((1,))) == Polynomial(1, {(0,): 1})


def test_schubert_deep_descent():
    # 780 divided-difference steps from w_0, in one loop with no recursion
    assert schubert_classic(Permutation(tuple(range(1, 41)))) == Polynomial(40, {(0,) * 40: 1})


def test_classic_memo_hit_returns_the_stored_polynomial():
    w = parse_permutation("31542")
    first = schubert_classic(w)
    assert schubert_classic(w) is first


def rightmost_descent(w):
    """S_w by divided differences from the staircase, at the rightmost ascent each step."""
    ascents = [i for i in range(1, w.n) if w[i] < w[i + 1]]
    if not ascents:
        return Polynomial(w.n, {tuple(range(w.n - 1, -1, -1)): 1})
    i = ascents[-1]
    e = list(w.entries)
    e[i - 1 : i + 1] = e[i], e[i - 1]  # w s_i, one inversion more
    return divided_difference(i, rightmost_descent(Permutation(tuple(e))))


def test_schubert_strategies_agree():
    # schubert_classic descends by leftmost ascents; the braid relations make
    # the chain irrelevant
    for w in all_permutations(5):
        assert schubert_classic(w) == rightmost_descent(w)


def test_schubert_contains_code_monomial():
    # independent anchor: x^{code(w)} always appears with coefficient 1
    def code(entries):
        n = len(entries)
        return tuple(
            sum(1 for j in range(i + 1, n) if entries[j] < entries[i]) for i in range(n)
        )

    for w, f in schubert_all(5):
        assert f.terms.get(code(w.entries)) == 1


def test_schubert_all_matches_classic():
    table = dict(schubert_all(4))
    assert len(table) == 24
    for w, f in table.items():
        assert f == schubert_classic(w)


def test_schubert_all_order():
    # ascending inversion count, decreasing lexicographic within a level: the
    # transition walk's order, which the survey's supports share
    def key(e):
        return sum(a > b for a, b in combinations(e, 2)), [-a for a in e]

    for n in range(7):
        order = [w.entries for w, _ in schubert_all(n)]
        assert order == sorted(permutations(range(1, n + 1)), key=key), n
        assert order == [tuple(e) for e, _ in _zero_one_supports(n)], n


def test_schubert_all_refuses_sizes_beyond_a_byte():
    for n in (256, -1):
        with pytest.raises(ValueError, match=r"needs 0 <= n <= 255"):
            next(schubert_all(n))


def test_all_of_S_n_tables_use_no_divided_difference(monkeypatch):
    # the session table checks the classic and orthodontic routes, which run
    # on _packed_dd, so it must not be built by that kernel itself
    import zeroone.poly as poly_mod

    def refuse(*args):
        raise AssertionError("_packed_dd called")

    monkeypatch.setattr(poly_mod, "_packed_dd", refuse)
    assert sum(1 for _ in _all_packed(6)) == 720
    assert sum(1 for _ in _zero_one_supports(6)) == 720


def test_transition_walk_folds_no_none():
    # a w whose v has the value None gets None with no fold call, since S_w >=
    # x_r S_v coefficientwise; here the first fold returns None, which passes up
    # to every w built on it
    calls = []

    def fold(value, r, parts):
        assert value is not None, "a fold was handed None"
        calls.append(r)
        return None if len(calls) == 1 else value + 1

    walk = dict(_transitions(5, 0, fold))
    nones = [e for e, value in walk.items() if value is None]
    assert bytes((2, 1, 3, 4, 5)) in nones and len(nones) > 1
    assert len(calls) == len(walk) - len(nones)  # the identity is not folded, one fold gave None
    for e, value in walk.items():
        if value is not None:
            assert value == sum(a > b for a, b in combinations(e, 2)), e


def test_classic_memo_over_S6(schubert_table_6):
    # 720 permutations, more than the memo holds
    for w in all_permutations(6):
        assert schubert_classic(w) == schubert_table_6[w.entries]


def test_coefficient_predicates():
    s = schubert_classic(parse_permutation("31542"))
    assert is_zero_one(s)
    assert max(s.terms.values()) == 1
    assert not Polynomial(3, {}).terms
    d = schubert_classic(parse_permutation("12543"))
    assert not is_zero_one(d)
    assert max(d.terms.values()) == 2


def test_zero_one_supports_match_the_expansions(schubert_packed):
    # the supports fold of the transition walk against its packed fold, support
    # by support; test_classic_memo_over_S6 and test_schubert_all_matches_classic
    # check the walk itself against schubert_classic
    for n in range(1, 8):
        walk = list(_zero_one_supports(n))
        order = [e for e, _ in walk]
        # each w exactly once, by ascending inversion count, each level decreasing
        assert len(order) == prod(range(1, n + 1))
        assert set(order) == set(map(bytes, permutations(range(1, n + 1))))
        key = [(sum(a > b for a, b in combinations(e, 2)), [-a for a in e]) for e in order]
        assert key == sorted(key)
        supports = dict(walk)
        for e, terms in schubert_packed.items():
            if len(e) == n:
                expected = set(terms) if set(terms.values()) == {1} else None
                assert supports[bytes(e)] == expected, e
    s = survey(8, methods="all")
    assert (s.total, s.zero_one, s.disagreements) == (40320, 19038, 0)


def test_format_graded_lex():
    f = schubert_classic(parse_permutation("31542"))
    assert str(f) == (
        "x1^3*x2*x3 + x1^3*x2*x4 + x1^3*x3*x4 + x1^2*x2^2*x3 + x1^2*x2^2*x4"
        " + x1^2*x2*x3^2 + x1^2*x2*x3*x4 + x1^2*x3^2*x4"
    )
    assert str(Polynomial(2, {})) == "0"
    assert str(ring.scale(Polynomial(2, {(0, 0): 1}), -3)) == "-3"
    x2 = Polynomial(3, {(0, 1, 0): 1})
    assert str(ring.scale(ring.mul(x2, x2), -1)) == "-x2^2"
    # higher degree first, then lexicographically larger exponent vector
    g = Polynomial(2, {(0, 1): 2, (1, 1): 1, (1, 0): 1})
    assert str(g) == "x1*x2 + x1 + 2*x2"


def _reference_sorted_terms(f):
    return sorted(f.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def _reference_records(f, label):
    return "".join(f"{label} {','.join(map(str, e))} {c}\n" for e, c in _reference_sorted_terms(f))


def _reference_str(f):
    """The formatter written out factor by factor, as the definition."""
    if not f.terms:
        return "0"
    parts = []
    for e, c in _reference_sorted_terms(f):
        factors = []
        for idx, exp in enumerate(e, start=1):
            if exp == 1:
                factors.append(f"x{idx}")
            elif exp > 1:
                factors.append(f"x{idx}^{exp}")
        mono = "*".join(factors)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts)


_printable_coefficients = st.one_of(st.sampled_from([1, -1]), st.integers(-10**6, 10**6)).filter(bool)


def _draw_printable_terms(draw, n, top):
    """Up to 12 terms of mixed degrees, exponents at most top, often a constant."""
    exps = st.tuples(*([st.integers(0, top)] * n))
    terms = draw(st.dictionaries(exps, _printable_coefficients, max_size=12))
    if draw(st.booleans()):
        terms[(0,) * n] = draw(_printable_coefficients)
    return terms


def _seeded_printable_polynomials(count):
    """The shapes of `_draw_printable_terms` from a seeded generator: 1 to 12
    variables, exponents up to 13 or (in a third of the draws) up to 255, the
    most a key byte holds, at most 12 terms and often a constant."""
    rng = random.Random(4111)

    def coefficient():
        return rng.choice((1, -1)) * (1 if rng.random() < 0.5 else rng.randint(1, 10**6))

    for _ in range(count):
        n, top = rng.randint(1, 12), rng.choice((13, 13, 255))
        terms = {tuple(rng.randint(0, top) for _ in range(n)): coefficient()
                 for _ in range(rng.randint(0, 12))}
        if rng.random() < 0.5:
            terms[(0,) * n] = coefficient()
        yield Polynomial(n, terms)


def test_format_matches_reference():
    for f in _seeded_printable_polynomials(300):
        assert f.sorted_terms() == _reference_sorted_terms(f)
        assert str(f) == _reference_str(f)
        assert f.records("term") == _reference_records(f, "term")


@st.composite
def packed_born_pairs(draw):
    """(a polynomial born packed, its tuple-built twin), over 0 to 12 variables.

    Either the drawn terms handed over as packed keys, or d_i of a drawn f,
    which brings negative coefficients; its twin is the tuple definition.
    """
    n = draw(st.integers(0, 12))
    f = Polynomial(n, _draw_printable_terms(draw, n, 13))
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(1, n - 1))
        return divided_difference(i, f), Polynomial(n, _reference_divided_difference(i, f.terms))
    packed = {int.from_bytes(bytes(e), "little"): c for e, c in f.terms.items()}
    return Polynomial._from_packed(n, packed), f


@given(packed_born_pairs())
@settings(max_examples=150)
def test_packed_born_polynomials_print_as_their_twins(pair):
    born, twin = pair
    assert str(born) == str(twin) == _reference_str(twin)
    assert born.sorted_terms() == twin.sorted_terms() == _reference_sorted_terms(twin)
    assert born == twin and hash(born) == hash(twin)


def test_full_half_tables_print_as_unbounded_ones(monkeypatch):
    # a full table makes each new half on lookup and keeps none of them
    import zeroone.poly as poly_mod

    fs = [schubert_classic(parse_permutation(w)) for w in ("1473625", "2574163", "3162754")]
    unbounded = [(str(f), f.sorted_terms()) for f in fs]
    poly_mod._half_tables.cache_clear()
    monkeypatch.setattr(poly_mod, "_TABLE_CAP", 3)
    try:
        assert [(str(f), f.sorted_terms()) for f in fs] == unbounded
        assert [len(table) for table in poly_mod._half_tables(7, False)] == [3, 3]
    finally:
        poly_mod._half_tables.cache_clear()


def test_records_match_the_decoded_reference(schubert_table_5, schubert_table_6, monkeypatch):
    import zeroone.poly as poly_mod

    fs = [f for n in range(5) for _, f in schubert_all(n)]
    fs += [*schubert_table_5.values(), *schubert_table_6.values()]
    # nvars 0, 1 and 2 leave the low half without fields; zero has no record
    fs += [Polynomial(4, {}), Polynomial(0, {(): -3}), Polynomial(1, {(0,): -2, (255,): 1}),
           Polynomial(2, {(0, 12): 2, (1, 1): -1, (3, 0): 1})]
    expected = [_reference_records(f, "F_term") for f in fs]
    assert [f.records("F_term") for f in fs] == expected
    poly_mod._half_tables.cache_clear()
    monkeypatch.setattr(poly_mod, "_TABLE_CAP", 3)
    try:
        assert [f.records("F_term") for f in fs] == expected
        assert [len(table) for table in poly_mod._half_tables(6, True)] == [3, 3]
    finally:
        poly_mod._half_tables.cache_clear()


def test_width_takes_part_in_equality():
    # a key holds one byte per exponent, x1 lowest: packed 256 is x2, and x1^256 has no key
    with pytest.raises(ValueError, match="255"):
        Polynomial(1, {(256,): 1})
    f = Polynomial(2, {(255, 3): 1})
    born = Polynomial._from_packed(2, {255 + (3 << 8): 1})
    assert f == born and hash(f) == hash(born)
    narrow = Polynomial._from_packed(2, {256: 1})
    assert narrow == Polynomial(2, {(0, 1): 1}) and narrow.terms == {(0, 1): 1}
    assert f.terms == {(255, 3): 1}
    # the same packed dict over more variables is another polynomial
    assert Polynomial._from_packed(3, {256: 1}) != narrow
    # a sum whose other terms cancel is equal and hashed as a kernel result
    back = ring.sub(ring.add(f, narrow), f)
    assert back == narrow and hash(back) == hash(narrow)


def test_ring_operations_refuse_foreign_operands():
    f = Polynomial(2, {(1, 0): 1})
    # Polynomial carries no ring operators; the reference `ring` takes Polynomials and ints
    for op in (lambda: f + f, lambda: f * 2, lambda: 2 * f, lambda: f - f, lambda: -f,
               lambda: ring.scale(f, 2.5), lambda: ring.add(f, 1), lambda: ring.add(1, f),
               lambda: ring.sub(f, 1), lambda: ring.sub(1, f), lambda: ring.mul(f, "x")):
        with pytest.raises(TypeError):
            op()
    assert ring.scale(f, 2) == ring.add(f, f)


def _evaluate(f, point):
    return sum(c * prod(v**e for v, e in zip(point, es)) for es, c in f.terms.items())


@given(polynomials(max_terms=8), st.data())
def test_kernels_keep_terms_canonical(f, data):
    # (x1 - x2) * f and d_i of it cancel terms; no zero may survive
    g = data.draw(polynomials(min_vars=f.nvars, max_vars=f.nvars, max_terms=8))
    point = (2, 3, 5, 7, 11)[: f.nvars]  # the reference product, checked by evaluation
    assert _evaluate(ring.mul(f, g), point) == _evaluate(f, point) * _evaluate(g, point)
    i = data.draw(st.integers(1, f.nvars - 1))
    zeros = (0,) * (f.nvars - 2)
    diff = Polynomial(f.nvars, {(1, 0, *zeros): 1, (0, 1, *zeros): -1})
    for h in (divided_difference(i, f), divided_difference(i, ring.mul(f, diff)),
              demazure(i, ring.mul(f, diff))):
        assert 0 not in h.terms.values()
        assert all(len(e) == f.nvars for e in h.terms)
