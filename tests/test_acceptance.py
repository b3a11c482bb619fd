"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines and
timings.  Every tolerance here is exact equality; the two stated wall-clock
targets that are hard bounds (criterion 1) are asserted, the rest are
reported.
"""

import io
import time
from contextlib import contextmanager
from itertools import combinations, product

from zeroone.classify import (
    MULTIPLICITOUS_PATTERNS,
    avoids_multiplicitous,
    find_configuration,
    survey,
    zero_one_status,
)
from zeroone.cli import run
from zeroone.orthodontia import (
    is_multiplicity_free,
    orthodontic_sequence,
    schubert_orthodontic,
)
from zeroone.perms import (
    Permutation,
    all_permutations,
    one_step_pattern,
    rothe_diagram,
)
from zeroone.poly import _pattern_inequalities, is_zero_one, schubert_classic
from zeroone.tableaux import (
    read_words_into_diagram,
    root_operator,
    schubert_from_tableaux,
    tableaux_stage,
)
from zeroone.weyl import dual_character, pattern_dominance_check

import ring
from diagram_lemma import delete_row_col, has_northwest_property


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS  [{time.perf_counter() - start:.1f}s]")


def cli(*argv) -> str:
    out = io.StringIO()
    code = run(list(argv), out=out, err=io.StringIO())
    assert code == 0, f"CLI {argv} exited {code}"
    return out.getvalue()


def test_criterion_1_worked_examples():
    with criterion(1, "worked-example fidelity"):
        t0 = time.perf_counter()
        assert cli("orthodontia", "31542") == "i (2,3,1)\nk (1,0,0,0,0)\nm (0,1,1)\n"
        assert cli("expand", "31542") == (
            "x1^3*x2*x3 + x1^3*x2*x4 + x1^3*x3*x4 + x1^2*x2^2*x3 + x1^2*x2^2*x4"
            " + x1^2*x2*x3^2 + x1^2*x2*x3*x4 + x1^2*x3^2*x4\n"
        )
        assert cli("tableaux", "31542").splitlines() == [
            "11231", "11232", "11233", "11241", "11242", "11341", "11342", "11343",
        ]
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_root_operator():
    with criterion(2, "root-operator fidelity"):
        word = (3, 1, 2, 2, 2, 1, 3, 1, 2, 4, 3, 2, 4, 1, 3, 1)
        once = root_operator(1, word)
        assert once == (3, 1, 2, 2, 2, 1, 3, 1, 2, 4, 3, 2, 4, 2, 3, 1)
        twice = root_operator(1, once)
        assert twice == (3, 1, 2, 2, 2, 1, 3, 1, 2, 4, 3, 2, 4, 2, 3, 2)
        assert root_operator(1, twice) is None


def test_criterion_3_four_method_agreement(schubert_table_6, schubert_table_7):
    with criterion(3, "four-method agreement"):
        for entries, f in [*schubert_table_6.items(), *schubert_table_7.items()]:
            w = Permutation(entries)
            assert schubert_orthodontic(w) == f
            assert schubert_from_tableaux(w) == f
            assert dual_character(rothe_diagram(w)) == f


def test_criterion_4_equivalence_sweeps(schubert_table_7):
    with criterion(4, "zero-one equivalence sweeps"):
        # S_7 with expansion: the four public predicates per permutation
        for entries, f in schubert_table_7.items():
            w = Permutation(entries)
            votes = (
                is_zero_one(f),
                avoids_multiplicitous(w),
                find_configuration(w) is None,
                is_multiplicity_free(w),
            )
            assert all(votes) or not any(votes), (w, votes)
        # S_8, the three fast predicates (exhaustively matched against the
        # public ones on S_<=6 in test_classify)
        summary = survey(8, methods="fast")
        assert summary.total == 40320
        assert summary.disagreements == 0
        assert summary.zero_one == 19038  # regression pin, brute force


def test_criterion_5_pattern_coefficients(schubert_table_6):
    with criterion(5, "multiplicitous-pattern coefficients"):
        for p in MULTIPLICITOUS_PATTERNS:
            assert max(schubert_classic(p).terms.values()) == 2
        peak = max(max(f.terms.values()) for f in schubert_table_6.values())
        assert peak == 4  # regression pin, brute force over S_6


def test_criterion_6_schubert_dominance(schubert_packed):
    with criterion(6, "pattern dominance for Schubert polynomials over S_7"):
        sets = [tuple(p for p in range(1, 8) if p != k) for k in range(1, 8)]
        for w in all_permutations(7):
            for k, holds in enumerate(_pattern_inequalities(w, sets, schubert_packed), 1):
                assert holds, (w, k)


def test_criterion_7_diagram_dominance():
    with criterion(7, "diagram-level dominance with rank monotonicity over S_5"):
        for w in all_permutations(5):
            d = rothe_diagram(w)
            chi = dual_character(d).terms
            for k, l in product(range(1, 6), repeat=2):
                result = pattern_dominance_check(d, k, l)
                assert result.ok, (w, k, l)
                # groupwise rank monotonicity, recomputed from scratch
                chi_hat = dual_character(delete_row_col(d, k, l))
                m_exp = next(iter(result.monomial.terms))
                for e, c in ring.substitute_zero(k, chi_hat).terms.items():
                    shifted = tuple(a + b for a, b in zip(e, m_exp))
                    assert chi.get(shifted, 0) >= c, (w, k, l, e)


def test_criterion_8_filling_lemmas():
    with criterion(8, "filling lemmas for all stages over S_5"):
        total = 0
        for w in all_permutations(5):
            trace = orthodontic_sequence(w)
            for r in range(trace.length + 1):
                words = tableaux_stage(trace, r)
                assert has_northwest_property(trace.stage(r)), (w, r)
                read_words_into_diagram(words, trace, r)  # raises on a bad filling
                total += len(words)
        assert total >= 120  # every permutation contributes at least stage 0


def test_criterion_9_closure_and_minimality(schubert_table_5, schubert_table_6):
    with criterion(9, "pattern closure and minimality of the pattern list"):
        for entries, f in schubert_table_6.items():
            if not is_zero_one(f):
                continue
            w = Permutation(entries)
            for k in range(1, 7):
                sigma = one_step_pattern(w, k)
                assert is_zero_one(schubert_table_5[sigma.entries]), (w, k)
        for p in MULTIPLICITOUS_PATTERNS:
            for k in range(1, p.n + 1):
                sigma = one_step_pattern(p, k)
                assert is_zero_one(schubert_classic(sigma)), (p, k)
                status = zero_one_status(sigma)
                assert status.agree() and status.verdict()


def test_criterion_10_every_occurrence_dominance(schubert_packed):
    with criterion(10, "pattern dominance for every occurrence over S_1..S_6"):
        pairs = 0
        for n in range(1, 7):
            sets = [p for m in range(n + 1) for p in combinations(range(1, n + 1), m)]
            for w in all_permutations(n):
                for positions, holds in zip(sets, _pattern_inequalities(w, sets, schubert_packed)):
                    assert holds, (w, positions)
                    pairs += 1
        assert pairs == 50362  # sum of n! * 2^n; scripts/pattern_dominance.py takes S_7 and up
