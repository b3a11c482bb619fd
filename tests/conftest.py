import pytest

from zeroone.poly import Polynomial, _all_packed, schubert_all
from zeroone.weyl import _pattern_inequalities


@pytest.fixture(scope="session")
def schubert_table_5():
    return {w.entries: f for w, f in schubert_all(5)}


@pytest.fixture(scope="session")
def schubert_table_6():
    return {w.entries: f for w, f in schubert_all(6)}


@pytest.fixture(scope="session")
def schubert_packed():
    """Packed S_w for every w in S_0..S_7, keyed by one-line entries."""
    return {e: terms for n in range(8) for e, terms in _all_packed(n)}


@pytest.fixture(scope="session")
def schubert_table_7(schubert_packed):
    return {e: Polynomial._from_packed(7, terms)
            for e, terms in schubert_packed.items() if len(e) == 7}


@pytest.fixture(scope="session")
def pattern_inequalities(schubert_packed):
    """`schubert_pattern_inequality(w, P)` for each P of position_sets in turn,
    reading S_w and S_sigma from the table."""
    return lambda w, position_sets: _pattern_inequalities(w, position_sets,
                                                          lambda v: schubert_packed[v.entries])
