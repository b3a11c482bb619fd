import pytest

from zeroone.poly import Polynomial, _all_packed
from zeroone.weyl import _pattern_inequalities


@pytest.fixture(scope="session")
def schubert_packed():
    """Packed S_w for every w in S_0..S_7, keyed by one-line entries: the
    transition walk's packed fold, which shares no kernel with the classic and
    orthodontic routes checked against it."""
    return {e: terms for n in range(8) for e, terms in _all_packed(n)}


def _table(schubert_packed, n):
    """S_w as a Polynomial for every w in S_n, keyed by one-line entries."""
    return {e: Polynomial._from_packed(n, terms)
            for e, terms in schubert_packed.items() if len(e) == n}


@pytest.fixture(scope="session")
def schubert_table_5(schubert_packed):
    return _table(schubert_packed, 5)


@pytest.fixture(scope="session")
def schubert_table_6(schubert_packed):
    return _table(schubert_packed, 6)


@pytest.fixture(scope="session")
def schubert_table_7(schubert_packed):
    return _table(schubert_packed, 7)


@pytest.fixture(scope="session")
def pattern_inequalities(schubert_packed):
    """`schubert_pattern_inequality(w, P)` for each P of position_sets in turn,
    reading S_w and S_sigma from the table."""
    return lambda w, position_sets: _pattern_inequalities(w, position_sets,
                                                          lambda v: schubert_packed[v.entries])
