import pytest

from zeroone.poly import schubert_all


@pytest.fixture(scope="session")
def schubert_table_5():
    return {w.entries: f for w, f in schubert_all(5)}


@pytest.fixture(scope="session")
def schubert_table_6():
    return {w.entries: f for w, f in schubert_all(6)}


@pytest.fixture(scope="session")
def schubert_table_7():
    return {w.entries: f for w, f in schubert_all(7)}
