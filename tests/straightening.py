"""The straightening of an inversion diagram by its definition, the reference for the engine.

Columns are sets of rows, keeping their original index.  First every
interval column [j] = {1, ..., j} is emptied.  Then, while some column is
nonempty, the leftmost nonempty column gives the smallest missing tooth i
(row i absent, row i+1 present); rows i and i+1 are swapped in every column,
and the interval columns this creates are emptied.  The tests check
`zeroone.orthodontia._engine` and the survey's state table against this.
"""


def _is_interval(col):
    return bool(col) and col == set(range(1, len(col) + 1))


def emptied(cols):
    """The columns cols, every interval column emptied."""
    return [set() if _is_interval(col) else set(col) for col in cols]


def straighten(w):
    """[(letter, impact, stage)] for steps 0..l of the straightening of D(w).

    Step r >= 1 has the letter i_r, the impact (the columns holding a box in
    row i_r + 1 when rows i_r and i_r + 1 are swapped) and the stage (the
    columns right after that swap, before its interval columns are emptied).
    Step 0 is (0, frozenset(), D(w)).
    """
    n = w.n
    inv = w.inverse()
    cols = [{i for i in range(1, n + 1) if i < inv[j] and j < w[i]} for j in range(1, n + 1)]
    steps = [(0, frozenset(), tuple(map(frozenset, cols)))]
    cols = emptied(cols)
    while any(cols):
        first = next(col for col in cols if col)
        i = min(r for r in range(1, n) if r not in first and r + 1 in first)
        impact = frozenset(j for j, col in enumerate(cols, start=1) if i + 1 in col)
        cols = [{i + 1 if r == i else i if r == i + 1 else r for r in col} for col in cols]
        steps.append((i, impact, tuple(map(frozenset, cols))))
        cols = emptied(cols)
    return steps
