"""Diagram references the tests check the package against.

`delete_and_flatten` is the diagram of a one-step pattern by its lemma:
deleting position k of w removes row k and column w_k of D(w), and the
remaining rows and columns relabel order-preservingly into [n-1].  The
tests check `zeroone.perms.one_step_pattern` against it.

`delete_row_col` is D-hat in the full frame, `diagram_leq` the columnwise
order C <= D, and `has_northwest_property` the property every Rothe diagram
and every straightening stage has.
"""

from zeroone.perms import Diagram


def delete_and_flatten(d, k, l):
    """d without row k and column l, the other indices relabeled into [n-1]."""
    return Diagram(tuple(
        tuple(i if i < k else i - 1 for i in col if i != k)
        for j, col in enumerate(d.columns, start=1) if j != l
    ))


def delete_row_col(d, k, l):
    """d without the boxes in row k and column l, keeping the [n] x [n] frame."""
    return Diagram(tuple(
        () if j == l else tuple(i for i in col if i != k)
        for j, col in enumerate(d.columns, start=1)
    ))


def diagram_leq(c, d):
    """C <= D: in every column, equal sizes and the t-th least row of C at most that of D."""
    return c.n == d.n and all(
        len(cj) == len(dj) and all(a <= b for a, b in zip(cj, dj))
        for cj, dj in zip(c.columns, d.columns)
    )


def has_northwest_property(d):
    """True iff (r, c') and (r', c) in D with r < r', c < c' force (r, c) in D.

    Columnwise: whenever column c has a box strictly below some box of
    column c' > c, row r of column c' must appear in column c.
    """
    cols = [set(col) for col in d.columns]
    for c in range(d.n):
        for cp in range(c + 1, d.n):
            for r in cols[cp]:
                if r not in cols[c] and any(rp > r for rp in cols[c]):
                    return False
    return True
