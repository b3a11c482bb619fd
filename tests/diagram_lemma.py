"""The diagram of a one-step pattern by its lemma, the reference for the flatten.

Deleting position k of w removes row k and column w_k of D(w), and the
remaining rows and columns relabel order-preservingly into [n-1].  The
tests check `zeroone.perms.one_step_pattern` against this.
"""

from zeroone.perms import Diagram


def delete_and_flatten(d, k, l):
    """d without row k and column l, the other indices relabeled into [n-1]."""
    return Diagram(tuple(
        tuple(i if i < k else i - 1 for i in col if i != k)
        for j, col in enumerate(d.columns, start=1) if j != l
    ))
