"""Ring arithmetic on tuple-keyed terms, the reference for the packed kernels.

`Polynomial` holds only what the routes use, so sums, products and the
substitutions the tests build their oracles from live here.  Each works on
the decoded `.terms`, exponent vector by exponent vector, and returns a
Polynomial over the same variables, zero coefficients dropped.
"""

from zeroone.poly import Polynomial


def _nvars(f, g):
    if not (isinstance(f, Polynomial) and isinstance(g, Polynomial)):
        raise TypeError("ring operations take two Polynomials")
    if f.nvars != g.nvars:
        raise ValueError("polynomials over different variable counts")
    return f.nvars


def add(f, g):
    n = _nvars(f, g)
    out = f.terms
    for e, c in g.terms.items():
        out[e] = out.get(e, 0) + c
    return Polynomial(n, out)


def scale(f, c):
    """c * f for an int c."""
    if not (isinstance(f, Polynomial) and isinstance(c, int)):
        raise TypeError("scale takes a Polynomial and an int")
    return Polynomial(f.nvars, {e: c * v for e, v in f.terms.items()})


def sub(f, g):
    return add(f, scale(g, -1))


def mul(f, g):
    n = _nvars(f, g)
    out = {}
    right = g.terms.items()
    for e1, c1 in f.terms.items():
        for e2, c2 in right:
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return Polynomial(n, out)


def swap(i, f):
    """s_i f: x_i and x_{i+1} exchanged."""
    return Polynomial(f.nvars, {e[: i - 1] + (e[i], e[i - 1]) + e[i + 1 :]: c
                                for e, c in f.terms.items()})


def substitute_zero(k, f):
    """f with x_k := 0: every term where x_k appears dropped."""
    return Polynomial(f.nvars, {e: c for e, c in f.terms.items() if e[k - 1] == 0})
