#!/usr/bin/env python3
"""Check the pattern theorem on every occurrence of every pattern in S_1..S_N.

For each w in S_n and each increasing set of positions P (the empty and the
full set included, n! * 2^n pairs in all), asserts
`zeroone.schubert_pattern_inequality(w, P)`: S_w - M * S_sigma, with sigma
the pattern of w at P reindexed to the variables x_P and M the weight of the
boxes of D(w) outside rows P or columns w(P), has no negative coefficient.
Prints one line per n with the pair count; every failing pair is printed to
stderr, in the order of the transition walk, and the script exits 1.  The
test suite's criterion 10 covers S_1..S_6 (50362 pairs); this script takes
S_7 and up.

S_n is checked as the walk yields it, each S_sigma read from a table of
S_0..S_{n-1}.  Each S_w joins the table before its own check (P = [n] reads
it) and, at n = --max-n, leaves it after, so the last level is never held
whole.

Example:
    python scripts/pattern_dominance.py --max-n 6
    python scripts/pattern_dominance.py --max-n 7    # 645120 pairs at n = 7, 7 to 8.5 s
"""

import argparse
import sys
import time
from itertools import combinations

from zeroone.perms import Permutation
from zeroone.poly import _all_packed, _pattern_inequalities

TABLE = dict(_all_packed(0))  # packed S_w by one-line entries; main adds each S_w of S_n in turn


def position_sets(n):
    """Every increasing set of positions in [n], the empty and the full set included."""
    return [p for m in range(n + 1) for p in combinations(range(1, n + 1), m)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()

    failed = False
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        pairs = failures = 0
        sets = position_sets(n)
        for e, terms in _all_packed(n):
            TABLE[e] = terms
            w = Permutation(e)
            for positions, holds in zip(sets, _pattern_inequalities(w, sets, TABLE)):
                pairs += 1
                if not holds:
                    failures += 1
                    print(f"n={n}: fails at w={w} positions={positions}", file=sys.stderr)
            if n == args.max_n:
                del TABLE[e]
        dt = time.perf_counter() - t0
        print(f"n={n}: {pairs} occurrences, {failures} failures  ({dt:.2f}s)", flush=True)
        failed = failed or failures > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
