#!/usr/bin/env python3
"""Cross-validate the expansion methods against each other, with timings.

Runs the transition walk over all of S_n (`schubert_all`, timed as "all"),
then checks against it the per-query descent that `expand` runs
(`schubert_classic`), the operator formula, the tableau
expansion, and the determinant-rank character up to the requested size.  Any
disagreement is printed and the run exits nonzero.

Example:
    python scripts/method_agreement.py --max-n 6 --weyl-max-n 5
"""

import argparse
import sys
import time

from zeroone.orthodontia import schubert_orthodontic
from zeroone.perms import rothe_diagram
from zeroone.poly import schubert_all, schubert_classic
from zeroone.tableaux import schubert_from_tableaux
from zeroone.weyl import dual_character


ROUTES = {
    "classic": schubert_classic,
    "orthodontia": schubert_orthodontic,
    "tableaux": schubert_from_tableaux,
    "weyl": lambda w: dual_character(rothe_diagram(w)),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--weyl-max-n", type=int, default=5)
    args = parser.parse_args()

    failures = 0
    for n in range(1, args.max_n + 1):
        routes = dict(ROUTES)
        if n > args.weyl_max_n:
            del routes["weyl"]
        times = dict.fromkeys(["all", *routes], 0.0)
        t0 = time.perf_counter()
        table = dict(schubert_all(n))
        times["all"] = time.perf_counter() - t0
        for w, f in table.items():
            for name, route in routes.items():
                t0 = time.perf_counter()
                g = route(w)
                times[name] += time.perf_counter() - t0
                if g != f:
                    failures += 1
                    print(f"{name} mismatch at {w}")
        report = "  ".join(f"{k}={v:.2f}s" for k, v in times.items())
        print(f"n={n}: {len(table)} permutations agree  ({report})")
    if failures:
        print(f"{failures} disagreements")
        sys.exit(1)


if __name__ == "__main__":
    main()
