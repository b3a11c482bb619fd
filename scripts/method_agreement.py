#!/usr/bin/env python3
"""Cross-validate the expansion methods against each other, with timings.

Runs the transition walk over all of S_n (`schubert_all`, timed as "all")
and checks each w as the walk yields it against the per-query descent that
`expand` runs (`schubert_classic`), the operator formula, the tableau
expansion, and the determinant-rank character up to the requested size.  Any
disagreement is printed and the run exits nonzero.  A w whose diagram the
determinant route's guard refuses (`SizeLimitError`) is no disagreement: the
n line counts it.

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
from zeroone.weyl import SizeLimitError, dual_character


def weyl(w):
    """The dual character of D(w), or None where the determinant route refuses D(w)."""
    try:
        return dual_character(rothe_diagram(w))
    except SizeLimitError:
        return None


ROUTES = {
    "classic": schubert_classic,
    "orthodontia": schubert_orthodontic,
    "tableaux": schubert_from_tableaux,
    "weyl": weyl,
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
        count = refused = 0
        t0 = time.perf_counter()
        for w, f in schubert_all(n):
            count += 1
            for name, route in routes.items():
                t1 = time.perf_counter()
                g = route(w)
                times[name] += time.perf_counter() - t1
                if g is None:
                    refused += 1
                elif g != f:
                    failures += 1
                    print(f"{name} mismatch at {w}")
        times["all"] = time.perf_counter() - t0 - sum(times.values())
        report = "  ".join(f"{k}={v:.2f}s" for k, v in times.items())
        refusals = f", {refused} refused by weyl" if refused else ""
        print(f"n={n}: {count} permutations agree{refusals}  ({report})")
    if failures:
        print(f"{failures} disagreements")
        sys.exit(1)


if __name__ == "__main__":
    main()
