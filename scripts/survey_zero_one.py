#!/usr/bin/env python3
"""Sweep S_n for a range of n and tabulate the zero-one counts.

Every count is checked against the known zero-one counts of S_1..S_11; the
script exits 1 on a mismatch or on any disagreement between the voters.  The
last column is the peak resident set so far, in MB: the larger of this
process's and that of its largest finished worker.

Example:
    python scripts/survey_zero_one.py --max-n 7
    python scripts/survey_zero_one.py --max-n 7 --methods all --workers 2
    python scripts/survey_zero_one.py --max-n 10 --workers 2
"""

import argparse
import resource
import sys
import time

from zeroone.classify import survey

# Zero-one counts of S_1..S_11 (Fink-Meszaros-St. Dizier give S_7 and S_8;
# S_11 took about 12 min with 2 workers and 0 disagreements).
KNOWN_ZERO_ONE = {1: 1, 2: 2, 3: 6, 4: 24, 5: 115, 6: 605, 7: 3343, 8: 19038,
                  9: 110809, 10: 656200, 11: 3941742}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--methods", choices=["fast", "all"], default="fast")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    print(f"{'n':>3} {'total':>9} {'zero-one':>9} {'disagree':>9} {'seconds':>8} {'peak-MB':>8}")
    failed = False
    for n in range(args.min_n, args.max_n + 1):
        t0 = time.perf_counter()
        summary = survey(n, methods=args.methods, workers=args.workers)
        dt = time.perf_counter() - t0
        peak = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
        print(f"{n:>3} {summary.total:>9} {summary.zero_one:>9} "
              f"{summary.disagreements:>9} {dt:>8.2f} {peak:>8.1f}", flush=True)
        known = KNOWN_ZERO_ONE.get(n)
        if known is not None and summary.zero_one != known:
            print(f"n={n}: zero-one count {summary.zero_one}, known {known}", file=sys.stderr)
            failed = True
        if summary.disagreements:
            first = "" if summary.disagreement is None else f", first {summary.disagreement}"
            print(f"n={n}: {summary.disagreements} disagreements{first}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
