"""Pattern containment by its definition, the reference for the matcher.

Every subsequence of each pattern length is ranked, in lexicographic order
of its index set, so the first index set found for a pattern is its least
realization.  `zeroone.perms.first_pattern` is swept against this.
"""

from functools import cache
from itertools import combinations

from zeroone.perms import all_permutations


def scan_patterns(entries, patterns):
    """{pattern: least realization (1-based)} for each of the patterns held by
    the one-line entries; a pattern longer than entries is never held."""
    ranked = {tuple(v - 1 for v in p): tuple(p) for p in patterns}  # 0-based ranks
    found = {}
    for m in sorted({len(r) for r in ranked}):
        for idxs in combinations(range(len(entries)), m):
            vals = [entries[i] for i in idxs]
            pattern = ranked.get(tuple(map(sorted(vals).index, vals)))
            if pattern is not None and pattern not in found:
                found[pattern] = tuple(i + 1 for i in idxs)
    return found


def scan_witness(w, patterns):
    """The first of patterns (Permutations) that w holds, with its least
    realization; None if w avoids them all."""
    found = scan_patterns(w.entries, [p.entries for p in patterns])
    return next(((p, found[p.entries]) for p in patterns if p.entries in found), None)


@cache
def scan_table(n, patterns):
    """{w: scan_witness(w, patterns)} over all of S_n, cached for the rest of the test run."""
    return {w: scan_witness(w, patterns) for w in all_permutations(n)}
