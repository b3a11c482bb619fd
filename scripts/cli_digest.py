#!/usr/bin/env python3
"""Digest the command line's output over a fixed grid of calls.

Runs `zeroone.cli.run` in process on a fixed grid of calls over S_0..S_max-n
and hashes the argument list, exit code, stdout and stderr of each call
into one SHA-256.  Two source trees whose digests match print the same bytes
on the whole grid.  The grid, per n from 0 to max-n:

* `survey n`, `survey n --methods all` and `--checked survey n`;

and per W:

* `tableaux W --stage R`, with and without `--check`, for every R from -1 to
  n*n // 2 + 1 (so every stage and the refusals on both sides);
* `orthodontia W --trace`;
* `expand W --method M` and `--structured expand W --method M` for each
  packed route (classic, orthodontia, tableaux);
* `--checked zero-one W --all-methods`;
* `char -`, `--structured char -`, `dominance - --row K --col W(K)
  --show-remainder` for every K, and `--structured dominance - --row K
  --col L --show-remainder` for every K and L in 1..n (so the minor diagram
  of a non-Rothe D-hat too), fed the inversion diagram of W on stdin.

The package is imported from the import path, so any tree can be digested:

    PYTHONPATH=src python scripts/cli_digest.py --max-n 6
"""

import argparse
import hashlib
import io
import sys

from zeroone.cli import run
from zeroone.perms import all_permutations, rothe_diagram


def grid(max_n):
    """Yield (argv, stdin text) for every call of the grid."""
    for n in range(0, max_n + 1):
        yield ["survey", str(n)], ""
        yield ["survey", str(n), "--methods", "all"], ""
        yield ["--checked", "survey", str(n)], ""
    for n in range(1, max_n + 1):
        for w in all_permutations(n):
            text = str(w)
            for r in range(-1, n * n // 2 + 2):
                yield ["tableaux", text, "--stage", str(r)], ""
                yield ["tableaux", text, "--stage", str(r), "--check"], ""
            yield ["orthodontia", text, "--trace"], ""
            for method in ("classic", "orthodontia", "tableaux"):
                yield ["expand", text, "--method", method], ""
                yield ["--structured", "expand", text, "--method", method], ""
            yield ["--checked", "zero-one", text, "--all-methods"], ""
            diagram = str(rothe_diagram(w)) + "\n"
            yield ["char", "-"], diagram
            yield ["--structured", "char", "-"], diagram
            for k, value in enumerate(w.entries, start=1):
                argv = ["dominance", "-", "--row", str(k), "--col", str(value), "--show-remainder"]
                yield argv, diagram
            for k in range(1, n + 1):
                for col in range(1, n + 1):
                    yield ["--structured", "dominance", "-", "--row", str(k), "--col", str(col),
                           "--show-remainder"], diagram


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()

    digest = hashlib.sha256()
    calls = 0
    stdin = sys.stdin
    try:
        for argv, text in grid(args.max_n):
            sys.stdin = io.StringIO(text)
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, out=out, err=err)
            digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
            calls += 1
    finally:
        sys.stdin = stdin
    print(f"calls {calls} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
