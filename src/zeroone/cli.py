"""Command line interface.

One subcommand per computation, plain deterministic output, and stable exit
codes: 0 success, 1 invalid input, 2 internal assertion failure (a checked
equivalence or a filling lemma failed, which indicates a bug rather than bad
input).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import classify, orthodontia, perms, poly, tableaux, weyl

__all__ = ["main", "run"]


class _CliError(Exception):
    pass


class _HelpRequested(Exception):
    """`--help` was given; carries the help text for `run` to print."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)

    def print_help(self, file=None):
        # argparse would print to sys.stdout and then exit the process
        raise _HelpRequested(self.format_help())


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first `run` and reused for every later call."""
    parser = _Parser(prog="zeroone", description=__doc__)
    parser.add_argument("--structured", action="store_true",
                        help="emit polynomials as (exponent vector, coefficient) records")
    parser.add_argument("--checked", action="store_true",
                        help="abort loudly when equivalent predicates disagree")
    parser.add_argument("--limit", type=int, default=None,
                        help="override the module size limits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="Schubert polynomial of a permutation")
    p.add_argument("perm")
    p.add_argument("--method", choices=["classic", "orthodontia", "tableaux", "weyl"],
                   default="classic")
    p.set_defaults(run=_cmd_expand)

    p = sub.add_parser("orthodontia", help="orthodontic sequence (i, k, m)")
    p.add_argument("perm")
    p.add_argument("--trace", action="store_true", help="print the intermediate diagrams")
    p.set_defaults(run=_cmd_orthodontia)

    p = sub.add_parser("tableaux", help="tableau words of a permutation")
    p.add_argument("perm")
    p.add_argument("--stage", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="verify every word reads into its diagram as a valid filling")
    p.set_defaults(run=_cmd_tableaux)

    p = sub.add_parser("char", help="dual character of a diagram file")
    p.add_argument("diagram", help="path to a diagram file, or - for stdin")
    p.set_defaults(run=_cmd_char)

    p = sub.add_parser("dominance", help="coefficientwise dominance after a row/column deletion")
    p.add_argument("diagram", help="path to a diagram file, or - for stdin")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--col", type=int, required=True)
    p.add_argument("--show-remainder", action="store_true")
    p.set_defaults(run=_cmd_dominance)

    p = sub.add_parser("zero-one", help="is the Schubert polynomial zero-one?")
    p.add_argument("perm")
    p.add_argument("--all-methods", action="store_true",
                   help="also expand the polynomial (slower)")
    p.set_defaults(run=_cmd_zero_one)

    p = sub.add_parser("survey", help="classify all of S_n")
    p.add_argument("n", type=int)
    p.add_argument("--methods", choices=["fast", "all"], default="fast")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(run=_cmd_survey)
    return parser


def _format_tuple(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _print_poly(f: poly.Polynomial, out, structured: bool):
    if structured:
        out.write(f"nvars {f.nvars}\n" + f.records("term"))
    else:
        print(str(f), file=out)


def _read_diagram(source: str) -> perms.Diagram:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read diagram file {source}: {exc}") from exc
    return perms.parse_diagram(text)


def _cmd_expand(args, out) -> int:
    w = perms.parse_permutation(args.perm)
    if args.method == "classic":
        f = poly.schubert_classic(w)
    elif args.method == "orthodontia":
        f = orthodontia.schubert_orthodontic(w)
    elif args.method == "tableaux":
        f = tableaux.schubert_from_tableaux(w)
    else:
        f = weyl.dual_character(perms.rothe_diagram(w), limit=args.limit)
    _print_poly(f, out, args.structured)
    return 0


def _cmd_orthodontia(args, out) -> int:
    w = perms.parse_permutation(args.perm)
    trace = orthodontia.orthodontic_sequence(w)
    print(f"i {_format_tuple(trace.i)}", file=out)
    print(f"k {_format_tuple(trace.k)}", file=out)
    print(f"m {_format_tuple(trace.m)}", file=out)
    if args.trace:
        for r in range(trace.length + 1):
            print(f"stage {r}", file=out)
            print(str(trace.stage(r)), file=out)
    return 0


def _cmd_tableaux(args, out) -> int:
    trace = orthodontia.orthodontic_sequence(perms.parse_permutation(args.perm))
    words = sorted(tableaux.tableaux_stage(trace, args.stage))
    if args.check:
        tableaux.read_words_into_diagram(words, trace, args.stage)
    out.write("".join(perms.format_word(word) + "\n" for word in words))
    return 0


def _cmd_char(args, out) -> int:
    d = _read_diagram(args.diagram)
    f = weyl.dual_character(d, limit=args.limit)
    _print_poly(f, out, args.structured)
    return 0


def _cmd_dominance(args, out) -> int:
    d = _read_diagram(args.diagram)
    result = weyl.pattern_dominance_check(d, args.row, args.col, limit=args.limit)
    print(f"M {result.monomial}", file=out)
    print(f"ok {'true' if result.ok else 'false'}", file=out)
    if args.show_remainder:
        if args.structured:
            out.write(result.remainder.records("F_term"))
        else:
            print(f"F {result.remainder}", file=out)
    return 0


def _cmd_zero_one(args, out) -> int:
    w = perms.parse_permutation(args.perm)
    status = classify.zero_one_status(
        w, include_expansion=args.all_methods, checked=args.checked
    )
    verdict = status.verdict()
    print("true" if verdict else "false", file=out)
    if not verdict and status.witness is not None:
        print(f"witness {status.witness[0]}", file=out)
    if args.all_methods:
        print(f"by_patterns {'true' if status.by_patterns else 'false'}", file=out)
        print(f"by_configurations {'true' if status.by_configurations else 'false'}", file=out)
        print(f"by_multiplicity_free {'true' if status.by_multiplicity_free else 'false'}",
              file=out)
        print(f"by_expansion {'true' if status.by_expansion else 'false'}", file=out)
    return 0


def _cmd_survey(args, out) -> int:
    summary = classify.survey(
        args.n, methods=args.methods, workers=args.workers, limit=args.limit,
        checked=args.checked,
    )
    print(f"n {summary.n}", file=out)
    print(f"total {summary.total}", file=out)
    print(f"zero_one {summary.zero_one}", file=out)
    print(f"disagreements {summary.disagreements}", file=out)
    if summary.disagreements:
        print(f"disagreement {summary.disagreement}", file=out)
    return 0


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except _HelpRequested as exc:
        out.write(str(exc))
        return 0
    try:
        return args.run(args, out)
    except (tableaux.FillingError, AssertionError) as exc:
        print(f"internal-error: {exc}", file=err)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main(argv: list[str] | None = None) -> int:
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point fd 1 at devnull, so the interpreter's
        # own flush at exit finds nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
