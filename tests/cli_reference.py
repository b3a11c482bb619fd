"""The command line's argparse parser, the reference for its table.

`zeroone.cli` reads a call with one table in one left-to-right pass.  This is
the argparse parser that table replaced, kept as it was, so the tests can
check that both read every call of the old grammar alike.
"""

import argparse
import functools

from zeroone.cli import (_cmd_char, _cmd_dominance, _cmd_expand, _cmd_orthodontia,
                         _cmd_survey, _cmd_tableaux, _cmd_zero_one)


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
