"""Command line interface.

One subcommand per computation, plain deterministic output, and stable exit
codes: 0 success, 1 invalid input, 2 internal assertion failure (a checked
equivalence or a filling lemma failed, which indicates a bug rather than bad
input).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import classify, orthodontia, perms, poly, tableaux, weyl

__all__ = ["main", "run"]


def _print_poly(f: poly.Polynomial, out, structured: bool):
    if structured:
        out.write(f"nvars {f.nvars}\n" + f.records("term"))
    else:
        print(str(f), file=out)


# The default size caps, which --limit replaces: a survey and the determinant
# route grow like n! or worse.  The library keeps only the guards that protect a
# computation (the n <= 255 byte bounds, weyl's field width and subdiagram count,
# the classic route's step cap), and no --limit lifts those.
_CAPS = {"diagram": 6, "survey": 9}


def _capped(kind: str, n: int, args) -> None:
    """Refuse size n past the cap of its kind, or past --limit when one is given."""
    cap = _CAPS[kind] if args.limit is None else args.limit
    if n > cap:
        raise ValueError(f"{kind} size {n} exceeds limit {cap}; raise it with --limit")


def _read_diagram(source: str) -> perms.Diagram:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "rb", buffering=0) as fh:
                text = fh.read().decode("utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read diagram file {source}: {exc}") from exc
    return perms.parse_diagram(text)


def _cmd_expand(args, out) -> None:
    """Schubert polynomial of a permutation"""
    w = perms.parse_permutation(args.perm)
    if args.method == "classic":
        f = poly.schubert_classic(w)
    elif args.method == "orthodontia":
        f = orthodontia.schubert_orthodontic(w)
    elif args.method == "tableaux":
        f = tableaux.schubert_from_tableaux(w)
    else:
        _capped("diagram", w.n, args)
        f = weyl.dual_character(perms.rothe_diagram(w))
    _print_poly(f, out, args.structured)


def _cmd_orthodontia(args, out) -> None:
    """orthodontic sequence (i, k, m); --trace prints the intermediate diagrams"""
    trace = orthodontia.orthodontic_sequence(perms.parse_permutation(args.perm))
    for name in ("i", "k", "m"):
        print(f"{name} ({','.join(map(str, getattr(trace, name)))})", file=out)
    if args.trace:
        for r in range(trace.length + 1):
            print(f"stage {r}", file=out)
            print(str(trace.stage(r)), file=out)


def _cmd_tableaux(args, out) -> None:
    """tableau words of a permutation; --check reads each into its diagram"""
    trace = orthodontia.orthodontic_sequence(perms.parse_permutation(args.perm))
    words = sorted(tableaux.tableaux_stage(trace, args.stage))
    if args.check:
        tableaux.read_words_into_diagram(words, trace, args.stage)
    out.write("".join(perms.format_word(word) + "\n" for word in words))


def _cmd_char(args, out) -> None:
    """dual character of a diagram file (a path, or - for stdin)"""
    d = _read_diagram(args.diagram)
    _capped("diagram", d.n, args)
    f = weyl.dual_character(d)
    _print_poly(f, out, args.structured)


def _cmd_dominance(args, out) -> None:
    """coefficientwise dominance after a row/column deletion"""
    d = _read_diagram(args.diagram)
    _capped("diagram", d.n, args)
    result = weyl.pattern_dominance_check(d, args.row, args.col)
    print(f"M {result.monomial}", file=out)
    print(f"ok {'true' if result.ok else 'false'}", file=out)
    if args.show_remainder:
        if args.structured:
            out.write(result.remainder.records("F_term"))
        else:
            print(f"F {result.remainder}", file=out)


def _cmd_zero_one(args, out) -> None:
    """is the Schubert polynomial zero-one? --all-methods also expands it"""
    w = perms.parse_permutation(args.perm)
    status = classify.zero_one_status(w, include_expansion=args.all_methods)
    if args.checked and not status.agree():
        raise AssertionError(f"zero-one predicates disagree for {w}: {status}")
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


def _cmd_survey(args, out) -> None:
    """classify all of S_n"""
    _capped("survey", args.n, args)
    summary = classify.survey(args.n, methods=args.methods, workers=args.workers)
    if args.checked and summary.disagreements:
        raise AssertionError(f"survey of S_{args.n}: the votes disagree on {summary.disagreements}"
                             f" permutations, first on {summary.disagreement}")
    for field in ("n", "total", "zero_one", "disagreements"):
        print(f"{field} {getattr(summary, field)}", file=out)
    if summary.disagreements:
        print(f"disagreement {summary.disagreement}", file=out)


# The grammar of a call: zeroone [global options] <command> [its arguments, in
# any order], each option as --name value or --name=value.  Each argument maps
# to what it reads: False a flag, a tuple one of its values (the first is the
# default), str or int a required text or integer, an int or None an integer
# with that default.  Names without dashes are positionals, read in order.
_GLOBALS = {"--structured": False, "--checked": False, "--limit": None, "command": str}
_COMMANDS = {
    "expand": (_cmd_expand, {"perm": str,
                             "--method": ("classic", "orthodontia", "tableaux", "weyl")}),
    "orthodontia": (_cmd_orthodontia, {"perm": str, "--trace": False}),
    "tableaux": (_cmd_tableaux, {"perm": str, "--stage": 0, "--check": False}),
    "char": (_cmd_char, {"diagram": str}),
    "dominance": (_cmd_dominance, {"diagram": str, "--row": int, "--col": int,
                                   "--show-remainder": False}),
    "zero-one": (_cmd_zero_one, {"perm": str, "--all-methods": False}),
    "survey": (_cmd_survey, {"n": int, "--methods": ("fast", "all"), "--workers": 1}),
}


def _is_value(word: str) -> bool:
    """Can `word` stand where a value goes?  `-` and negative numerals can."""
    return word[:1] != "-" or word == "-" or perms._is_numeral(word[1:])


def _read(name: str, spec, text: str):
    """`text` as argument `name`: one of its choices, as is, or an ASCII integer."""
    if isinstance(spec, tuple) and text not in spec:
        choices = ", ".join(map(repr, spec))
        raise ValueError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    if spec is str or isinstance(spec, tuple):
        return text
    if not perms._is_numeral(text.removeprefix("-")):
        raise ValueError(f"argument {name}: invalid int value: {text!r}")
    return int(text)


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The namespace of one call, read left to right, or the help text it asks for."""
    table, values, positionals, extras, words = _GLOBALS, {}, ["command"], [], iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return _help(values.get("command"))
        name, eq, text = word.partition("=")
        if name[:2] == "--" and name in table:
            spec = table[name]
            if spec is False and eq:
                raise ValueError(f"argument {name}: ignored explicit argument {text!r}")
            if spec is not False and not eq:
                text = next(words, "-h")  # the end of argv holds no value either
                if not _is_value(text):
                    raise ValueError(f"argument {name}: expected one argument")
            values[name] = spec is False or _read(name, spec, text)
        elif not positionals or not _is_value(word):
            extras.append(word)
        elif table is _GLOBALS:  # the command word: its own table from here on
            values["command"] = _read("command", tuple(_COMMANDS), word)
            table = _COMMANDS[word][1]
            positionals = [name for name in table if name[0] != "-"]
        else:
            name = positionals.pop(0)
            values[name] = _read(name, table[name], word)
    values = {**_GLOBALS, **table, **values}  # the defaults, overridden by what was given
    missing = ", ".join(name for name, value in values.items() if isinstance(value, type))
    if missing:
        raise ValueError(f"the following arguments are required: {missing}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**{
        name.lstrip("-").replace("-", "_"): value[0] if isinstance(value, tuple) else value
        for name, value in values.items()})


def _help(command: str | None) -> str:
    """The usage of the top level, or of one command, from the table."""
    handler, table = _COMMANDS.get(command, (None, _GLOBALS))
    words = ["usage: zeroone", *([command] if handler else []), "[-h]"]
    for name, spec in table.items():
        if name[0] == "-" and spec is not False:
            name += " " + (f"{{{','.join(spec)}}}" if isinstance(spec, tuple) else name[2:].upper())
        words.append(name if isinstance(spec, type) else f"[{name}]")
    if handler:
        rows = "".join(f"  {name}\n" for name in table if name[0] != "-")
        return " ".join(words) + f"\n\n{handler.__doc__}\n\npositional arguments:\n{rows}"
    rows = "".join(f"  {name:<13}{h.__doc__}\n" for name, (h, _) in _COMMANDS.items())
    return " ".join(words) + f" ...\n\n{__doc__}\npositional arguments:\n{rows}"


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the help text
            out.write(args)
            return 0
        _COMMANDS[args.command][0](args, out)
        return 0
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
