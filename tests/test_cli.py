"""Exit codes, output formats, and determinism of the command line."""

import io
import itertools
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cli_reference
from zeroone import classify, cli, perms
from zeroone.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


EXPAND_31542 = (
    "x1^3*x2*x3 + x1^3*x2*x4 + x1^3*x3*x4 + x1^2*x2^2*x3 + x1^2*x2^2*x4"
    " + x1^2*x2*x3^2 + x1^2*x2*x3*x4 + x1^2*x3^2*x4\n"
)


def test_expand_plain():
    code, out, err = invoke("expand", "31542")
    assert code == 0 and err == ""
    assert out == EXPAND_31542


def test_expand_identity():
    assert invoke("expand", "1")[1] == "1\n"


def test_expand_comma_notation():
    code, out, _ = invoke("expand", "2,1,3,4,5,6,7,8,9,10")
    assert code == 0
    assert out == "x1\n"


@pytest.mark.parametrize("method", ["classic", "orthodontia", "tableaux", "weyl"])
def test_expand_methods_agree(method):
    code, out, _ = invoke("expand", "31542", "--method", method)
    assert code == 0
    assert out == EXPAND_31542


def test_expand_structured():
    code, out, _ = invoke("--structured", "expand", "321")
    assert code == 0
    assert out == "nvars 3\nterm 2,1,0 1\n"


def test_orthodontia_output():
    code, out, _ = invoke("orthodontia", "31542")
    assert code == 0
    assert out == "i (2,3,1)\nk (1,0,0,0,0)\nm (0,1,1)\n"


def test_orthodontia_trace():
    code, out, _ = invoke("orthodontia", "31542", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "stage 0"
    assert lines[4:9] == ["1: 1", "2: 1 3 4", "3:", "4: 3", "5:"]
    assert "stage 3" in lines


def test_tableaux_output():
    code, out, _ = invoke("tableaux", "31542")
    assert code == 0
    assert out.splitlines() == [
        "11231", "11232", "11233", "11241", "11242", "11341", "11342", "11343",
    ]


def test_tableaux_stage_and_check():
    code, out, _ = invoke("tableaux", "31542", "--stage", "2", "--check")
    assert code == 0
    assert out.splitlines() == ["1231", "1232"]
    code, _, err = invoke("tableaux", "31542", "--stage", "9")
    assert code == 1 and err.startswith("error:")
    # 31542 has stages 0..3; the bounds on both sides are refused alike
    for stage in ("4", "-1"):
        for check in ([], ["--check"]):
            assert invoke("tableaux", "31542", "--stage", stage, *check) == (
                1, "", f"error: stage {stage} out of range 0..3\n"
            )
    assert invoke("tableaux", "31542", "--stage", "3", "--check") == (0, "1\n", "")


def test_orthodontia_refuses_sizes_beyond_a_byte():
    # the routes that read the trace pack rows into bytes
    code, out, err = invoke("orthodontia", ",".join(map(str, range(1, 257))))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "255" in err
    k = ",".join(["0"] * 255)
    identity = ",".join(map(str, range(1, 256)))
    assert invoke("orthodontia", identity) == (0, f"i ()\nk ({k})\nm ()\n", "")


def test_tableaux_route_refuses_sizes_beyond_a_byte():
    big = ",".join(map(str, range(1, 257)))
    for argv in (["expand", big, "--method", "tableaux"], ["tableaux", big]):
        code, out, err = invoke(*argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "255" in err
    edge = ",".join(map(str, range(1, 256)))
    assert invoke("expand", edge, "--method", "tableaux") == (0, "1\n", "")
    assert invoke("tableaux", edge) == (0, "\n", "")


def test_divided_difference_routes_refuse_sizes_beyond_a_byte():
    w0 = ",".join(map(str, range(255, 0, -1)))
    classic, ortho = (invoke("expand", w0, "--method", m) for m in ("classic", "orthodontia"))
    assert classic == ortho
    assert classic[0] == 0 and classic[1].startswith("x1^254*x2^253*") and classic[2] == ""
    big = ",".join(map(str, range(256, 0, -1)))
    for argv in (["expand", big, "--method", "classic"],
                 ["expand", big, "--method", "orthodontia"],
                 ["--checked", "zero-one", big, "--all-methods"]):
        code, out, err = invoke(*argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "255" in err


def test_zero_one_refuses_sizes_beyond_a_byte():
    # the multiplicity-free vote walks for seconds on a random w in S_700
    code, out, err = invoke("zero-one", ",".join(map(str, range(1, 257))))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "255" in err
    assert invoke("zero-one", ",".join(map(str, range(1, 256)))) == (0, "true\n", "")


def test_zero_one_refuses_before_any_scan(monkeypatch):
    # the votes that refuse n > 255 run first, so neither scan sees a refused w
    import zeroone.classify as classify_mod

    def scan(*args):
        raise AssertionError("a scan ran on a refused permutation")

    monkeypatch.setattr(classify_mod, "witness_pattern", scan)
    monkeypatch.setattr(classify_mod, "has_configuration", scan)
    big = ",".join(map(str, range(1, 257)))
    for argv in (["zero-one", big], ["--checked", "zero-one", big, "--all-methods"]):
        code, out, err = invoke(*argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "255" in err


def test_char_and_dominance(tmp_path):
    path = tmp_path / "diagram.txt"
    path.write_text("1: 1\n2: 1 3 4\n3:\n4: 3\n5:\n")
    code, out, _ = invoke("char", str(path))
    assert code == 0
    assert out == EXPAND_31542
    code, out, _ = invoke("dominance", str(path), "--row", "3", "--col", "5",
                          "--show-remainder")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "M x3^2"
    assert lines[1] == "ok true"
    assert lines[2].startswith("F ")


def test_char_refuses_non_ascii_digits(tmp_path):
    path = tmp_path / "diagram.txt"
    path.write_text("\u0661: \u0661\n", encoding="utf-8")  # Arabic-Indic one
    code, out, err = invoke("char", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("text, message", [
    ("1: \u0663", "bad row indices in line '1: \u0663'"),  # Arabic-Indic three
    ("1: 1,2", "bad row indices in line '1: 1,2'"),
    ("1: a", "bad row indices in line '1: a'"),
    ("1: 1\n2: 2 \u00b2 3", "bad row indices in line '2: 2 \u00b2 3'"),
    ("1: 1\n\u0662: 1", "expected column label 2 in line '\u0662: 1'"),
])
def test_bad_diagram_text_refused(text, message):
    with mock.patch("sys.stdin", io.StringIO(text + "\n")):
        assert invoke("char", "-") == (1, "", f"error: {message}\n")


def test_char_missing_file():
    code, _, err = invoke("char", "/nonexistent/diagram.txt")
    assert code == 1 and err.startswith("error:")


def test_diagram_file_prints_what_stdin_prints(tmp_path):
    # cli_digest.py feeds every diagram on stdin; a path is read as bytes instead
    text = "\r\n1: 1\r\n2: 4 3 1 3\n\n3:\n04: 3\r5\n"
    path = tmp_path / "diagram.txt"
    path.write_bytes(text.encode("utf-8"))
    for argv in (["char"], ["--structured", "char"], ["--structured", "dominance", "--row", "3",
                                                    "--col", "5", "--show-remainder"]):
        with mock.patch("sys.stdin", io.StringIO(text)):
            from_stdin = invoke(*argv, "-")
        assert from_stdin[0] == 0 and invoke(*argv, str(path)) == from_stdin, argv


@pytest.mark.parametrize("name, data, message", [
    ("missing.txt", None,
     "cannot read diagram file {path}: [Errno 2] No such file or directory: '{path}'"),
    ("folder", "dir", "cannot read diagram file {path}: [Errno 21] Is a directory: '{path}'"),
    ("bad.txt", b"1: 1\n\xff\n",
     "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
    # past the first 8 KiB buffer, the position still counts from the start of the file
    ("long.txt", b"1:\n" + b" " * 9000 + b"\xff\n",
     "'utf-8' codec can't decode byte 0xff in position 9003: invalid start byte"),
    ("cut.txt", b"1:" + b" 1" * 5000 + b"\n\xe2\x82\n",
     "'utf-8' codec can't decode bytes in position 10003-10004: invalid continuation byte"),
    # a byte order mark is kept, as text, in the first label
    ("bom.txt", b"\xef\xbb\xbf1: 1\n", "expected column label 1 in line '\\ufeff1: 1'"),
])
def test_refused_diagram_file(tmp_path, name, data, message):
    path = tmp_path / name
    if data == "dir":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    assert invoke("char", str(path)) == (1, "", f"error: {message.format(path=path)}\n")


def test_char_limit():
    text = "\n".join(f"{j}:" for j in range(1, 8)) + "\n"
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        code, _, err = invoke("char", path)
        assert code == 1 and "limit" in err
        code, out, _ = invoke("--limit", "7", "char", path)
        assert code == 0 and out == "1\n"
    finally:
        os.unlink(path)


def test_capped_commands_name_their_limit(tmp_path, monkeypatch):
    # the command line caps a survey at n = 8 and the determinant route at n = 6,
    # before any other rule of the command; --limit replaces the cap
    path = tmp_path / "seven.txt"
    path.write_text(str(perms.rothe_diagram(perms.parse_permutation("2143657"))))
    diagram, survey = "diagram size 7 exceeds limit 6", "survey size {} exceeds limit 8"
    for argv, message in [
        (["survey", "9"], survey.format(9)),
        (["survey", "9", "--methods", "all"], survey.format(9)),
        (["survey", "300"], survey.format(300)),
        (["char", str(path)], diagram),
        (["dominance", str(path), "--row", "1", "--col", "2"], diagram),
        (["dominance", str(path), "--row", "0", "--col", "2"], diagram),
        (["expand", "2143657", "--method", "weyl"], diagram),
    ]:
        assert invoke(*argv) == (1, "", f"error: {message}; raise it with --limit\n"), argv
    expanded = invoke("expand", "2143657")
    assert invoke("--limit", "7", "expand", "2143657", "--method", "weyl") == expanded
    assert invoke("--limit", "7", "char", str(path)) == expanded
    assert invoke("--limit", "7", "dominance", str(path), "--row", "1", "--col", "2") == (
        0, "M x1\nok true\n", "")
    # an S_9 survey takes seconds: the library's call stands in, to show it is reached
    calls = []

    def survey_9(n, methods, workers, checked):
        calls.append(methods)
        return classify.SurveySummary(n, 362880, 110809, 0, None)

    monkeypatch.setattr(classify, "survey", survey_9)
    for methods in ("fast", "all"):
        assert invoke("--limit", "9", "survey", "9", "--methods", methods) == (
            0, "n 9\ntotal 362880\nzero_one 110809\ndisagreements 0\n", "")
    assert calls == ["fast", "all"]


def test_char_skips_zero_minors(tmp_path):
    # one column {1..40}: Laplace expansion meets 2^40 zero minors unless it prunes them
    path = tmp_path / "column.txt"
    path.write_text("1: " + " ".join(str(i) for i in range(1, 41)) + "\n"
                    + "".join(f"{j}:\n" for j in range(2, 41)))
    code, out, err = invoke("--limit", "40", "char", str(path))
    assert (code, out, err) == (0, "*".join(f"x{i}" for i in range(1, 41)) + "\n", "")


def test_determinant_cost_guard(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"{j}: 4 5 6\n" for j in range(1, 7)))
    code, out, err = invoke("char", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "64000000 subdiagrams" in err


def test_char_builds_only_the_choices(tmp_path):
    # one column {1..15, 40} in frame 40 has 25 subdiagrams, but C(40, 16) row sets of
    # its size: the column's minors are grown choice by choice, never filtered from those
    path = tmp_path / "tall.txt"
    path.write_text(str(perms.Diagram(((*range(1, 16), 40),) + ((),) * 39)))
    code, out, err = invoke("--limit", "40", "char", str(path))
    head = "*".join(f"x{i}" for i in range(1, 16))
    assert (code, err) == (0, "")
    assert out == " + ".join(f"{head}*x{r}" for r in range(16, 41)) + "\n"


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: zeroone [-h]"),
    (["expand", "--help"], "usage: zeroone expand [-h]"),
    *[([cmd, "--help"], f"usage: zeroone {cmd} [-h]")
      for cmd in ("orthodontia", "tableaux", "char", "dominance", "zero-one", "survey")],
])
def test_help_written_to_out(argv, usage, capsys):
    code, out, err = invoke(*argv)
    assert code == 0 and err == ""
    assert out.startswith(usage) and "positional arguments" in out
    assert capsys.readouterr() == ("", "")
    assert invoke("expand", "31542") == (0, EXPAND_31542, "")


def test_zero_one_output():
    code, out, _ = invoke("zero-one", "31542")
    assert code == 0 and out == "true\n"
    code, out, _ = invoke("zero-one", "12543", "--all-methods")
    assert code == 0
    assert out.splitlines() == [
        "false",
        "witness 12543",
        "by_patterns false",
        "by_configurations false",
        "by_multiplicity_free false",
        "by_expansion false",
    ]


def test_zero_one_checked_mode_passes():
    code, out, _ = invoke("--checked", "zero-one", "21543", "--all-methods")
    assert code == 0
    assert out.splitlines()[0] == "false"


def test_checked_disagreement_exits_2(monkeypatch):
    import zeroone.classify as classify_mod

    # a forged witness makes the pattern vote "not zero-one"
    monkeypatch.setattr(classify_mod, "witness_pattern", lambda w: (w, (1, 2, 3, 4)))
    code, _, err = invoke("--checked", "zero-one", "1234")
    assert code == 2
    assert err.startswith("internal-error:")


def test_survey_output():
    code, out, _ = invoke("survey", "5")
    assert code == 0
    assert out == "n 5\ntotal 120\nzero_one 115\ndisagreements 0\n"
    code, _, err = invoke("survey", "9")
    assert code == 1 and "limit" in err
    for argv in (["survey", "-1"], ["survey", "-1", "--methods", "all"]):
        code, out, err = invoke(*argv)
        assert code == 1 and out == ""
        assert err == "error: survey size must be nonnegative\n"
    for argv in (["survey", "5", "--workers", "0"], ["survey", "5", "--workers", "-4"]):
        code, out, err = invoke(*argv)
        assert code == 1 and out == ""
        assert err == "error: survey workers must be positive\n"


@pytest.mark.parametrize("methods", ["fast", "all"])
def test_survey_names_a_disagreement(methods, monkeypatch):
    import zeroone.classify as classify_mod

    real = classify_mod._survey_votes

    def flip(*args):  # a wrong configuration vote on 13254 only
        for e, (pattern, configuration, multfree) in real(*args):
            yield e, (pattern, configuration != (tuple(e) == (1, 3, 2, 5, 4)), multfree)

    monkeypatch.setattr(classify_mod, "_survey_votes", flip)
    report = "n 5\ntotal 120\nzero_one 115\ndisagreements 1\ndisagreement 13254\n"
    assert invoke("survey", "5", "--methods", methods) == (0, report, "")
    code, out, err = invoke("--checked", "survey", "5", "--methods", methods)
    assert code == 2 and out == ""
    assert err.startswith("internal-error:") and "13254" in err


@pytest.mark.parametrize("argv", [
    ["survey", "1_0"], ["survey", " 3"], ["survey", "+3"], ["survey", "\u0663"],
    ["tableaux", "21", "--stage", "\u0661"], ["tableaux", "21", "--stage=+1"],
    ["--limit", "1_0", "survey", "3"], ["survey", "3", "--workers", "1 "],
    ["dominance", "-", "--row", "1", "--col", "-\u0661"],
])
def test_integer_arguments_are_ascii_numerals(argv):
    # an optional - and ASCII digits, the rule of permutation text and diagram files
    code, out, err = invoke(*argv)
    assert code == 1 and out == "" and err.startswith("error:")


def test_integer_errors_name_the_argument():
    assert invoke("survey", "1_0") == (1, "", "error: argument n: invalid int value: '1_0'\n")
    assert invoke("tableaux", "21", "--stage=+1") == (
        1, "", "error: argument --stage: invalid int value: '+1'\n")


def test_invalid_input_exit_codes():
    assert invoke("expand", "3154")[0] == 1
    assert invoke("expand", "31542", "--bogus")[0] == 1
    assert invoke("expand", "notaperm")[0] == 1
    assert invoke("expand", "31542", "--method", "bogus") == (1, "", (
        "error: argument --method: invalid choice: 'bogus'"
        " (choose from 'classic', 'orthodontia', 'tableaux', 'weyl')\n"))
    # the global options go before the command word
    assert invoke("zero-one", "12543", "--checked") == (
        1, "", "error: unrecognized arguments: --checked\n")


@pytest.mark.parametrize("text", [
    "1,,2", "\u00b21", "+2,1", "2,1_0,3,4,5,6,7,8,9,10", "1,2,", "1,-2", "1,\u0662", "3 1",
])
def test_bad_permutation_text_refused(text):
    # every field, stripped of spaces, must be nonempty ASCII digits
    stripped = text.strip()
    assert invoke("expand", text) == (1, "", f"error: bad permutation text: {stripped!r}\n")


def test_spaced_permutation_text_accepted():
    assert invoke("expand", " 2, 1") == invoke("expand", "21") == (0, "x1\n", "")
    assert invoke("zero-one", "1, 2,5 ,4,3 ")[1] == "false\nwitness 12543\n"


def test_parser_reused_without_leaking_flags(tmp_path):
    small = tmp_path / "small.txt"
    small.write_text("1: 1\n2: 1 3 4\n3:\n4: 3\n5:\n")
    empty7 = tmp_path / "empty7.txt"
    empty7.write_text("".join(f"{j}:\n" for j in range(1, 8)))
    code, out, _ = invoke("--structured", "char", str(small))
    assert code == 0 and out.startswith("nvars 5\nterm ")
    assert invoke("expand", "31542") == (0, EXPAND_31542, "")
    assert invoke("--limit", "7", "char", str(empty7)) == (0, "1\n", "")
    code, _, err = invoke("char", str(empty7))
    assert code == 1 and "limit" in err
    code, out, _ = invoke("dominance", str(small), "--row", "3", "--col", "5", "--show-remainder")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = invoke("dominance", str(small), "--row", "3", "--col", "5")
    assert code == 0 and out.splitlines() == ["M x3^2", "ok true"]
    code, out, err = invoke("expand", "31542", "--bogus")
    assert code == 1 and out == "" and err.startswith("error:")
    assert invoke("expand", "31542") == (0, EXPAND_31542, "")


def test_cli_start_leaves_argparse_unimported():
    # the table parser needs neither; their cold import costs about 3.6 ms per process
    probe = "import sys, zeroone.cli; print('argparse' in sys.modules, 'gettext' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False False\n"


def test_cli_start_leaves_the_process_pool_unimported():
    # only a survey with a pool imports concurrent.futures, with its multiprocessing
    probe = "import sys, zeroone.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_deep_descent_ends_cleanly():
    # identity of S_40: 780 divided-difference steps from w_0, within the bound of 990
    assert invoke("expand", ",".join(str(i) for i in range(1, 41))) == (0, "1\n", "")
    code, out, err = invoke("expand", ",".join(str(i) for i in range(1, 47)))  # 1035 steps
    assert code == 1 and out == ""
    assert err.startswith("error:")
    # identity of S_45: exactly 990 steps, answered from a fresh interpreter too
    proc = subprocess.run(
        [sys.executable, "-m", "zeroone.cli", "expand", ",".join(str(i) for i in range(1, 46))],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
    # this random w in S_100 is 2682 steps from w_0: refused before any step
    entries = list(range(1, 101))
    random.Random(18).shuffle(entries)
    start = time.perf_counter()
    code, out, err = invoke("expand", ",".join(map(str, entries)))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and err.startswith("error:")


def test_zero_one_on_a_long_increasing_run():
    # 12 * C(46, 5 or 6) subsequences would take about a minute to rank one by one;
    # the matcher drops prefixes that cannot be completed and ends well under a second
    identity = ",".join(str(i) for i in range(1, 47))
    assert invoke("zero-one", identity) == (0, "true\n", "")


@pytest.mark.parametrize("blocks", [
    [range(51, 101), range(1, 51)],  # 21[id, id]
    [range(50, 0, -1), range(51, 101)],  # 12[w_0, id]
    [range(75, 50, -1), range(25, 0, -1), range(26, 51), range(76, 101)],  # 3124[w_0, w_0, id, id]
])
def test_zero_one_on_layered_avoiders_of_S_100(blocks):
    # avoiders whose dead-end prefixes grow like n^4 or n^5 unless the matcher looks ahead
    # at every placed interval and learns from failed siblings
    text = ",".join(str(v) for block in blocks for v in block)
    assert invoke("zero-one", text) == (0, "true\n", "")


# Fuzz grammar: every subcommand, well-formed and malformed arguments, sizes
# n <= 6, --limit <= 6, survey only for n <= 5, never more than one worker.
_perm_text = st.one_of(
    st.integers(1, 6)
    .flatmap(lambda n: st.tuples(st.permutations(range(1, n + 1)), st.booleans()))
    .map(lambda t: ("," if t[1] else "").join(str(v) for v in t[0])),
    st.text(alphabet="0123456789,-x ", max_size=6),
)


@st.composite
def _diagram_text(draw):
    n = draw(st.integers(1, 6))
    row = st.integers(-2, n + 1).map(lambda i: "x" if i == -2 else str(i))
    boxes = draw(st.lists(st.tuples(row, st.integers(1, n)), max_size=5))
    rows = [[] for _ in range(n)]
    for i, j in boxes:
        rows[j - 1].append(i)
    return "".join(f"{j}: {' '.join(col)}\n" for j, col in enumerate(rows, start=1))


_stdin_text = st.one_of(
    _diagram_text(),
    _diagram_text(),
    st.text(alphabet="0123456789: -\n\u0661\u00b2", max_size=24),
)
_source = st.sampled_from(["-", "-", "-", "/nonexistent/diagram.txt"])
_small = st.sampled_from([1, 1, 2, 2, 3, 3, 4, 5, 6, 0, -1, 7, 8]).map(str)


def _flag(name, values, absent=1, present=1):
    """[] or [name, value], in the ratio absent : present."""
    return st.sampled_from([False] * absent + [True] * present).flatmap(
        lambda on: values.map(lambda v: [name, v]) if on else st.just([])
    )


@st.composite
def _cli_case(draw):
    argv = draw(st.lists(st.sampled_from(["--structured", "--checked"]), unique=True))
    argv += draw(_flag("--limit", st.integers(-2, 6).map(str), absent=3))
    command = draw(st.sampled_from(
        ["expand", "orthodontia", "tableaux", "char", "dominance", "zero-one", "survey"]
    ))
    argv.append(command)
    if command == "expand":
        argv.append(draw(_perm_text))
        argv += draw(_flag("--method", st.sampled_from(
            ["classic", "orthodontia", "tableaux", "weyl", "bogus"])))
    elif command == "orthodontia":
        argv.append(draw(_perm_text))
        argv += draw(st.sampled_from([[], ["--trace"]]))
    elif command == "tableaux":
        argv.append(draw(_perm_text))
        argv += draw(_flag("--stage", _small))
        argv += draw(st.sampled_from([[], ["--check"]]))
    elif command == "char":
        argv.append(draw(_source))
    elif command == "dominance":
        argv.append(draw(_source))
        argv += draw(_flag("--row", _small, present=5)) + draw(_flag("--col", _small, present=5))
        argv += draw(st.sampled_from([[], ["--show-remainder"]]))
    elif command == "zero-one":
        argv.append(draw(_perm_text))
        argv += draw(st.sampled_from([[], ["--all-methods"]]))
    else:
        argv.append(str(draw(st.integers(-2, 5))))
        argv += draw(_flag("--methods", st.sampled_from(["fast", "all", "some"])))
        argv += draw(_flag("--workers", st.integers(-1, 1).map(str)))
    argv += draw(st.sampled_from([[]] * 5 + [
        ["--bogus"], ["7"], ["--stage"], ["--row"], ["--method"], ["--method=weyl"], ["-h"],
        ["--"], ["--structured"], ["--struct"], ["--stage", "1_0"],
    ]))
    return argv, draw(_stdin_text)


@settings(max_examples=200, deadline=None)
@given(_cli_case())
def test_fuzz_run_ends_with_exit_code(case):
    argv, stdin_text = case
    with mock.patch("sys.stdin", io.StringIO(stdin_text)):
        code, out, err = invoke(*argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("error:")
    # the table refuses what argparse refused, and more only by a documented narrowing
    ours, theirs = _table(argv), _reference(argv)
    if ours != theirs:
        assert ours == ("error",) and _narrowed(argv), (argv, ours, theirs)


def _reference(argv):
    """("ok", namespace fields), ("help",) or ("error",): argparse's reading of argv."""
    try:
        fields = vars(cli_reference._build_parser().parse_args(argv))
    except cli_reference._CliError:
        return ("error",)
    except cli_reference._HelpRequested:
        return ("help",)
    assert cli._COMMANDS[fields["command"]][0] is fields.pop("run")
    return ("ok", fields)


def _table(argv):
    """The table's reading of argv, in the form of `_reference`."""
    try:
        args = cli._parse(argv)
    except ValueError:
        return ("error",)
    return ("help",) if isinstance(args, str) else ("ok", vars(args))


def _narrowed(argv):
    """Does argv hold a spelling that argparse read and the table refuses: `--`, an
    abbreviated option, a word that starts with - and holds a space, or an integer
    other than an optional - and ASCII digits?"""
    command = next((word for word in argv if word in cli._COMMANDS), None)
    options = {*cli._GLOBALS, *cli._COMMANDS.get(command, (None, {}))[1]}
    for word in argv:
        name, _, value = word.partition("=")
        if word == "--" or word[:1] == "-" and " " in word:
            return True
        if name[:2] == "--" and name not in options and any(o.startswith(name) for o in options):
            return True
        for text in (word, value):
            try:
                int(text)
            except ValueError:
                continue
            if not perms._is_numeral(text.removeprefix("-")):
                return True
    return False


def _spelled(name, spec, equals):
    """argv words that give option `name` a value other than its default."""
    if spec is False:
        return [name]
    value = spec[-1] if isinstance(spec, tuple) else "-1"
    return [f"{name}={value}"] if equals else [name, value]


def _calls(command):
    """Calls of `command` with each subset of the global options and of its own, each
    with a value that is not its default, before or after the positional, and each
    spelled --name value or --name=value."""
    table = cli._COMMANDS[command][1]
    positional = {"perm": "31542", "diagram": "-", "n": "-1"}[next(iter(table))]
    options = [name for name in table if name[0] == "-"]
    for equals, after in itertools.product((False, True), repeat=2):
        for globals_on in itertools.product((False, True), repeat=3):
            head = [w for on, name in zip(globals_on, ("--structured", "--checked", "--limit"))
                    if on for w in _spelled(name, cli._GLOBALS[name], equals)]
            for on in itertools.product((False, True), repeat=len(options)):
                tail = [w for o, name in zip(on, options) if o
                        for w in _spelled(name, table[name], equals)]
                yield [*head, command, *(tail + [positional] if after else [positional] + tail)]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_table_reads_every_call_as_argparse_did(command):
    calls = list(_calls(command))
    assert len(calls) == 32 * 2 ** (len(cli._COMMANDS[command][1]) - 1)
    for argv in calls:
        assert _table(argv) == _reference(argv), argv


def test_byte_identical_reruns():
    for argv in (["expand", "31542"], ["tableaux", "31542"], ["survey", "4"]):
        assert invoke(*argv) == invoke(*argv)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zeroone.cli", "expand", "31542"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == EXPAND_31542


@pytest.mark.parametrize("argv", [["expand", "31542"], ["survey", "3"]])
def test_closed_stdout_pipe_exits_1_without_traceback(argv):
    # the reader is gone before the first byte, as under `zeroone ... | head -c 0`
    proc = subprocess.Popen([sys.executable, "-m", "zeroone.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_output_independent_of_hash_seed():
    # no set/dict iteration order may leak into the output
    import os

    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "zeroone.cli", "tableaux", "35142"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
