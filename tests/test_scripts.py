"""The route-agreement, survey, dominance and digest scripts run end to end,
and the mutant table still applies."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from math import prod
from pathlib import Path

import pytest

import zeroone.weyl as weyl
from zeroone.perms import Permutation, all_permutations, rothe_diagram
from zeroone.poly import schubert_classic

ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    """scripts/<name>.py as a module, its main not run."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("argv, last_line", [
    (["scripts/method_agreement.py", "--max-n", "5", "--weyl-max-n", "4"],
     "n=5: 120 permutations agree"),
    (["scripts/survey_zero_one.py", "--max-n", "5"], "  5       120       115         0"),
    (["scripts/pattern_dominance.py", "--max-n", "4"], "n=4: 384 occurrences, 0 failures"),
    # a change to any output on the grid moves the digest
    (["scripts/cli_digest.py", "--max-n", "3"],
     "calls 298 sha256 68a8920828d89ae7b164ea3a873e25b8be018a89c8c06dc708586f527dd97e45"),
    (["scripts/pattern_dominance.py", "--max-n", "5"], "n=5: 3840 occurrences, 0 failures"),
    (["scripts/cli_digest.py", "--max-n", "4"],
     "calls 1549 sha256 c75474387ca8680ae877f62f7751907730d9770d3983760267fc320b2ba4a9c9"),
    (["scripts/survey_zero_one.py", "--max-n", "5", "--methods", "all"],
     "  5       120       115         0"),
    (["scripts/survey_zero_one.py", "--max-n", "5", "--methods", "all", "--workers", "2"],
     "  5       120       115         0"),
])
def test_script_exits_zero(argv, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line)


def test_survey_script_fails_on_a_wrong_count(monkeypatch, capsys):
    script = _script("survey_zero_one")
    monkeypatch.setattr(sys, "argv", ["survey_zero_one.py", "--max-n", "4"])
    assert script.main() == 0
    real = script.survey
    monkeypatch.setattr(script, "survey", lambda n, **kw: replace(real(n, **kw), zero_one=n))
    assert script.main() == 1
    assert "n=3: zero-one count 3, known 6" in capsys.readouterr().err
    monkeypatch.setattr(script, "survey", lambda n, **kw: replace(real(n, **kw), disagreements=1))
    assert script.main() == 1
    assert "n=1: 1 disagreements" in capsys.readouterr().err


def test_pattern_dominance_script_fails_on_a_failure(monkeypatch, capsys):
    script = _script("pattern_dominance")
    monkeypatch.setattr(sys, "argv", ["pattern_dominance.py", "--max-n", "3"])
    assert script.main() == 0
    monkeypatch.setattr(script, "_pattern_inequalities",
                        lambda w, sets, table: (positions != (1,) for positions in sets))
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert "n=2: 8 occurrences, 2 failures" in out
    assert "n=2: fails at w=12 positions=(1,)" in err


def test_method_agreement_weyl_route_passes_size_limit():
    # the command line caps the determinant route at n = 6, the library does not:
    # --weyl-max-n 7 must not stop on the first permutation of S_7
    script = _script("method_agreement")
    w = Permutation((2, 1, 5, 4, 3, 7, 6))
    assert script.ROUTES["weyl"](w) == schubert_classic(w)


def test_method_agreement_counts_the_weyl_refusals(monkeypatch, capsys):
    # a w whose diagram the determinant route's guard refuses is counted on its
    # n line, not taken for a disagreement; a lowered guard makes S_4 meet it
    script = _script("method_agreement")
    monkeypatch.setattr(weyl, "MAX_SUBDIAGRAMS", 2)
    monkeypatch.setattr(sys, "argv", ["method_agreement.py", "--max-n", "4", "--weyl-max-n", "4"])
    script.main()

    def subdiagrams(col):
        return sum(all(a <= b for a, b in zip(s, col)) for s in combinations(range(1, 5), len(col)))

    refused = sum(prod(map(subdiagrams, rothe_diagram(w).columns)) > 2 for w in all_permutations(4))
    assert refused > 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(f"n=4: 24 permutations agree, {refused} refused by weyl  ("), lines
    assert "refused" not in "".join(lines[:-1])


def test_mutant_rows_apply_once():
    # the full mutant run stays on request; this keeps its table from rotting
    script = _script("mutants")
    assert script.MUTANTS
    for mutant in script.MUTANTS:
        assert (ROOT / "src" / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.tests, mutant.name
        for test in mutant.tests:
            file, name = test.split("::")
            assert f"def {name}(" in (ROOT / file).read_text(), test
