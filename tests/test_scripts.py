"""The route-agreement, survey, dominance and digest scripts run end to end,
and the mutant table still applies."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from zeroone.perms import Permutation
from zeroone.poly import schubert_classic

ROOT = Path(__file__).resolve().parent.parent


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
    path = ROOT / "scripts" / "survey_zero_one.py"
    spec = importlib.util.spec_from_file_location("survey_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
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
    path = ROOT / "scripts" / "pattern_dominance.py"
    spec = importlib.util.spec_from_file_location("dominance_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["pattern_dominance.py", "--max-n", "3"])
    assert script.main() == 0
    monkeypatch.setattr(script, "schubert_pattern_inequalities",
                        lambda w, sets: (positions != (1,) for positions in sets))
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert "n=2: 8 occurrences, 2 failures" in out
    assert "n=2: fails at w=12 positions=(1,)" in err


def test_method_agreement_weyl_route_passes_size_limit():
    # the command line caps the determinant route at n = 6, the library does not:
    # --weyl-max-n 7 must not stop on the first permutation of S_7
    path = ROOT / "scripts" / "method_agreement.py"
    spec = importlib.util.spec_from_file_location("agreement_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    w = Permutation((2, 1, 5, 4, 3, 7, 6))
    assert script.ROUTES["weyl"](w) == schubert_classic(w)


def test_mutant_rows_apply_once():
    # the full mutant run stays on request; this keeps its table from rotting
    path = ROOT / "scripts" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.MUTANTS
    for mutant in script.MUTANTS:
        assert (ROOT / "src" / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.tests, mutant.name
        for test in mutant.tests:
            file, name = test.split("::")
            assert f"def {name}(" in (ROOT / file).read_text(), test
