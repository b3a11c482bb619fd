#!/usr/bin/env python3
"""Re-run the mutation claims: every mutant in MUTANTS must fail its tests.

A row names a file under src/, an exact text that occurs once in it, the
text that replaces it, and the test ids that must fail on the result.  The
named tests first run once on an unmutated copy of src/, where they must
pass.  Then, one row at a time, the script copies src/ to a temporary
directory, applies the row's one replacement, and runs the row's tests with
-x in one pytest subprocess whose PYTHONPATH is the copy.  It prints killed
or survived per row and exits 1 if a mutant survives or a run goes wrong.
The test suite checks only that each row's old text occurs once.

Mutants that are not rows, because their code is gone or they are
equivalent (each one survived its module's tests when tried):
- a reversed ascending sort in `Polynomial.sorted_terms`, on its sort of
  (degree, key) pairs from commit 620f3b8: that code is gone, replaced in
  commit 22eda48.  Its successor, `rows.sort(key=itemgetter(0),
  reverse=True)` in `Polynomial._graded`, has the same equivalent mutant:
  weights are unique per monomial, so no tie's order can change.
- `break` -> `continue` in the orbit walk of `tableaux._orbits` (commit
  620f3b8): equivalent.  A walk that goes on past a member already in the
  union only re-adds words of an orbit that another walk covers, with the
  same weights.
- the early return in `orthodontia._rest` for a key with no interval column
  (commit 75d05ec) dropped: equivalent.  Without it rest equals key and the
  [i] check compares 0 with 0; only time is lost.
- `i - (i >= k)` for `i - (i > k)` in D' (`weyl.py`): equivalent.  Row k is
  filtered out before the renumbering, so i >= k equals i > k on every row
  that is left.

Example:
    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]


SCHUBERT_M = "m_key = weight - sum((rows[p - 1] & cols).bit_count() * _x(p) for p in positions)"
EXAMPLES = "tests/test_weyl.py::test_schubert_pattern_inequality_examples"
MINOR = "tuple(i - (i > k) for i in c if i != k) for j, c in enumerate(d.columns, 1) if j != l"
ORACLE = "tests/test_weyl.py::test_dominance_remainder_matches_full_frame_oracle"
PARSER = "tests/test_perms.py::test_parse_diagram_matches_the_reference"
REST_COLUMNS = "columns = key & ones & ~((key & key + ones) + rows >> n)"
FIELDS = "tests/test_orthodontia.py::test_field_helpers_match_per_column_definitions"
ENGINE = "tests/test_orthodontia.py::test_engine_matches_reference_straightening"
SIGN = "sign = -1 if (mask & -bit).bit_count() & 1 else 1"
LEIBNIZ = "tests/test_weyl.py::test_column_minors_match_leibniz"
DEFINITION = "tests/test_weyl.py::test_dual_character_matches_definition"
SUPPORTS = "tests/test_poly.py::test_zero_one_supports_match_the_expansions"
ALL_CLASSIC = "tests/test_poly.py::test_schubert_all_matches_classic"
ALL_ORDER = "tests/test_poly.py::test_schubert_all_order"
MEMO_CLASSIC = "tests/test_poly.py::test_classic_memo_over_S6"
PAPER_EXAMPLE = "tests/test_poly.py::test_schubert_paper_example"
STRATEGIES = "tests/test_poly.py::test_schubert_strategies_agree"
WIDE_KEYS = "tests/test_poly.py::test_kernel_on_keys_wider_than_a_machine_word"
FOLD = "fold(v, r, terms(x, r, here))"
DISJOINT = "if part is None or not support.isdisjoint(part):"
OVERLAP = ("support = set(map(_x(r).__add__, support))\n"
           "        for part in parts:\n            " + DISJOINT)
LEVEL_RULE = "if j > 1 and u[j - 2] < u[j - 1] and u[j - 2] < u[j]:"
ENGINE_GUARD = 'if w.n > 255:\n        raise ValueError("the orthodontic engine'
KEPT = "cols = sum(1 << w[p] - 1 for p in positions)\n        " + SCHUBERT_M
GLOBAL = 'if name[:2] == "--" and name in table:\n            spec = table[name]'
VOTES = ("    expansion = is_zero_one(schubert_classic(w)) if include_expansion else None\n"
         "    multfree = is_multiplicity_free(w)\n"
         "    no_configuration = not has_configuration(w.entries)\n")
SCAN = "    witness = witness_pattern(w)\n"
M_STEP = ("    for i, _, stage, rest in steps:  # stage ^ rest holds the m_r columns [i_r], i_r bits each\n"
          "        letters.append(i)\n"
          "        m.append((stage ^ rest).bit_count() // i)\n")
REPLAY = "tuple(stage for _, _, stage, _ in _engine(self._key, len(self.k)))"

MUTANTS = (
    Mutant("M := 0 at the Schubert level", "zeroone/weyl.py", SCHUBERT_M, "m_key = 0",
           (EXAMPLES,)),
    Mutant("M without the kept boxes subtracted", "zeroone/weyl.py", SCHUBERT_M,
           "m_key = weight", (EXAMPLES,)),
    Mutant("kept boxes read from row p + 1", "zeroone/weyl.py", "(rows[p - 1] & cols)",
           "(rows[p] & cols)", (EXAMPLES,)),
    Mutant("kept columns P instead of w(P)", "zeroone/weyl.py",
           "cols = sum(1 << w[p] - 1 for p in positions)",
           "cols = sum(1 << p - 1 for p in positions)", (EXAMPLES,)),
    Mutant("dominance M counts box (k, l) twice", "zeroone/weyl.py",
           "for i in d.columns[l - 1] if i != k)", "for i in d.columns[l - 1])",
           ("tests/test_weyl.py::test_deleted_weight_counts_the_hook",)),
    Mutant("impact shifted one bit off", "zeroone/orthodontia.py",
           ">> n * (n - 1) & field", ">> n * (n - 1) + 1 & field",
           ("tests/test_orthodontia.py::test_engine_matches_reference_straightening",)),
    Mutant("rothe_diagram reads w's rows as its columns", "zeroone/perms.py",
           "rothe_rows(w.inverse().entries)", "rothe_rows(w.entries)",
           ("tests/test_perms.py::test_rothe_diagram_transposes_rothe_rows",)),
    Mutant("D' keeps the numbers of the rows below k", "zeroone/weyl.py", MINOR,
           MINOR.replace("i - (i > k)", "i"), (ORACLE,)),
    Mutant("D' keeps column l", "zeroone/weyl.py", MINOR, MINOR.replace(" if j != l", ""),
           (ORACLE,)),
    Mutant("D' keeps row k", "zeroone/weyl.py", MINOR, MINOR.replace(" if i != k", ""),
           (ORACLE,)),
    Mutant("repeated rows kept in a validated column", "zeroone/perms.py",
           "tuple(tuple(sorted(set(col))) for col in self.columns)",
           "tuple(tuple(sorted(col)) for col in self.columns)",
           ("tests/test_perms.py::test_from_boxes_equals_validated",)),
    Mutant("no numeral fallback for a column label", "zeroone/perms.py",
           "if head.strip() != str(j) and not (_is_numeral(head.strip()) and int(head) == j):",
           "if head.strip() != str(j):", (PARSER,)),
    Mutant("the command line's size cap refuses the cap itself", "zeroone/cli.py",
           "if n > cap:", "if n >= cap:", ("tests/test_cli.py::test_char_limit",)),
    Mutant("a diagram file decoded with errors replaced", "zeroone/cli.py",
           'fh.read().decode("utf-8")', 'fh.read().decode("utf-8", errors="replace")',
           ("tests/test_cli.py::test_refused_diagram_file",)),
    Mutant("no [i] check after a swap in _rest", "zeroone/orthodontia.py",
           "if i and key ^ rest != columns * ((1 << i) - 1):", "if False:", (FIELDS,)),
    Mutant("guard-bit fill with ones for rows in _rest", "zeroone/orthodontia.py", REST_COLUMNS,
           REST_COLUMNS.replace("+ rows >>", "+ ones >>"), (FIELDS,)),
    Mutant("the swap without hi >> 1", "zeroone/orthodontia.py",
           "key ^= lo ^ hi ^ lo << 1 ^ hi >> 1", "key ^= lo ^ hi ^ lo << 1", (ENGINE,)),
    Mutant("the odometer's leaf key left unemptied", "zeroone/classify.py",
           "rest = _rest(key, 0, ones, rows, n)", "rest = key",
           ("tests/test_classify.py::test_survey_odometer_looks_up_the_state_keys",)),
    Mutant("the survey block's expansion vote always true", "zeroone/classify.py",
           "(e in zero_ones, *vote)", "(True, *vote)",
           ("tests/test_classify.py::test_survey_all_methods_small",)),
    Mutant("every pooled block handed every zero-one entry", "zeroone/classify.py",
           "shares[e[0] - 1].add(e)", "[share.add(e) for share in shares]",
           ("tests/test_classify.py::test_pooled_blocks_get_only_their_own_zero_ones",)),
    Mutant("a repeated letter's impacts equal but not one column", "zeroone/orthodontia.py",
           "return imp == other and not imp & (imp - 1)", "return imp == other",
           ("tests/test_orthodontia.py::test_multiplicity_free_implies_zero_one_S6",)),
    Mutant("the orthodontic engine accepts n = 256", "zeroone/orthodontia.py",
           ENGINE_GUARD, ENGINE_GUARD.replace("> 255", "> 256"),
           ("tests/test_orthodontia.py::test_orthodontic_trace_refuses_sizes_beyond_a_byte",
            "tests/test_cli.py::test_zero_one_refuses_sizes_beyond_a_byte")),
    Mutant("s_{i_1} applied first in build_D_im", "zeroone/orthodontia.py",
           "reversed(trace.i[:r])", "trace.i[:r]",
           ("tests/test_orthodontia.py::test_build_D_im_paper_example",)),
    Mutant("no choices check in the CLI's reader", "zeroone/cli.py",
           "if isinstance(spec, tuple) and text not in spec:", "if False:",
           ("tests/test_cli.py::test_invalid_input_exit_codes",)),
    Mutant("minor sign counted over the rows below r", "zeroone/weyl.py", SIGN,
           SIGN.replace("mask & -bit", "mask & bit - 1"), (LEIBNIZ,)),
    Mutant("minor rows r < c instead of r <= c", "zeroone/weyl.py",
           "for t, r in enumerate(pool) if r <= c]", "for t, r in enumerate(pool) if r < c]",
           (LEIBNIZ,)),
    Mutant("_insert stores a row without dividing out its content", "zeroone/weyl.py",
           "basis[lead] = {m: c // g for m, c in row.items()} if g > 1 else row",
           "basis[lead] = row",
           ("tests/test_weyl.py::test_sparse_elimination_matches_fraction_oracle",)),
    Mutant("the last-column shortcut taken in every column", "zeroone/weyl.py",
           "if last and not others:", "if not others:", (DEFINITION,)),
    Mutant(">= in the subdiagram count guard", "zeroone/weyl.py",
           "if count > MAX_SUBDIAGRAMS:", "if count >= MAX_SUBDIAGRAMS:",
           ("tests/test_weyl.py::test_subdiagram_count_guard",)),
    Mutant("_choice_count one bound short", "zeroone/weyl.py",
           "for v in range(1, bound + 1):", "for v in range(1, bound):",
           ("tests/test_weyl.py::test_column_choices",)),
    Mutant("transition terms over every q < r, no interval check", "zeroone/poly.py",
           "if low < x[q] < top:", "if x[q] < top:", (SUPPORTS, ALL_CLASSIC)),
    Mutant("transition shift by x_s instead of x_r", "zeroone/poly.py", FOLD,
           FOLD.replace("(v, r,", "(v, s + 1,"), (SUPPORTS, ALL_CLASSIC)),
    Mutant("transition supports joined without the disjointness test", "zeroone/poly.py",
           DISJOINT, "if part is None:", (SUPPORTS,)),
    Mutant("a transition term tested against x_r S_v only, not the terms before it",
           "zeroone/poly.py", OVERLAP,
           OVERLAP.replace("\n", "\n        shifted = frozenset(support)\n", 1)
           .replace("not support.", "not shifted."), (SUPPORTS,)),
    Mutant("transition level rule without u_i < u_{i+2}", "zeroone/poly.py", LEVEL_RULE,
           LEVEL_RULE.replace(" and u[j - 2] < u[j]", ""), (SUPPORTS, ALL_ORDER, ALL_CLASSIC)),
    Mutant("a transition term overwrites instead of adding", "zeroone/poly.py",
           "out[k] = out.get(k, 0) + c", "out[k] = c", (SUPPORTS, MEMO_CLASSIC)),
    Mutant("a divided difference's positive run one key short", "zeroone/poly.py",
           "while s > 1:", "while s > 2:", (PAPER_EXAMPLE, MEMO_CLASSIC, WIDE_KEYS)),
    Mutant("a divided difference's negative run adds c", "zeroone/poly.py",
           "out[key] = get(key, 0) - c", "out[key] = get(key, 0) + c", (MEMO_CLASSIC, WIDE_KEYS)),
    Mutant("a divided difference keeps its cancelled terms", "zeroone/poly.py",
           "if 0 in out.values():", "if False:", (STRATEGIES, WIDE_KEYS)),
    Mutant("the B witness floor without the second column", "zeroone/classify.py",
           "floor = max(c1, second)", "floor = c1",
           ("tests/test_classify.py::test_configuration_scanner_matches_definition",)),
    Mutant("the k prefix dropped at q = 0", "zeroone/tableaux.py",
           "if q else list(enumerate(trace.k, start=1))", "if q else []",
           ("tests/test_tableaux.py::test_tableaux_paper_example",)),
    Mutant("m read from stage r - 1", "zeroone/orthodontia.py", M_STEP,
           "    before = key\n" + M_STEP.replace("(stage ^ rest)", "(before ^ rest)")
           + "        before = stage\n",
           ("tests/test_orthodontia.py::test_sequence_paper_example",)),
    Mutant("stages rebuilt from the second step on", "zeroone/orthodontia.py", REPLAY,
           REPLAY + "[1:]", ("tests/test_orthodontia.py::test_stages_keep_original_indexing",)),
    Mutant("a lift into field P[t]", "zeroone/poly.py", "8 * (p - 1)", "8 * p",
           ("tests/test_weyl.py::test_lifted_weight_matches_tuple_product",)),
    Mutant("kept rows swapped with kept columns", "zeroone/weyl.py", KEPT,
           KEPT.replace("w[p] - 1 for", "p - 1 for").replace("rows[p - 1]", "rows[w[p] - 1]")
           .replace("_x(p)", "_x(w[p])"), (EXAMPLES,)),
    Mutant("a global option accepted after the command word", "zeroone/cli.py", GLOBAL,
           GLOBAL.replace("in table", "in _GLOBALS | table").replace("table[", "(_GLOBALS | table)["),
           ("tests/test_cli.py::test_invalid_input_exit_codes",)),
    Mutant("stage q closed under f_{i_q}", "zeroone/tableaux.py", "_orbits(trace.i[q - 1],",
           "_orbits(trace.i[q - 2],", ("tests/test_tableaux.py::test_tableaux_paper_example",)),
    Mutant("zero-one scans before the votes that refuse n > 255", "zeroone/classify.py",
           VOTES + SCAN, SCAN + VOTES,
           ("tests/test_cli.py::test_zero_one_refuses_before_any_scan",)),
)


def run_tests(tests, mutant=None) -> int:
    """pytest's exit code for tests on a copy of src/ with mutant applied, if any."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant:
            target = src / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the old text does not occur once")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True).returncode


def main():
    named = sorted({t for mutant in MUTANTS for t in mutant.tests})
    if code := run_tests(named):
        print(f"the named tests fail on unmutated src/ (pytest exit {code})")
        return 1
    bad = 0
    for mutant in MUTANTS:
        code = run_tests(mutant.tests, mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{verdict:10} {mutant.name}", flush=True)
        bad += code != 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
