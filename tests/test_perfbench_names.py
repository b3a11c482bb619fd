"""The benchmark harness wraps zeroone functions by name; those names must exist.

`perfbench/run.py` is read as text, not imported, so this check needs
nothing from the harness itself.
"""

import importlib
import re
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
WRAPPED = re.compile(r'\bt\.\w+\(\s*p\.(\w+)(?:\.(\w+))?,\s*"(\w+)"')


def wrapped_names():
    text = RUN_PY.read_text()
    body = text[text.index("def instrument(") :]
    body = body[: body.index("\n    return t\n")]
    return WRAPPED.findall(body)


def test_instrumented_functions_exist():
    names = wrapped_names()
    assert len(names) >= 20
    for module, attr, name in names:
        owner = importlib.import_module(f"zeroone.{module}")
        if attr:
            owner = getattr(owner, attr)
        assert callable(getattr(owner, name, None)), (module, attr, name)
    kept = {
        "has_configuration", "avoids_multiplicitous", "is_multiplicity_free", "schubert_classic"
    }
    assert kept <= {name for _, _, name in names}
