"""No function in the package calls itself, so no command-line input can recurse
past Python's limit."""

import ast
from pathlib import Path

ALLOWED = set()


def self_calls(tree):
    """(function name) for every function whose body calls it by name, or
    through self. or cls. inside a class."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name) or (
                isinstance(f, ast.Attribute) and f.attr == node.name
                and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
            ):
                found.append(node.name)
                break
    return found


def test_no_function_calls_itself():
    package = Path(__file__).resolve().parents[1] / "src" / "zeroone"
    found = {
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        for name in self_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED


def test_the_check_sees_recursion():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def g(self):\n        return self.g()\n"
        "def h():\n    return f(0)\n"
    )
    assert self_calls(tree) == ["f", "g"]
