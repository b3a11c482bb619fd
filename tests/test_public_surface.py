"""Every public name of the package has a reader outside the tests.

The modules are read as text, not imported, except by the check that the
package namespace is the union of every module's `__all__` but the CLI's.
A function or class in a module's `__all__` must be referenced in `src/`
outside its own definition, or be named in `scripts/` or
`perfbench/run.py`, or sit in KEPT with the reason it stays.  A public
method of such a class must be called in `src/` outside its own
definition (a property read there), or sit in KEPT: a read of a field that
shares the method's name does not count.  A public field of a dataclass
must be read as an attribute in `src/` outside its class, or be named as an
attribute (`.field`) in `scripts/` or `perfbench/run.py`, or sit in KEPT.
Both checks match by name alone, so a read of another object's attribute
of the same name counts: `args.perm` and `args.methods` in the CLI would
hide fields called `perm` or `methods`.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zeroone"

KEPT = {
    "one_step_pattern": "the paper's one-step pattern, which criterion 9 checks",
    "find_configuration": "the configuration witness; ROADMAP item 2 prints it",
    "Polynomial.sorted_terms": "perfbench/run.py times it by name; the tests read graded order through it",
    "Diagram.from_boxes": "the tests build arbitrary diagrams from box lists at seven call sites",
    "Diagram.boxes": "the tests read diagrams back as box lists at four call sites",
    "ConfigurationInstance.kind": "the configuration witness; ROADMAP item 2 prints it",
    "ConfigurationInstance.indices": "the configuration witness; ROADMAP item 2 prints it",
}


def exported(tree):
    """The names in a module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in {getattr(t, "id", None) for t in node.targets}:
            return ast.literal_eval(node.value)
    return []


def defined(tree):
    """The names a module binds at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def is_dataclass(node):
    return any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)


def unread(sources, external=""):
    """The public functions, classes, methods and dataclass fields of sources
    ({module: text}) that nothing in sources reads outside their own
    definition (a field: outside its class) and that external does not name,
    as "name", "Class.method" or "Class.field"."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    called = {id(node.func) for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    reads = [(mod, node.lineno, node.id if isinstance(node, ast.Name) else node.attr,
              "name" if isinstance(node, ast.Name) else "call" if id(node) in called else "attribute")
             for mod, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]

    def read(mod, node, ways, name=None):
        """Is name (node's own by default) read in one of ways outside node?"""
        name, inside = name or node.name, range(node.lineno, node.end_lineno + 1)
        return any(n == name and way in ways
                   and not (m == mod and line in inside) for m, line, n, way in reads)

    def ways(method):
        """How a method is read: called, or for a property, read as an attribute."""
        if any(getattr(d, "id", None) == "property" for d in method.decorator_list):
            return {"attribute", "call"}
        return {"call"}

    out = []
    for mod, tree in trees.items():
        public = exported(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name not in public:
                continue
            named = re.search(rf"\b{node.name}\b", external)
            if not named and not read(mod, node, {"name", "attribute", "call"}):
                out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{f.name}" for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                        and not read(mod, f, ways(f))]
                fields = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
                out += [f"{node.name}.{field}" for field in fields if is_dataclass(node)
                        and not field.startswith("_") and not re.search(rf"\.{field}\b", external)
                        and not read(mod, node, {"attribute", "call"}, field)]
    return out


def package_sources():
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_exported_name_exists():
    for mod, text in package_sources().items():
        tree = ast.parse(text)
        assert set(exported(tree)) <= defined(tree), mod


def test_package_exposes_every_module_export():
    import zeroone

    public = {name for name, value in vars(zeroone).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    modules = set(package_sources()) - {"__init__", "cli"}
    assert public == {name for mod in modules for name in getattr(zeroone, mod).__all__}


def test_every_public_name_has_a_reader_outside_the_tests():
    external = "".join(p.read_text() for p in sorted((ROOT / "scripts").glob("*.py")))
    external += (ROOT / "perfbench" / "run.py").read_text()
    found = set(unread(package_sources(), external))
    assert sorted(found - KEPT.keys()) == [], "only the tests read these: delete them, or keep them"
    assert sorted(KEPT.keys() - found) == [], "KEPT names a name that has a reader now"


def test_a_name_only_the_tests_read_is_found():
    source = (
        '__all__ = ["f", "g", "C"]\n'
        "def f():\n    return C().m() + C().gone + C().p\n"
        "def g():\n    return f() + g()\n"
        "class C:\n    def m(self):\n        return 1\n    def gone(self):\n        return 2\n"
        "    @property\n    def p(self):\n        return 3\n"
    )
    assert unread({"m": source}) == ["g", "C.gone"]
    assert unread({"m": source}, external="run(g)") == ["C.gone"]
    record = (
        '__all__ = ["R", "f"]\n'
        "@dataclass(frozen=True)\nclass R:\n"
        "    seen: int\n    own: int\n    named: int\n    _private: int\n"
        "    def total(self):\n        return self.own + self._private\n"
        "def f(r):\n    return r.seen + r.total() + named\n"
        "def main():\n    return f(R(1, 2, 3, 4))\n"
    )
    # own is read only inside its class, named only as a bare name
    assert unread({"m": record}) == ["R.own", "R.named"]
    assert unread({"m": record}, external="print(r.named)") == ["R.own"]
