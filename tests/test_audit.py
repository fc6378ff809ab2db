"""Every definition in the filter and harness modules has a caller in the
program: a name, an attribute or an import, in code under src/ or
scripts/ outside the definition's own body, that refers to it.  Docstrings
do not count.  Reference formulas live beside the exact oracle
(``oracle.py``) and the test rig in ``checks.py``, which this audit does
not cover."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = (
    "dpp_filter",
    "kernels",
    "smc",
    "ppp_filter",
    "likelihood",
    "scenario",
    "metrics",
    "rng",
    "harness",
)
ALLOWED = {
    # no filter calls it: benchmark/tracing.py wraps it by name and test
    # fixtures build kernels with it, until ROADMAP item 1 retires both
    "kernels.project_kernel",
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree, module):
    """(qualified name, node) of each top-level function and class and of
    each method whose name is not a dunder."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, DEFS):
                    continue
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item


def references(tree):
    """(identifier, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno


def uncalled():
    """Qualified names of the audited definitions that nothing refers to."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    refs: dict = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            refs.setdefault(name, []).append((path, line))
    out = []
    for module in MODULES:
        own = ROOT / "src" / "dpptrack" / f"{module}.py"
        for qualified, node in definitions(trees[own], module):
            inside = range(node.lineno, node.end_lineno + 1)
            if all(path == own and line in inside for path, line in refs.get(node.name, ())):
                out.append(qualified)
    return out


def test_every_definition_has_a_caller():
    assert sorted(uncalled()) == sorted(ALLOWED)
