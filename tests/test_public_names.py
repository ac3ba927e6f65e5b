"""Every function, class and method of propcal has a caller.

A name defined in ``src/propcal`` counts as called when a name, an
attribute, an import alias or an identifier string refers to it in the
package itself, in the acceptance gate or in the benchmark's modules (its
tracer patches functions by their string names, and its ``sample`` check
reads boxes through ``BBox.corners``). The scan reads those files only and
imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "propcal").glob("*.py"))
READERS = PACKAGE + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(path: Path):
    """(name, label) of the module-level functions and classes of ``path`` and their non-dunder methods."""
    for node in _parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, f"{path.name}:{node.name}"
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield member.name, f"{path.name}:{node.name}.{member.name}"


def _references(path: Path) -> set[str]:
    refs = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def test_every_public_name_has_a_caller():
    refs = set().union(*map(_references, READERS))
    uncalled = [label for path in PACKAGE for name, label in _definitions(path) if name not in refs]
    assert uncalled == []
