"""Each rule of the offset-statistics path is written once in ``src/propcal``.

A rule with two owners drifts: two owners of the bin-edge rule once
disagreed, so ``diagnose`` refused logs that ``fit-stats`` read. The rules:
the histogram edge rule and the MMD input check (``diagnostics``), the
Gaussian fit and the model kinds (``stats``), the histogram report files
(``diagnostics.write_histogram``), the log merge (``cli._merge_parts``), the
four-number reader of boxes and model fields (``geometry.four_floats``), the
number predicates (``geometry._is_real``, ``geometry._is_integer`` and
``geometry._is_finite``: the only place that sets bool apart, and the only
finite-number rule, so no module catches ``OverflowError``), the config's
lower bounds (``simulator``) and the worker pool (``cli._ordered_map``, on the
worker count of ``cli._map_workers``). The scan reads the package's source and
imports nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "propcal"

# the message of one check each, and the module that writes it
ONE_OWNER_MESSAGES = {
    "need at least two bin edges": "diagnostics.py",
    "edges must be finite and strictly increasing, with a finite span": "diagnostics.py",
    "both sets must be non-empty (n, k) arrays": "diagnostics.py",
    "fit-uniform requires a gaussian model": "stats.py",
    # the four-number reader of log boxes and model fields
    " must be a flat array of four numeric values": "geometry.py",
    " holds an integer beyond the float range": "geometry.py",
}

# which values are real numbers and which integers, bool being neither
NUMBER_PREDICATES = ("_is_real", "_is_integer", "_is_finite")


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _calls(tree: ast.Module, name: str) -> list[int]:
    """Lines that call ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name]


def _strings(tree: ast.Module, text: str) -> list[int]:
    """Lines of the string constants, f-string parts included, that contain ``text``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value]


def test_each_rule_of_the_statistics_path_has_one_owner():
    trees = _trees()
    found = []
    for name, tree in trees.items():
        if name != "stats.py":  # the Gaussian fit is stats.fit_gaussian, the kinds stats._MODEL_KINDS
            found += [f"{name}:{line}: constructs OffsetAccumulator" for line in _calls(tree, "OffsetAccumulator")]
            found += [f"{name}:{node.lineno}: names the model kind {node.value!r}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and node.value in ("gaussian", "uniform")]
        if name != "diagnostics.py":  # every report's histogram files go through write_histogram
            found += [f"{name}:{line}: calls {fn}"
                      for fn in ("histogram_to_csv", "histogram_to_svg") for line in _calls(tree, fn)]
    for message, owner in ONE_OWNER_MESSAGES.items():
        where = [f"{name}:{line}" for name, tree in trees.items() for line in _strings(tree, message)]
        if [w.split(":")[0] for w in where] != [owner]:
            found.append(f"{message!r} is written at {where}, not once in {owner}")
    for predicate in NUMBER_PREDICATES:
        where = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == predicate]
        if [w.split(":")[0] for w in where] != ["geometry.py"]:
            found.append(f"{predicate} is defined at {where}, not once in geometry.py")
    found += [f"{name}:{node.lineno}: sets bool apart outside the number predicates"
              for name, tree in trees.items() if name != "geometry.py" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
              and "bool" in ast.unparse(node.args[-1])]
    found += [f"{name}:{node.lineno}: catches OverflowError; the finite-number rule is geometry._is_finite"
              for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              and "OverflowError" in ast.unparse(node.type)]
    bounds = _strings(trees["simulator.py"], "must be >= 0")  # the config's four lower bounds, one loop
    if len(bounds) != 1:
        found.append(f"simulator.py writes 'must be >= 0' on lines {bounds}")
    strict_raises = [node.lineno for node in ast.walk(trees["cli.py"])
                     if isinstance(node, ast.Raise) and node.exc is not None and ast.unparse(node.exc) == "errors[0]"]
    if len(strict_raises) > 1:
        found.append(f"cli.py raises errors[0] on lines {strict_raises}; the log merge is cli._merge_parts")
    found += [f"cli.py:{node.lineno}: imports {alias.name}" for node in ast.walk(trees["cli.py"])
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if alias.name in {"DiagonalGaussian4", "OffsetAccumulator"}]
    assert found == []


def _enclosing_functions(tree: ast.Module) -> dict[ast.AST, str]:
    """The name of the innermost function around each node of ``tree``, for the nodes inside one."""
    owner: dict[ast.AST, str] = {}

    def visit(node: ast.AST, name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            if inner is not None:
                owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def test_the_worker_pool_has_one_owner():
    """One pool for every parallel path: its fork context, error, join and CPU-count rules are written once."""
    # each call of a pool rule and the one cli.py function that may make it
    rules = {"ProcessPoolExecutor": "_ordered_map", "get_context": "_ordered_map",
             "sched_getaffinity": "_map_workers", "cpu_count": "_map_workers"}
    found = {fn: [] for fn in rules} | {"_map_workers": [], "_ordered_map": []}
    for name, tree in _trees().items():
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (fn := ast.unparse(node.func).split(".")[-1]) in found:
                found[fn].append(f"{name}:{owner.get(node)}")
                if fn == "get_context":
                    assert ast.unparse(node) == "multiprocessing.get_context('fork')"
    for fn, function in rules.items():
        assert found[fn] == [f"cli.py:{function}"], fn
    # the log reader and sample reach the pool through the map, and the reader's ranges follow its worker count
    assert sorted(found["_ordered_map"]) == ["cli.py:_parse_ranges", "cli.py:_sampled_lines"]
    assert sorted(found["_map_workers"]) == ["cli.py:_line_ranges", "cli.py:_ordered_map"]
