"""Only the pipeline lives in ``src/``, and only the surface its callers use.

A top-level function, class or constant of ``src/qpskrx`` must be named in
``src/`` or ``perfbench/`` (its test file aside) somewhere besides its own
definition.  A helper that only the tests call belongs in
``tests/oracles.py``.  The package namespace re-exports nothing: callers
import the submodules.  Each CLI number flag is listed once, in
``cli.NUMBER_FLAGS``, with the config field it sets.  A grid point's channel
is one object, ``bayes.InferenceModel``: only it divides by the stage count,
and only it computes with the visibility ``xi``, in its one mean-count formula.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from qpskrx.cli import NUMBER_FLAGS
from qpskrx.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpskrx"


def top_level_names(tree):
    """Functions, classes and assigned constants at module level, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name) and not name.id.startswith("__"))


def mentions(tree):
    """Names a module reads: loads, attributes, imports and identifier strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value  # getattr targets and ``__all__`` entries


def unused_names(defining: dict, reading: dict) -> list[str]:
    """``module:name`` for each top-level name of ``defining`` nobody reads."""
    used = Counter(name for tree in reading.values() for name in mentions(tree))
    return [f"{module}:{name}" for module, tree in defining.items()
            for name in top_level_names(tree) if not used[name]]


def parse(paths) -> dict:
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
            for path in sorted(paths)}


def sites(tree, flagged, where=None):
    """(enclosing class or None, line) of each node of ``tree`` that ``flagged`` accepts."""
    for node in ast.iter_child_nodes(tree):
        inside = node.name if isinstance(node, ast.ClassDef) else where
        if flagged(node):
            yield inside, node.lineno
        yield from sites(node, flagged, inside)


def package_sites(flagged):
    return [(f"{module}:{line}", where) for module, tree in parse(PACKAGE.glob("*.py")).items()
            for where, line in sites(tree, flagged)]


def named(node, name):
    return getattr(node, "id", getattr(node, "attr", None)) == name


def divides_by_stages(node):
    """A ``/`` or ``//`` whose divisor is a name or attribute called ``stages``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv)):
        return named(node.right, "stages")
    if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Div, ast.FloorDiv)):
        return named(node.value, "stages")
    return False


def computes_with_xi(node):
    """A binary, augmented or unary arithmetic operation with an operand that is
    a name or attribute called ``xi``."""
    operands = ((node.left, node.right) if isinstance(node, ast.BinOp)
                else (node.target, node.value) if isinstance(node, ast.AugAssign)
                else (node.operand,) if isinstance(node, ast.UnaryOp)
                and not isinstance(node.op, ast.Not) else ())
    return any(named(x, "xi") for x in operands)


def test_every_top_level_name_is_used():
    package = parse(PACKAGE.glob("*.py"))
    perfbench = parse(p for p in (ROOT / "perfbench").glob("*.py")
                      if not p.name.startswith("test_"))
    assert unused_names(package, {**package, **perfbench}) == []


def test_package_namespace_binds_only_the_version():
    docstring, *body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert isinstance(docstring, ast.Expr)
    assert [ast.unparse(target) for node in body
            for target in getattr(node, "targets", [node])] == ["__version__"]


def test_number_flags_set_fields_of_their_type():
    annotations = {f.name: f.type for f in fields(RunConfig)}
    assert {field: annotations.get(field) for field, _ in NUMBER_FLAGS.values()} == {
        field: kind.__name__ for field, kind in NUMBER_FLAGS.values()}


def test_scan_flags_an_unused_helper():
    tree = ast.parse("LIMIT = 3\n_TABLE = {}\n"
                     "def used(x):\n    return min(x, LIMIT)\n"
                     "def helper():\n    pass\n"
                     "class Spare:\n    pass\n"
                     "__all__ = ['used']\n")
    assert unused_names({"m": tree}, {"m": tree}) == ["m:_TABLE", "m:helper", "m:Spare"]


def test_only_the_inference_model_splits_a_point_over_its_bins():
    # the per-bin quotients of a point's channel live in one place, which both
    # truth builders and the likelihoods read
    found = package_sites(divides_by_stages)
    assert found
    assert [site for site, where in found if where != "InferenceModel"] == []


def test_scan_finds_divisions_by_stages():
    tree = ast.parse("class InferenceModel:\n"
                     "    def quotient(self):\n        return self.alpha_sq / self.stages\n"
                     "def split(a, stages, point):\n"
                     "    a /= stages\n    return a // point.stages, stages / a\n")
    assert list(sites(tree, divides_by_stages)) == [("InferenceModel", 3), (None, 5), (None, 6)]


def test_only_the_inference_model_computes_with_the_visibility():
    # the mean-count formula, where efficiency, visibility, dark counts and
    # phase meet, is one method of the point
    found = package_sites(computes_with_xi)
    assert found
    assert [site for site, where in found if where != "InferenceModel"] == []


def test_scan_finds_arithmetic_on_xi():
    tree = ast.parse("class InferenceModel:\n"
                     "    def count(self, cos):\n        return 1.0 - self.xi * cos\n"
                     "def mean_count(ch, cos, xi):\n"
                     "    xi -= 1\n    a = -ch.xi\n    return cos * xi\n"
                     "def fine(ch, xi):\n"
                     "    return f(xi=ch.xi), 0.0 <= xi <= 1.0, not xi, ch.xi_scale * 2\n")
    assert list(sites(tree, computes_with_xi)) == [("InferenceModel", 3), (None, 5), (None, 6),
                                                   (None, 7)]
