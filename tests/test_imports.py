"""Every name a plexciton module imports is used in that module, and every
rule name it passes to ``model._real`` and its kin, or holds in a table it
passes to ``model._store_reals``, is a rule."""

import ast
import importlib
import pathlib

import pytest

from plexciton import model

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "plexciton"

# Imported to be read from the module by others, not used in it:
# perfbench/spans.py reads the RK4 step bound as bloch.STEP_SAFETY (it is
# defined in rate_dynamics), and perfbench/workloads.py wraps
# cli.detected_spectrum by name in its traced CLI run.
RE_EXPORTS = {"bloch.py": {"STEP_SAFETY"}, "cli.py": {"detected_spectrum"}}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports and never loaded, except those
    listed in its ``__all__`` (a package's re-exports)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0]
                         for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == RE_EXPORTS.get(path.name, set())


def test_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom a import b as c\nsys.exit(c)\n")
    assert unused_imports(tree) == {"os"}


# Where each function that takes a _REAL_RULES name takes it.
RULE_ARGUMENT = {"_real": 2, "_is_real": 1, "_number": 0}


def rule_literals(tree: ast.Module) -> set[str]:
    """Every string literal passed as the rule of ``_real``, ``_is_real`` or
    ``config._number``, by position or as ``rule=``."""
    found = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in RULE_ARGUMENT):
            continue
        position = RULE_ARGUMENT[node.func.id]
        args = node.args[position:position + 1] + [
            keyword.value for keyword in node.keywords if keyword.arg == "rule"]
        found |= {arg.value for arg in args
                  if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    return found


def rule_tables(tree: ast.Module, module) -> list[dict]:
    """Every rule table passed to ``model._store_reals``: a dict literal, or
    a name read from ``module``.  Any other expression fails here."""
    return [getattr(module, node.args[1].id) if isinstance(node.args[1], ast.Name)
            else ast.literal_eval(node.args[1]) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_store_reals"]


def test_every_rule_name_is_a_rule():
    # A misspelt name would raise a bare KeyError only when its path runs.
    literals, tables = set(), []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        literals |= rule_literals(tree)
        tables += rule_tables(tree, importlib.import_module(
            f"plexciton.{path.stem}".removesuffix(".__init__")))
    # The scan must find the literals the scalar checks pass to _real.
    assert {"positive", "positive and finite", "finite and >= 0"} <= literals
    # SystemParams, DressedBasis, BranchRates, Populations, BlochState,
    # TrajectoryConfig, PhotonStream and EmissionRate store their reals by a
    # table each.
    assert len(tables) == 8 and model._RATE_RULES in tables
    named = literals.union(*(table.values() for table in tables))
    assert named <= set(model._REAL_RULES)


def test_finds_every_rule_literal():
    tree = ast.parse('_real("x", 1, "finite")\n_is_real(2, rule="positiv")\n'
                     '_number((1,))\n_number("finite and >= 0")\n'
                     'f(1, 2, "no")\n_real("x", 1, rule)\n')
    assert rule_literals(tree) == {"finite", "positiv", "finite and >= 0"}


def test_finds_every_rule_table():
    tree = ast.parse('_store_reals(self, _PARAM_RULES)\n'
                     '_store_reals(self, {"t": "positiv"})\nf(self, {"u": "no"})\n')
    assert rule_tables(tree, model) == [model._PARAM_RULES, {"t": "positiv"}]
    with pytest.raises(ValueError):
        rule_tables(ast.parse('_store_reals(self, dict(t="finite"))\n'), model)
