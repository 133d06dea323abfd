"""Every name a plexciton module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "plexciton"

# Imported to be read from the module by others, not used in it:
# perfbench/spans.py reads the RK4 step bound as rate_dynamics.STEP_SAFETY
# and bloch.STEP_SAFETY, and perfbench/workloads.py wraps
# cli.detected_spectrum by name in its traced CLI run.
RE_EXPORTS = {"rate_dynamics.py": {"STEP_SAFETY"}, "bloch.py": {"STEP_SAFETY"},
              "cli.py": {"detected_spectrum"}}


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
