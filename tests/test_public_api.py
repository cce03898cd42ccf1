"""Every public name has a job: a command, an acceptance criterion, or a test.

A name in ``epicost.__all__`` stays public if one of these holds:

- a module of the package other than ``__init__`` references it beyond its
  own definition, so the commands or the rest of the library reach it;
- ``tests/test_acceptance.py`` imports it;
- its docstring has a ``Job:`` paragraph that names a test file, and that
  file references it (a claim or an oracle the tests rely on).

Dunder names (``__version__``) are package metadata and are not checked.
"""

import ast
import re
from functools import cache
from pathlib import Path

import epicost

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "epicost"


@cache
def references(path: Path) -> tuple[tuple[str | None, frozenset[str]], ...]:
    """For each top-level statement of a module, the name it defines (or
    None) and the names its code uses or imports; docstrings use none."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
        out.append((getattr(top, "name", None), frozenset(names)))
    return tuple(out)


def used_in(path: Path, name: str) -> bool:
    """Whether the module at ``path`` uses ``name`` outside its definition."""
    return any(name in names for defined, names in references(path) if defined != name)


def job_test_files(obj) -> list[Path]:
    """Test files named in the ``Job:`` paragraph of ``obj``'s docstring."""
    doc = getattr(obj, "__doc__", None) or ""
    job = re.search(r"^\s*Job:(.*?)(?:\n\s*\n|\Z)", doc, re.M | re.S)
    return [ROOT / p for p in re.findall(r"tests/test_\w+\.py", job.group(1))] if job else []


def has_a_job(name: str, acceptance: set[str]) -> bool:
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p != PACKAGE / "__init__.py"]
    return (name in acceptance or any(used_in(path, name) for path in modules)
            or any(path.exists() and used_in(path, name)
                   for path in job_test_files(getattr(epicost, name))))


def test_every_public_name_has_a_job():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    acceptance = {alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = [name for name in epicost.__all__ if not name.startswith("__")]
    assert [name for name in public if not has_a_job(name, acceptance)] == []


def test_a_job_needs_a_test_that_uses_the_name(monkeypatch):
    def orphan():
        """Job: the oracle for nothing in ``tests/test_breakdown.py``."""

    monkeypatch.setattr(epicost, "orphan", orphan, raising=False)
    assert job_test_files(orphan) == [ROOT / "tests" / "test_breakdown.py"]
    assert not has_a_job("orphan", set())
    # a docstring that mentions a name does not use it
    assert not used_in(PACKAGE / "importation.py", "hypergeom_pmf")
    assert used_in(PACKAGE / "game.py", "expected_imports")
