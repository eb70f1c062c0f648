"""The public surface: every public top-level function and class of the
package is reached by the runtime (the package and the benchmark, not the
scripts) or is part of the public API, the public API is exactly the list
in the README, and the README's "Scripts" section names every script."""

import ast
import re
from pathlib import Path

import dissipctl

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dissipctl"


def _used_names(path: Path) -> set[str]:
    """Bare names, attribute names and imported names of a Python file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_api() -> list[str]:
    """The backticked names of the README's "Public API" section."""
    return re.findall(r"`([A-Za-z_]\w*)`", _readme_section("Public API"))


def test_every_public_definition_is_reached_or_exported():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted(ROOT.glob("bench/*.py"))  # a script's own code lives in it
    used = {path: _used_names(path) for path in callers}
    orphans = []
    for module in modules:
        elsewhere = set().union(*(names for path, names in used.items() if path != module))
        for node in ast.parse(module.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in elsewhere and node.name not in dissipctl.__all__):
                orphans.append(f"{module.name}:{node.name}")
    assert orphans == []


def test_all_is_the_readme_api():
    listed = _readme_api()
    assert len(listed) == len(set(listed))
    assert sorted(dissipctl.__all__) == sorted(listed)
    assert [name for name in listed if not hasattr(dissipctl, name)] == []


def test_readme_scripts_are_the_scripts():
    named = set(re.findall(r"scripts/(\w+\.py)", _readme_section("Scripts")))
    assert named == {path.name for path in ROOT.glob("scripts/*.py")}
