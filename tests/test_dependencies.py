"""The package's imports agree with what ``pyproject.toml`` declares.

Tier-1 must pass on a clean install with the declared dependencies, so
every third-party module the package imports at module level has to be
a declared runtime dependency.  Test-only libraries (networkx) stay out
of ``import repro`` altogether: every drainer and every set-up probe
would pay for them.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

from repro.experiment.backends.queue_common import worker_subprocess_env

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _declared(key: str) -> set[str]:
    """Import names of the requirements in the ``key = [...]`` array of
    pyproject.toml (no TOML parser needed: Python 3.10 has none)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(rf"^{key} = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert match, f"pyproject.toml has no {key} array"
    names = re.findall(r'"([A-Za-z0-9_.\-]+)', match.group(1))
    return {name.lower().replace("-", "_") for name in names}


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(body: list[ast.stmt]):
    """Absolute top-level module names imported when a module is
    imported: module-level statements and the blocks nested in them,
    but not function or class bodies nor ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                yield node.module.split(".")[0]
        elif isinstance(node, ast.If):
            if not _is_type_checking(node):
                yield from _module_level_imports(node.body)
            yield from _module_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_level_imports(block)
            for handler in node.handlers:
                yield from _module_level_imports(handler.body)
        elif isinstance(node, ast.With):
            yield from _module_level_imports(node.body)


def third_party_module_imports() -> dict[str, list[str]]:
    """Third-party module -> the package files importing it at module level."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in set(_module_level_imports(tree.body)):
            if name == "repro" or name in sys.stdlib_module_names or name == "__future__":
                continue
            found.setdefault(name, []).append(str(path.relative_to(ROOT)))
    return found


def test_module_level_third_party_imports_are_declared():
    declared = _declared("dependencies")
    undeclared = {
        name: files
        for name, files in third_party_module_imports().items()
        if name not in declared
    }
    assert not undeclared, f"imported at module level but not declared: {undeclared}"
    # The scan sees the package's real dependencies (it is not vacuous).
    assert {"numpy", "scipy"} <= set(third_party_module_imports())


def test_test_only_libraries_are_not_runtime_dependencies():
    assert "networkx" not in _declared("dependencies")
    assert "networkx" in _declared("test")


def test_import_repro_leaves_networkx_unloaded():
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro, repro.experiment.worker; "
            "print('networkx' in sys.modules)",
        ],
        env=worker_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"
