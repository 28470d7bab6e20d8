"""Guard: no module under ``src/repro`` imports a name it never uses.

An import that nothing reads is dead code that still costs import time
and misleads readers about a module's dependencies.  The scan is
syntactic: an imported name counts as used if it appears anywhere in
the module as a name (including inside string annotations) or in its
``__all__``.

Exempt:

* ``__init__.py`` files, whose imports are the package's re-exports;
* ``apps/*/port_*.py``: Table IV and Fig. 10 count the ports' source
  lines, so their imports are part of the measured code.  The unused
  ``numpy`` imports of ``apps/xsbench/port_openmp.py`` and
  ``port_serial.py`` stay for that reason (every XSBench port counts
  the line);
* an import marked ``# noqa: F401``, the linters' spelling of "kept on
  purpose" (for example, a module loaded early for its side effects).
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "repro"


def _modules() -> list[Path]:
    return [
        path
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        and not (path.parent.parent.name == "apps" and path.name.startswith("port_"))
    ]


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside the string parts of an annotation (forward references)."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(path: Path) -> list[str]:
    """``line: name`` for every name ``path`` imports and never uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        used |= _annotation_names(annotation)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {element.value for element in node.value.elts}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_every_package():
    packages = {path.relative_to(SRC).parts[0] for path in _modules()}
    assert {"apps", "core", "engine", "exec", "models", "serve", "cli.py"} <= packages


def test_every_module_uses_every_import():
    unused = {
        str(path.relative_to(SRC)): names
        for path in _modules()
        if (names := unused_imports(path))
    }
    assert unused == {}


def test_the_scan_catches_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Sequence, Mapping\n"
        "from x import kept  # noqa: F401\n"
        "def f(a: 'Sequence[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(module) == ["2: os", "3: Mapping"]
