"""Static checks on the package sources."""

import ast
from pathlib import Path

import stabcover


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no expression of the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_scan_sees_them():
    tree = ast.parse("import os\nfrom functools import reduce as r, wraps\nwraps\n")
    assert _unused_imports(tree) == ["1: os", "2: r"]


def test_no_unused_imports():
    offenders = []
    for path in sorted(Path(stabcover.__file__).parent.glob("*.py")):
        for entry in _unused_imports(ast.parse(path.read_text())):
            offenders.append(f"{path.name}:{entry}")
    assert offenders == []
