import ast
from pathlib import Path

import boxprime


def test_every_exported_name_resolves():
    missing = [name for name in boxprime.__all__ if not hasattr(boxprime, name)]
    assert missing == []
    assert len(set(boxprime.__all__)) == len(boxprime.__all__)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; __future__ imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_an_unused_name():
    package = Path(boxprime.__file__).parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unused_imports(path.read_text()))}
    assert unused == {}


def test_unused_import_check_sees_leftovers():
    assert _unused_imports("from x import a, b\nimport c.d\nprint(a)\n") \
        == ["b (line 1)", "c (line 2)"]
    assert _unused_imports("from __future__ import annotations\n") == []
