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


def _unread_private_definitions(sources: dict) -> list[str]:
    """Module-level private functions and classes that no module reads."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.extend((module, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and node.name.startswith("_")
                       and not node.name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}: {name}" for module, name in defined
            if name not in read]


def test_every_private_definition_is_read():
    package = Path(boxprime.__file__).parent
    sources = {path.name: path.read_text()
               for path in sorted(package.glob("*.py"))}
    assert _unread_private_definitions(sources) == []


def test_unread_private_check_sees_leftovers():
    sources = {"a.py": "def _f(): pass\ndef _g(): pass\nclass _C: pass\n"
                       "def __getattr__(name): pass\ndef h(): pass\n",
               "b.py": "from a import _g\nimport a\na._C()\n"}
    assert _unread_private_definitions(sources) == ["a.py: _f"]


def _unread_public_definitions(sources: dict) -> list[str]:
    """Module-level public functions and classes, and public methods and
    properties of module-level classes, that no module reads and no
    __all__ exports; a module-level definition is read by name or by
    attribute, a method only by attribute."""
    defined = []
    names = set()
    attributes = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend((module, f"{node.name}.{item.name}", item.name)
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                names.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return [f"{module}: {label}" for module, label, name in defined
            if name not in attributes
            and ("." in label or name not in names)]


def test_every_public_definition_is_read_or_exported():
    package = Path(boxprime.__file__).parent
    sources = {path.name: path.read_text()
               for path in sorted(package.glob("*.py"))}
    assert _unread_public_definitions(sources) == []


def test_unread_public_check_sees_leftovers():
    sources = {"a.py": "def f(): pass\ndef g(): pass\nclass C: pass\n"
                       "def h(): pass\ndef _p(): pass\n",
               "b.py": "from a import g\nimport a\na.C()\n__all__ = ['h']\n"}
    assert _unread_public_definitions(sources) == ["a.py: f"]


def test_unread_public_check_sees_methods():
    sources = {"a.py": "class C:\n"
                       "    def m(self): pass\n"
                       "    @property\n"
                       "    def p(self): pass\n"
                       "    def __eq__(self, other): pass\n"
                       "    def _q(self): pass\n"
                       "class _W:\n"
                       "    def window(self): pass\n"
                       "    def at(self): pass\n",
               "b.py": "from a import C\nC().p\nx.at(1)\n"}
    assert _unread_public_definitions(sources) == ["a.py: C.m",
                                                   "a.py: _W.window"]


def test_unread_public_check_reads_methods_only_by_attribute():
    # a local or a module-level name that shares a method's name does not
    # read the method
    sources = {"a.py": "class C:\n"
                       "    def shift(self): pass\n"
                       "    def at(self): pass\n"
                       "def f(g):\n"
                       "    shift = 1\n"
                       "    return shift + g.at(1)\n"
                       "def at(): pass\n",
               "b.py": "from a import C, f, at\n"}
    assert _unread_public_definitions(sources) == ["a.py: C.shift"]
