"""No module of the package keeps a module-level import it never uses, no
top-level private name that no module of the package reads, no public
top-level function or class that neither the package, the tests nor the
benchmark reads, no ``__slots__`` entry that the package never reads, and
no attribute stored on ``self`` that nothing reads: a private one the
package, a public one the package, the tests or the benchmark.

The toolchain has no linter, so these checks catch names left behind when
code is deleted.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eann"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression
    reads, each with the line of its import."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "import struct\nimport numpy as np\nfrom .geom import ball as b, box\n\nX = np.zeros(b)\n"
    assert unused_imports(source) == ["struct (line 1)", "box (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> dict[str, int]:
    """Top-level private names (``_x``, not dunders) that a module defines by
    ``def``, ``class`` or assignment, each with its line."""
    defined: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private names defined in one of ``sources`` (file name -> text) that
    no expression of any of them reads, as a name or as an attribute."""
    read = set()
    for source in sources.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return [f"{name} ({file} line {line})" for file, source in sources.items()
            for name, line in private_definitions(source).items() if name not in read]


def test_checker_finds_an_unread_private_name():
    a = "_USED = 1\n_UNUSED = 2\n\n\ndef _helper():\n    return _USED\n\n\nclass _Box:\n    pass\n"
    b = "from a import _Box\n\nX = a._Box\n__all__ = []\n"
    assert unread_private_names({"a.py": a, "b.py": b}) == [
        "_UNUSED (a.py line 2)", "_helper (a.py line 5)"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def public_definitions(source: str) -> dict[str, int]:
    """Top-level public functions and classes of a module, each with its
    line."""
    return {node.name: node.lineno for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def unread_public_names(defining: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public functions and classes defined in one of ``defining`` (file name
    -> text) that no expression or ``from`` import of any of ``readers``
    reads."""
    read = set()
    for source in readers.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return [f"{name} ({file} line {line})" for file, source in defining.items()
            for name, line in public_definitions(source).items() if name not in read]


def test_checker_finds_an_unread_public_name():
    a = "def used():\n    pass\n\n\nclass Left:\n    pass\n\n\ndef imported():\n    pass\n"
    b = "from a import imported\n\nused()\n"
    assert unread_public_names({"a.py": a}, {"a.py": a, "b.py": b}) == ["Left (a.py line 5)"]


def test_every_public_name_is_read():
    """``__init__.py`` only re-exports, so its imports read nothing."""
    defining = {p.name: p.read_text() for p in MODULES}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for p in MODULES + sorted((ROOT / "tests").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))}
    assert unread_public_names(defining, readers) == []


def _strings(node) -> list[str]:
    """The string constants of a tuple or list literal."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return []
    return [e.value for e in node.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def unread_slots(sources: dict[str, str]) -> list[str]:
    """``__slots__`` entries of a class in one of ``sources`` (file name ->
    text) that no expression of any of them reads as an attribute and no
    kernel's ``arrays`` tuple names."""
    read, slots = set(), []
    for file, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ClassDef):
                for stmt in n.body:
                    if isinstance(stmt, ast.Assign):
                        targets, value = stmt.targets, stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        targets, value = [stmt.target], stmt.value
                    else:
                        continue
                    names = {t.id for t in targets if isinstance(t, ast.Name)}
                    if "arrays" in names:
                        read.update(_strings(value))
                    if "__slots__" in names:
                        slots += [(name, n.name, file, stmt.lineno) for name in _strings(value)]
    return [f"{cls}.{name} ({file} line {line})" for name, cls, file, line in slots
            if name not in read]


def test_checker_finds_an_unread_slot():
    a = ("class Kernel:\n    __slots__ = ('P', 'k')\n    arrays: tuple = ('P',)\n\n\n"
         "class Leaf:\n    __slots__ = ('ids', 'env', 'left')\n\n"
         "    def __init__(self):\n        self.ids = self.env = self.left = None\n")
    b = "def f(leaf, kern):\n    return leaf.env, kern.k\n"
    assert unread_slots({"a.py": a, "b.py": b}) == [
        "Leaf.ids (a.py line 7)", "Leaf.left (a.py line 7)"]


def test_every_slot_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_slots(sources) == []


# Methods that only add to a container: a column they fill is not read.
_FILLS = {"append", "extend"}


def attribute_reads(source: str) -> set[str]:
    """Names of the attributes an expression of ``source`` reads. Item
    assignment and ``append`` or ``extend`` calls store into an attribute;
    they do not read it."""
    tree = ast.parse(source)
    filled = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)):
            filled.add(id(n.value))
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in _FILLS:
            filled.add(id(n.func.value))
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load) and id(n) not in filled}


def unread_self_attributes(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Attributes a method in ``package`` (file name -> text) stores on
    ``self`` that nothing reads: a private one no module of ``package``
    reads, a public one no module of ``package`` or ``readers`` reads."""
    private = set().union(*map(attribute_reads, package.values()))
    public = private.union(*map(attribute_reads, readers.values()))
    unread = []
    for file, source in package.items():
        stored: dict[str, int] = {}  # name -> first line that stores it
        for n in ast.walk(ast.parse(source)):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"):
                stored[n.attr] = min(n.lineno, stored.get(n.attr, n.lineno))
        unread += [f"{name} ({file} line {line})" for name, line in stored.items()
                   if name not in (private if name.startswith("_") else public)]
    return unread


def test_checker_finds_an_unread_self_attribute():
    a = ("class Tree:\n    def __init__(self):\n        self._kind = []\n        self._axis = []\n"
         "        self.count = 0\n        self.size = 0\n\n    def add(self, axis):\n"
         "        self._kind.append(axis)\n        self._axis.extend([axis])\n"
         "        self._axis[0] = axis\n        self.count += 1\n        return self._kind\n")
    b = "def f(tree):\n    return tree.size, tree._axis\n"
    assert unread_self_attributes({"a.py": a}, {"b.py": b}) == [
        "_axis (a.py line 4)", "count (a.py line 5)"]


def test_every_self_attribute_is_read():
    package = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for p in sorted((ROOT / "tests").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))}
    assert unread_self_attributes(package, readers) == []
