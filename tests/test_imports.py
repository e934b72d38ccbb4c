"""Every module-level import in the package's modules is used.

A name bound by a top-level `import` or `from … import` in
`src/classlab/*.py` (other than `__init__.py`, which re-exports) must be
loaded somewhere in that module; a quoted annotation counts as a use of the
names it mentions.

Only `perm.py` assigns a group's stabilizer chain: every other module hands
a chain it built to `PermGroup(..., chain=...)`.  Only `perm.py` touches a
group's `_cache`: every other module caches through `PermGroup.cached`.
Only `perm.py` multiplies permutations by hand, with `itemgetter` or
`map(p.__getitem__, …)`: every other module goes through its primitives.
Only `ClassEval.member` writes an entry of the evaluator's memo: every other
verdict, a `hat` verdict included, is recorded by going through it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "classlab"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation such as "StabChain" uses the names it mentions.
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return [f"{path.stem}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_module_imports_an_unused_name():
    found = [u for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for u in unused_imports(path)]
    assert found == []


def test_finds_unused_plain_and_from_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport json as j\n"
        "from typing import Any, Iterable\n"
        "def f(x: 'Iterable') -> int:\n    return math.floor(x)\n")
    assert unused_imports(src) == ["mod:3 os", "mod:4 j", "mod:5 Any"]


def chain_writes(path: Path) -> list[str]:
    """Assignments to an attribute named `_chain` in the module at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found += [f"{path.stem}:{node.lineno}" for t in targets for sub in ast.walk(t)
                  if isinstance(sub, ast.Attribute) and sub.attr == "_chain"]
    return found


def test_only_perm_assigns_a_chain():
    found = [w for path in sorted(SRC.glob("*.py")) if path.name != "perm.py"
             for w in chain_writes(path)]
    assert found == []


def test_finds_chain_writes(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("G._chain = c\nG._chain: object = c\nG.chain = c\na, H._chain = 1, 2\n")
    assert chain_writes(src) == ["mod:1", "mod:2", "mod:4"]


def cache_uses(path: Path) -> list[str]:
    """Reads and writes of an attribute named `_cache` in the module at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.stem}:{line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_cache")]


def test_only_perm_touches_a_group_cache():
    found = [u for path in sorted(SRC.glob("*.py")) if path.name != "perm.py"
             for u in cache_uses(path)]
    assert found == []


def test_finds_cache_reads_and_writes(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = G._cache.get('k')\nG._cache = {}\nG.cache = 1\n"
                   "del H._cache['k']\nf(cache=G.cached)\n")
    assert cache_uses(src) == ["mod:1", "mod:2", "mod:4"]


def product_kernels(path: Path) -> list[str]:
    """Uses of `itemgetter` and calls `map(<x>.__getitem__, …)` in the module at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            hit = any(alias.name == "itemgetter" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "itemgetter"
        elif isinstance(node, ast.Call):
            hit = (isinstance(node.func, ast.Name) and node.func.id == "map" and node.args
                   and isinstance(node.args[0], ast.Attribute)
                   and node.args[0].attr == "__getitem__")
        else:
            hit = False
        if hit:
            found.add(node.lineno)
    return [f"{path.stem}:{line}" for line in sorted(found)]


def test_only_perm_multiplies_permutations():
    found = [u for path in sorted(SRC.glob("*.py")) if path.name != "perm.py"
             for u in product_kernels(path)]
    assert found == []


def test_finds_itemgetter_and_getitem_maps(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from operator import itemgetter, eq\nimport operator\n"
                   "f = operator.itemgetter(1, 0)\nt = tuple(map(a.__getitem__, b))\n"
                   "u = map(len, b)\nv = a.__getitem__(0)\nw = list(map(x.get, b))\n")
    assert product_kernels(src) == ["mod:1", "mod:3", "mod:4"]


def memo_writes(path: Path) -> list[str]:
    """Subscript assignments (plain, augmented, annotated, or `del`) to an
    attribute named `_memo` in the module at path, each named by the
    function or class around it and its line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, (ast.Assign, ast.Delete)):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            else:
                targets = []
            if any(isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Attribute)
                   and sub.value.attr == "_memo" for t in targets for sub in ast.walk(t)):
                found.append(f"{path.stem}:{'.'.join(scope) or '<module>'}:{child.lineno}")
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_member_writes_the_class_memo():
    writers = {w.rsplit(":", 1)[0] for path in sorted(SRC.glob("*.py"))
               for w in memo_writes(path)}
    assert writers == {"classes:ClassEval.member"}


def test_finds_memo_writes_by_scope(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "class E:\n"
        "    def member(self, k):\n"
        "        self._memo[k] = True\n"
        "    def other(self, k):\n"
        "        self._memo[k], n = False, 1\n"
        "        x = self._memo.get(k)\n"
        "        self._memo = {}\n"
        "        del self._memo[k]\n"
        "def f(ev, k):\n"
        "    ev._memo[k] += 1\n"
        "    ev.memo[k] = 1\n"
        "ev._memo[0]: bool = True\n")
    assert memo_writes(src) == ["mod:E.member:3", "mod:E.other:5", "mod:E.other:8",
                                "mod:f:10", "mod:<module>:12"]
