"""Every module-level import in the package's modules is used.

A name bound by a top-level `import` or `from … import` in
`src/classlab/*.py` (other than `__init__.py`, which re-exports) must be
loaded somewhere in that module; a quoted annotation counts as a use of the
names it mentions.

Only `perm.py` assigns a group's stabilizer chain: every other module hands
a chain it built to `PermGroup(..., chain=...)`.
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
