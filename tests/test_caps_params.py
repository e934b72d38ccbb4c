"""Every `caps` parameter in the package is read, and has one default.

A function reads its `caps` when it uses the name in any way other than as
an argument of a call, or when it passes it to a function whose own `caps`
is read, or to a callee the package does not define.  Callees are resolved
by name over `src/classlab/*.py` (a class name stands for its `__init__`),
so a parameter that only travels down to functions that ignore it is found.

A `caps` parameter either has no default or defaults to `DEFAULT_CAPS`; it
is never optional, so no function resolves a missing value itself.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "classlab"


def _takes_caps(node: ast.AST) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False
    a = node.args
    return any(p.arg == "caps" for p in a.posonlyargs + a.args + a.kwonlyargs)


def _callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _caps_uses(fn: ast.AST) -> tuple[bool, set[str | None]]:
    """(caps read other than as a call argument, names of calls it is passed to)."""
    parents: dict[ast.AST, ast.AST] = {}
    stack = [fn]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            # A nested function with its own `caps` is checked on its own.
            if _takes_caps(child):
                continue
            parents[child] = node
            stack.append(child)
    direct, callees = False, set()
    for node in parents:
        if not (isinstance(node, ast.Name) and node.id == "caps"
                and isinstance(node.ctx, ast.Load)):
            continue
        up = parents[node]
        if isinstance(up, ast.keyword):
            up = parents[up]
        if isinstance(up, ast.Call) and up.func is not node:
            callees.add(_callee_name(up))
        else:
            direct = True
    return direct, callees


def unused_caps(paths) -> list[str]:
    """Qualified names of functions whose `caps` parameter is never read."""
    uses: dict[str, tuple[bool, set]] = {}
    by_name: dict[str, list[str]] = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in [None] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            body = tree.body if cls is None else cls.body
            for fn in body:
                if not _takes_caps(fn):
                    continue
                qual = f"{path.stem}.{cls.name + '.' if cls else ''}{fn.name}"
                uses[qual] = _caps_uses(fn)
                by_name.setdefault(fn.name, []).append(qual)
                if cls is not None and fn.name == "__init__":
                    by_name.setdefault(cls.name, []).append(qual)
    live = {q for q, (direct, _) in uses.items() if direct}
    grew = True
    while grew:
        grew = False
        for q, (_, callees) in uses.items():
            if q in live:
                continue
            if any(name not in by_name or any(c in live for c in by_name[name])
                   for name in callees):
                live.add(q)
                grew = True
    return sorted(set(uses) - live)


def _caps_param(fn: ast.AST) -> tuple[ast.arg, ast.expr | None]:
    """The `caps` parameter of a function and its default (None for none)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaults = [None] * (len(positional) - len(a.defaults)) + list(a.defaults)
    pairs = list(zip(positional, defaults)) + list(zip(a.kwonlyargs, a.kw_defaults))
    return next((p, d) for p, d in pairs if p.arg == "caps")


def misdefaulted_caps(paths) -> list[str]:
    """Names of functions whose `caps` has a default other than DEFAULT_CAPS
    or an annotation that admits None."""
    bad = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not _takes_caps(fn):
                continue
            param, default = _caps_param(fn)
            wrong_default = default is not None and not (
                isinstance(default, ast.Name) and default.id == "DEFAULT_CAPS")
            optional = param.annotation is not None and "None" in ast.unparse(param.annotation)
            if wrong_default or optional:
                bad.append(f"{path.stem}.{getattr(fn, 'name', '<lambda>')}")
    return sorted(bad)


def test_every_caps_parameter_is_read():
    assert unused_caps(sorted(SRC.glob("*.py"))) == []


def test_finds_caps_only_passed_to_functions_that_ignore_it(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def leaf(x, caps=None):\n    return x\n"
        "def relay(x, caps=None):\n    return leaf(x, caps=caps)\n"
        "def reader(x, caps=None):\n    return caps.enum_cap\n"
        "def outer(x, caps=None):\n    return reader(x, caps)\n"
        "def foreign(x, caps=None):\n    return print(x, caps)\n"
        "class Box:\n"
        "    def __init__(self, caps=None):\n        self.n = 1\n"
        "    def make(self, caps=None):\n        return Box(caps)\n")
    assert unused_caps([src]) == ["mod.Box.__init__", "mod.Box.make", "mod.leaf",
                                  "mod.relay"]


def test_every_caps_parameter_defaults_to_default_caps():
    assert misdefaulted_caps(sorted(SRC.glob("*.py"))) == []


def test_finds_caps_defaults_other_than_default_caps(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def required(x, caps):\n    return caps\n"
        "def shared(x, caps=DEFAULT_CAPS):\n    return caps\n"
        "def keyword(x, *, caps=DEFAULT_CAPS):\n    return caps\n"
        "def none(x, caps=None):\n    return caps\n"
        "def fresh(x, caps=Caps()):\n    return caps\n"
        "def optional(x, caps: Caps | None = DEFAULT_CAPS):\n    return caps\n"
        "def keyword_none(x, *, caps=None):\n    return caps\n")
    assert misdefaulted_caps([src]) == ["mod.fresh", "mod.keyword_none", "mod.none",
                                        "mod.optional"]
