"""Every top-level definition in ``src/ffunits`` is reached by a command or
by the benchmark.

Reachability is read from the source with ``ast`` and run to a fixpoint.
The roots are ``cli.main`` (the console script), the module-level code of
every module other than its imports and definitions, and every name,
attribute or string identifier in ``bench/*.py`` except ``test_*``; a bench
name reaches a definition of that name in any module.  A reached
definition reaches what its whole source names: a bare name through its
module's own definitions and ``from .x import y`` bindings, and
``mod.name`` through ``from . import mod``.  Imports alone reach nothing,
so an export of ``__init__`` that nothing runs is still unreached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ffunits"
BENCH = ROOT / "bench"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _bindings(modules):
    """Per module, its defined names -> (module, name) and its module aliases."""
    defs, imported, aliases = {}, {}, {}
    for mod, tree in modules.items():
        defs[mod] = {node.name: node for node in tree.body if isinstance(node, DEFS)}
        imported[mod], aliases[mod] = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        aliases[mod][bound] = alias.name
                    else:
                        imported[mod][bound] = (node.module, alias.name)
    return defs, imported, aliases


def _resolve(mod, name, defs, imported):
    """The definition a name bound in mod refers to, following re-exports."""
    while name not in defs.get(mod, {}):
        if name not in imported.get(mod, {}):
            return None
        mod, name = imported[mod][name]
    return mod, name


def _references(mod, node, defs, imported, aliases):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(_resolve(mod, sub.id, defs, imported))
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in aliases[mod]
        ):
            out.add(_resolve(aliases[mod][sub.value.id], sub.attr, defs, imported))
    out.discard(None)
    return out


def _bench_names():
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return {n for n in names if not n.startswith("test_")}


def unreached_definitions():
    modules = _modules()
    defs, imported, aliases = _bindings(modules)
    bench = _bench_names()
    todo = {("cli", "main")}
    todo |= {(mod, name) for mod in defs for name in defs[mod] if name in bench}
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (*DEFS, ast.Import, ast.ImportFrom)):
                todo |= _references(mod, node, defs, imported, aliases)
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            mod, name = key
            todo |= _references(mod, defs[mod][name], defs, imported, aliases)
    return sorted(f"{mod}.{name}" for mod in defs for name in defs[mod] if (mod, name) not in reached)


def test_every_definition_is_reached_by_a_command_or_the_benchmark():
    assert unreached_definitions() == []
