"""Every top-level definition in ``src/ffunits``, and every non-dunder
member of its classes, is reached by a command or by the benchmark.

Reachability is read from the source with ``ast`` and run to a fixpoint.
The roots are ``cli.main`` (the console script), the module-level code of
every module other than its imports and definitions, and every name,
attribute or string identifier in ``bench/*.py`` except ``test_*``; a bench
name reaches a definition or a member of that name in any module.  Reached
code reaches what it names: a bare name through its module's own
definitions and ``from .x import y`` bindings, and ``mod.name`` through
``from . import mod``.  Imports alone reach nothing, so an export of
``__init__`` that nothing runs is still unreached.

The code of a reached function is its whole source; the code of a reached
class is its source less its non-dunder methods, which the interpreter
calls only by name.  Such a member (a method, property or classmethod) of a
reached class is reached when reached code reads its name as an attribute,
when it is a bench name, or when it overrides a method of a base class from
outside the package (``argparse`` calls ``cli._Parser.error``); the code of
a reached member is its whole source.

A second check reads every module other than ``__init__`` (whose imports
are its exports) and fails on a name that an import binds and the module
never reads, a leftover that the reachability walk does not see.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ffunits"
BENCH = ROOT / "bench"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _is_member(node):
    return isinstance(node, METHODS) and not node.name.startswith("__")


def _members(defs):
    """(module, class, name) -> method node, for every non-dunder method."""
    return {
        (mod, cls, node.name): node
        for mod in defs
        for cls, class_node in defs[mod].items()
        if isinstance(class_node, ast.ClassDef)
        for node in class_node.body
        if _is_member(node)
    }


def _code(node):
    """The nodes a reached definition runs: a class less its named members."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.decorator_list, *node.bases, *node.keywords,
            *(sub for sub in node.body if not _is_member(sub))]


def _resolve(mod, name, defs, imported):
    """The definition a name bound in mod refers to, following re-exports."""
    while name not in defs.get(mod, {}):
        if name not in imported.get(mod, {}):
            return None
        mod, name = imported[mod][name]
    return mod, name


def _references(mod, nodes, defs, imported, aliases):
    """The definitions and the attribute names that the code in nodes reads."""
    out, attrs = set(), set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            out.add(_resolve(mod, sub.id, defs, imported))
        elif isinstance(sub, ast.Attribute):
            if isinstance(sub.value, ast.Name) and sub.value.id in aliases[mod]:
                out.add(_resolve(aliases[mod][sub.value.id], sub.attr, defs, imported))
            elif isinstance(sub.ctx, ast.Load):
                attrs.add(sub.attr)
    out.discard(None)
    return out, attrs


def _overrides_outside(mod, cls, name):
    """Whether a base class from outside the package defines mod.cls.name."""
    live = getattr(importlib.import_module(f"ffunits.{mod}"), cls)
    return any(
        name in vars(base)
        for base in live.__mro__[1:]
        if not base.__module__.startswith("ffunits")
    )


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
    members = _members(defs)
    bench = _bench_names()
    reached, attrs, todo = set(), set(bench), [("cli", "main")]
    todo += [(mod, name) for mod in defs for name in defs[mod] if name in bench]
    for mod, tree in modules.items():
        body = [node for node in tree.body if not isinstance(node, (*DEFS, ast.Import, ast.ImportFrom))]
        refs, read = _references(mod, body, defs, imported, aliases)
        todo += refs
        attrs |= read
    while todo:
        while todo:
            key = todo.pop()
            if key in reached:
                continue
            reached.add(key)
            mod, *path = key
            node = members[key] if len(path) == 2 else defs[mod][path[0]]
            refs, read = _references(mod, _code(node), defs, imported, aliases)
            todo += refs
            attrs |= read
        todo = [
            key for key in members
            if key not in reached and (key[0], key[1]) in reached
            and (key[2] in attrs or _overrides_outside(*key))
        ]
    everything = [(mod, name) for mod in defs for name in defs[mod]] + list(members)
    return sorted(".".join(key) for key in everything if key not in reached)


def test_every_definition_is_reached_by_a_command_or_the_benchmark():
    assert unreached_definitions() == []


def unused_imports():
    """Per module of ``src/ffunits`` other than ``__init__`` (whose imports
    are its exports), each name an import statement binds that the module
    never reads, as ``module.name``."""
    out = []
    for mod, tree in _modules().items():
        if mod == "__init__":
            continue
        nodes = list(ast.walk(tree))
        read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                out += [f"{mod}.{name}" for name in bound if name not in read]
    return sorted(out)


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports() == []
