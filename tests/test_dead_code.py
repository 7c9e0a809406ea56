"""Every function, class and method in the package has a use in the package,
every ``__slots__`` entry and every module-level name is read somewhere in
it, every parameter is read in its function, no module imports another's
private names, and every ``module.name`` a docstring or comment cites
exists.

A name counts as used when some module of ``src/scopeshield`` mentions it as
a bare name or as an attribute; being exported is no use. Dunders and the
few helpers listed in ``KEPT`` are exempt. A slot counts as read only
when some module loads it as an attribute (``x.slot`` in a ``Load``
context); a slot that is only ever written is state nothing reads.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scopeshield"

KEPT = {
    "decode_payload": "Python mirror of the JS decoder, the round-trip oracle for encode_payload",
    "save_cases": "writes the case manifest that load_cases and `verify --cases` read",
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_used_in_the_package():
    defined = {}
    used = set()
    for path, module in _modules():
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = {
        name: where
        for name, where in defined.items()
        if name not in used
        and name not in KEPT
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert dead == {}
    assert set(KEPT) <= set(defined), "a kept helper no longer exists"


def test_every_slot_is_read_in_the_package():
    slots = {}
    read = set()
    for path, module in _modules():
        for node in ast.walk(module):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                    ):
                        for name in ast.literal_eval(stmt.value):
                            slots[f"{node.name}.{name}"] = f"{path.name}:{stmt.lineno}"
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert slots, "no __slots__ found: the scan is broken"
    unread = {slot: where for slot, where in slots.items() if slot.split(".")[1] not in read}
    assert unread == {}


def _assigned_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for item in target.elts:
            yield from _assigned_names(item)


def test_every_module_level_name_is_read_in_the_package():
    assigned = {}
    read = set()
    for path, module in _modules():
        for stmt in module.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else []
            if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                for name in _assigned_names(target):
                    assigned.setdefault(name, f"{path.name}:{stmt.lineno}")
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert assigned, "no module-level assignment found: the scan is broken"
    unread = {
        name: where
        for name, where in assigned.items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    }
    assert unread == {}


def test_every_parameter_is_read():
    # a parameter no body reads is an argument every caller computes for nothing
    functions = 0
    unread = []
    for path, module in _modules():
        for node in ast.walk(module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            functions += 1
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                arg for arg in (args.vararg, args.kwarg) if arg is not None
            ]
            read = {
                name.id
                for name in ast.walk(node)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.lineno} {param.arg}"
                for param in params
                if param.arg not in ("self", "cls") and param.arg not in read
            ]
    assert functions, "no function found: the scan is broken"
    assert unread == []


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is part of its interface: no underscore
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path, module in _modules()
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "scopeshield")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# a double-backticked ``word.name`` in the package's sources
_DOTTED_REFERENCE = re.compile(r"``([a-z_][a-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)``")


def _top_level_names(module):
    names = set()
    for stmt in module.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                names.update(_assigned_names(target))
    return names


def _bound_names(module):
    """Every name ``module`` binds anywhere: its parameters, variables,
    functions, classes and imports."""
    bound = set()
    for node in ast.walk(module):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return bound


def test_every_cited_module_name_exists():
    # ``module.name`` in a docstring or comment: a word the citing module
    # binds (``config.minify``) is a value, not a module; any other word
    # names a package module, which must exist and define ``name`` at its
    # top level. ``scopeshield.module`` names a module of the package.
    modules = {path.stem: module for path, module in _modules()}
    top_level = {stem: _top_level_names(module) for stem, module in modules.items()}
    cited = 0
    unresolved = []
    for path, module in _modules():
        bound = _bound_names(module)
        for match in _DOTTED_REFERENCE.finditer(path.read_text(encoding="utf-8")):
            word, name = match.groups()
            if word in bound:
                continue
            cited += 1
            if word == PACKAGE.name:
                found = name in modules
            else:
                found = name in top_level.get(word, ())
            if not found:
                unresolved.append(f"{path.name}: {match.group()}")
    assert cited, "no module reference found: the scan is broken"
    assert unresolved == []
