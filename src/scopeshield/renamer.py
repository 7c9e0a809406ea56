"""Scope-aware shortest-identifier renaming.

Scopes are processed ancestor-first, in scope id order, which is pre-order;
each scope restarts assignment from the shortest pool name against its own
forbidden set, so sibling scopes reuse the same short names. A scope's
forbidden set contains the output name of every outer binding that is
referenced anywhere in the scope's subtree (the subtree part closes the
shadow-capture gap a naive "visible here" rule leaves open), plus every
frozen name visible there.

The rename map is a list of output names indexed by binding id. Every
occurrence's binding id is read from the occurrence table's ``bindings``
column, which the scope tree resolved once. ``check_safety`` is an independent oracle: it resolves
every occurrence again, by its own walk under the renamed names, and
reports any occurrence whose stored binding that walk does not reach. The
renamed text is written by ``patches.emit``, which reads each occurrence's
output name from the map.
"""

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, product

from .errors import OrderViolation
from .scopes import BLOCK, BODY, FUNCTION_DECL, GLOBAL, GLOBAL_SCOPE, IMPORT, RANKS
from .tokens import RESERVED_WORDS

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def name_sequence(excluded=frozenset(), alphabet=ALPHABET):
    """Yield candidate identifiers in non-decreasing length order (a..z, aa,
    ab, ...), skipping reserved words and ``excluded``."""
    length = 1
    while True:
        for letters in product(alphabet, repeat=length):
            name = "".join(letters)
            if name in RESERVED_WORDS or name in excluded:
                continue
            yield name
        length += 1


def dump_lines(tree, outputs):
    """`file#scopeId<TAB>original<TAB>renamed` lines of the declared
    bindings of ``tree`` under ``outputs``, deterministic order."""
    return sorted(
        f"{tree.file_id}#{sid}\t{name}\t{outputs[bid]}"
        for sid, decls in enumerate(tree.declarations)
        if decls is not None
        for name, bid in decls.items()
    )


def ancestor_references(tree, subtree_refs=True):
    """The outer bindings each scope references, as two int arrays sorted
    together by scope: (scope ids, binding ids).

    With ``subtree_refs`` a binding is charged to every scope between an
    occurrence of it and its declaring scope; without it (the naive
    visibility reading) only to the occurrence's own scope. A global is
    charged up to the module scope.
    """
    count, home, parents = len(tree.bindings), tree.bindings.scope_ids, tree.parents
    charged = set()  # scope id * count + binding id
    for sid, bid in zip(tree.occurrences.scope_ids, tree.occurrences.bindings):
        stop = home[bid]
        while sid != stop:
            key = sid * count + bid
            if key in charged:  # and so is every scope up to ``stop``
                break
            charged.add(key)
            if not subtree_refs:
                break
            sid = parents[sid]
    keys = sorted(charged)
    del charged
    return array("i", [key // count for key in keys]), array("i", [key % count for key in keys])


def forbidden_set(scope_id, outputs, refs):
    """Names scope ``scope_id`` may not hand out, given the tree's
    ``ancestor_references`` and the output names decided so far (None for
    a binding not renamed yet).

    Raises OrderViolation when an outer binding has not been renamed yet,
    which would mean scopes are being processed out of ancestor-first order.
    """
    scopes, bindings = refs
    forbidden = set()
    lo, hi = bisect_left(scopes, scope_id), bisect_right(scopes, scope_id)
    for bid in bindings[lo:hi]:
        name = outputs[bid]
        if name is None:
            raise OrderViolation(f"binding {bid} must be renamed before scope {scope_id}")
        forbidden.add(name)
    return forbidden


def frozen_names(tree, summary):
    """{name: reason} for the module-level names of one file that keep their
    spelling: each module-level declaration of a script ("script global"),
    since all scripts share one global namespace (Terser and UglifyJS keep
    them by default too), and an ES module's export locals ("export"). Import
    bindings need no entry: ``frozen_bindings`` keeps them."""
    if summary.kind == "script":
        return dict.fromkeys(tree.declarations[tree.root] or (), "script global")
    return dict.fromkeys(summary.export_locals, "export")


def frozen_bindings(tree, frozen_module_names=()):
    """A flag per binding id: 1 if the binding keeps its original name.

    Frozen: every binding visible at a dynamic scope (the scope itself and
    all its ancestors, since evaluated code may reference anything in sight),
    import bindings, the module-level ``frozen_module_names`` (a file's
    ``frozen_names``), and each function declared in a block with every
    binding of its name on the scope chain: sloppy code also binds it in the
    enclosing function (Annex B.3.3).
    """
    frozen = bytearray(len(tree.bindings))
    pinned = set(frozen_module_names)
    categories = tree.bindings.categories
    declarations, parents = tree.declarations, tree.parents
    tainted = bytearray(len(tree))  # the scopes with a dynamic scope in their subtree
    for sid, dynamic in enumerate(tree.dynamic):
        while dynamic and sid != GLOBAL_SCOPE and not tainted[sid]:
            tainted[sid] = 1
            sid = parents[sid]
    for sid, decls in enumerate(declarations):
        if decls is None:
            continue
        for name, bid in decls.items():
            if tainted[sid] or categories[bid] == IMPORT or (sid == tree.root and name in pinned):
                frozen[bid] = 1
            if tree.kinds[sid] == BLOCK and categories[bid] == FUNCTION_DECL:
                chain = sid
                while chain != GLOBAL_SCOPE:
                    held = declarations[chain]
                    if held is not None and name in held:
                        frozen[held[name]] = 1
                    chain = parents[chain]
    return frozen


def rename_tree(tree, frozen_module_names=(), allowlist=(), subtree_refs=True, alphabet=ALPHABET):
    """Rename one file's tree; returns the output name of each binding id:
    a global's name, or the name each declared binding is renamed to (its
    own if frozen). A binding no scope holds, replaced by an earlier one of
    its name when a block was elided, gets None."""
    bindings = tree.bindings
    names, categories = bindings.names, bindings.categories
    outputs = [name if category == GLOBAL else None for name, category in zip(names, categories)]
    frozen = frozen_bindings(tree, frozen_module_names)
    refs = ancestor_references(tree, subtree_refs)
    # the enclosing function's Annex B binding of a block function may
    # capture or overwrite any other binding renamed to its name
    pool_excluded = frozenset(allowlist).union(
        names[bid]
        for bid in compress(range(len(frozen)), frozen)
        if categories[bid] == FUNCTION_DECL and tree.kinds[bindings.scope_ids[bid]] == BLOCK
    )
    for sid, decls in enumerate(tree.declarations):
        if decls is None:
            continue
        forbidden = forbidden_set(sid, outputs, refs)
        if tree.kinds[sid] == BODY:
            # a body declaration of a parameter's output name would start
            # from the parameter's value, or clash with it as a let
            forbidden.update(outputs[bid] for bid in tree.declarations[tree.parents[sid]].values())
        for name, bid in decls.items():
            if frozen[bid]:
                forbidden.add(name)
        pool = name_sequence(pool_excluded, alphabet)
        for bid in sorted(decls.values(), key=lambda bid: (RANKS[categories[bid]], bid)):
            if frozen[bid]:
                outputs[bid] = names[bid]
                continue
            candidate = next(pool)
            while candidate in forbidden:
                candidate = next(pool)
            forbidden.add(candidate)
            outputs[bid] = candidate
    return outputs


class SafetyViolation:
    """A name whose renaming breaks a resolution: ``where`` is the span of
    the occurrence, or the scope that declares the name twice."""

    __slots__ = ("file_id", "name", "where", "reason")

    def __init__(self, file_id, name, where, reason):
        self.file_id = file_id
        self.name = name
        self.where = where
        self.reason = reason

    def __repr__(self):
        return f"SafetyViolation({self.file_id}, {self.name!r} at {self.where}: {self.reason})"


def check_safety(tree, outputs):
    """Resolve every occurrence of ``tree`` again under the output names
    ``outputs`` (one per binding id), by a walk of its own, and compare the
    result with the occurrence's stored binding.

    Returns a list of violations; empty means the renaming preserves every
    resolution. Also flags non-injective renaming within one scope, a body
    scope and its parameters' scope counting as one.

    The walk holds a map {output name: binding id} only for each scope on
    the chain open at the current occurrence. Occurrences come in source
    order and scope ids in pre-order, so the chain mostly changes at its
    inner end; a scope left and met again gets its map built again.
    """
    violations = []

    def violation(name, where, reason):
        violations.append(SafetyViolation(tree.file_id, name, where, reason))

    declarations, parents = tree.declarations, tree.parents
    names, home, occurrences = tree.bindings.names, tree.bindings.scope_ids, tree.occurrences
    for sid, decls in enumerate(declarations):
        seen = {}  # output name -> the name it renames
        if tree.kinds[sid] == BODY:  # a body may reuse a parameter's name only as written
            seen = {outputs[b]: names[b] for b in declarations[parents[sid]].values()}
        for name, bid in (decls or {}).items():
            new_name = outputs[bid]
            if seen.setdefault(new_name, name) != name:
                violation(name, f"scope {sid}", f"two declarations map to {new_name!r}")
    chain = {GLOBAL_SCOPE: {}}  # the open chain, outermost first: scope id -> its map
    top = GLOBAL_SCOPE
    for start, sid, bid in zip(occurrences.starts, occurrences.scope_ids, occurrences.bindings):
        if sid != top:
            entered = []
            scope = top = sid
            while scope not in chain:
                entered.append(scope)
                scope = parents[scope]
            while next(reversed(chain)) != scope:
                chain.popitem()
            for scope in reversed(entered):
                chain[scope] = {outputs[b]: b for b in (declarations[scope] or {}).values()}
        name, new_name = names[bid], outputs[bid]
        resolved = None
        for by_output in reversed(chain.values()):
            resolved = by_output.get(new_name)
            if resolved is not None:
                break
        span = (start, start + len(name))
        if resolved is None:
            if home[bid] != GLOBAL_SCOPE:
                violation(name, span, f"{new_name!r} no longer resolves to a declaration")
        elif resolved != bid:
            violation(name, span, f"{new_name!r} is captured by scope {home[resolved]}")
    return violations
