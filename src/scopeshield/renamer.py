"""Scope-aware shortest-identifier renaming.

Scopes are processed ancestor-first; each scope restarts assignment from the
shortest pool name against its own forbidden set, so sibling scopes reuse the
same short names. A scope's forbidden set contains the output name of every
outer binding that is referenced anywhere in the scope's subtree (the subtree
part closes the shadow-capture gap a naive "visible here" rule leaves open),
plus every frozen name visible there.

Every occurrence's binding is read from the occurrence table's
``bindings`` column, which the scope tree resolved once. ``check_safety``
is an independent oracle: it resolves every occurrence again, by its own
walk under the renamed names, and reports any occurrence whose stored
binding that walk does not reach. The renamed text is written by
``patches.emit``, which reads each occurrence's output name from the
rename map, ``{Binding: output name}``; a binding absent from it keeps its
name.
"""

from collections import defaultdict
from itertools import product

from .errors import OrderViolation
from .scopes import BLOCK, Binding
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


def dump_lines(rename_map, file_id):
    """`file#scopeId<TAB>original<TAB>renamed` lines of the map of file
    ``file_id``, deterministic order."""
    return sorted(
        f"{file_id}#{binding.scope_id}\t{binding.name}\t{name}"
        for binding, name in rename_map.items()
    )


def ancestor_reference_map(tree, subtree_refs=True):
    """For each scope whose subtree references an outer binding, the set of
    those bindings.

    With ``subtree_refs`` the binding is charged to every scope between the
    occurrence and the declaring scope; without it (the naive visibility
    reading) only to the occurrence's own scope.
    """
    refs = defaultdict(set)
    occurrences = tree.occurrences
    for sid, binding in zip(occurrences.scope_ids, occurrences.bindings):
        if binding.scope_id == sid and not binding.is_global():
            continue
        if not subtree_refs:
            refs[sid].add(binding)
            continue
        while sid is not None and sid != binding.scope_id:
            refs[sid].add(binding)
            sid = tree.nodes[sid].parent
    return refs


def forbidden_set(scope_id, rename_map, anc_refs):
    """Names scope ``scope_id`` may not hand out, given the tree's
    ``ancestor_reference_map``.

    Raises OrderViolation when an outer binding has not been renamed yet,
    which would mean scopes are being processed out of ancestor-first order.
    """
    forbidden = set()
    for binding in anc_refs.get(scope_id, ()):
        if binding.is_global():
            forbidden.add(binding.name)
            continue
        name = rename_map.get(binding)
        if name is None:
            raise OrderViolation(
                f"scope {binding.scope_id} must be renamed before scope {scope_id}"
            )
        forbidden.add(name)
    return forbidden


def frozen_bindings(tree, frozen_module_names=()):
    """Bindings that keep their original names.

    Frozen: every binding visible at a dynamic scope (the scope itself and
    all its ancestors, since evaluated code may reference anything in sight),
    import bindings, module-level names pinned by the cross-file link
    (exports and shared implicit globals), and each function declared in a
    block with every binding of its name on the scope chain: sloppy code
    also binds it in the enclosing function (Annex B.3.3).
    """
    frozen = set()
    pinned = set(frozen_module_names)
    tainted = tree.scopes_with_dynamic_inside()
    for node in tree.nodes:
        for name, binding in node.declarations.items():
            if (
                node.id in tainted
                or binding.category == "import"
                or (node.id == tree.root and name in pinned)
            ):
                frozen.add(binding)
            if node.kind == BLOCK and binding.category == "function":
                sid = node.id
                while sid is not None:
                    scope = tree.nodes[sid]
                    if name in scope.declarations:
                        frozen.add(scope.declarations[name])
                    sid = scope.parent
    return frozen


def rename_tree(tree, frozen_module_names=(), allowlist=(), subtree_refs=True, alphabet=ALPHABET):
    """Rename one file's tree; returns ``{Binding: output name}`` covering
    every binding."""
    rename_map = {}
    frozen = frozen_bindings(tree, frozen_module_names)
    anc_refs = ancestor_reference_map(tree, subtree_refs)
    # the enclosing function's Annex B binding of a block function may
    # capture or overwrite any other binding renamed to its name
    pool_excluded = frozenset(allowlist).union(
        b.name
        for b in frozen
        if b.category == "function" and tree.nodes[b.scope_id].kind == BLOCK
    )
    for sid in tree.preorder():
        node = tree.nodes[sid]
        if not node.declarations:
            continue
        forbidden = forbidden_set(sid, rename_map, anc_refs)
        for name, binding in node.declarations.items():
            if binding in frozen:
                forbidden.add(name)
        names = name_sequence(pool_excluded, alphabet)
        for binding in sorted(node.declarations.values(), key=Binding.rank):
            if binding in frozen:
                rename_map[binding] = binding.name
                continue
            candidate = next(names)
            while candidate in forbidden:
                candidate = next(names)
            forbidden.add(candidate)
            rename_map[binding] = candidate
    return rename_map


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


def check_safety(tree, rename_map):
    """Resolve every occurrence of ``tree`` again under the renamed names,
    by a walk of its own, and compare the result with the occurrence's
    stored binding.

    Returns a list of violations; empty means the renaming preserves every
    resolution. Also flags non-injective renaming within one scope.
    """
    violations = []
    renamed_decls = []
    for node in tree.nodes:
        mapping = {}
        for name, binding in node.declarations.items():
            new_name = rename_map.get(binding, binding.name)
            if new_name in mapping:
                violations.append(
                    SafetyViolation(
                        tree.file_id,
                        name,
                        f"scope {node.id}",
                        f"two declarations map to {new_name!r}",
                    )
                )
            mapping[new_name] = binding
        renamed_decls.append(mapping)
    occurrences = tree.occurrences
    for name, start, sid, binding in zip(
        occurrences.names, occurrences.starts, occurrences.scope_ids, occurrences.bindings
    ):
        new_name = rename_map.get(binding, binding.name)
        resolved = None
        while sid is not None:
            hit = renamed_decls[sid].get(new_name)
            if hit is not None:
                resolved = hit
                break
            sid = tree.nodes[sid].parent
        if resolved is None:
            if not binding.is_global():
                violations.append(
                    SafetyViolation(
                        tree.file_id,
                        name,
                        (start, start + len(name)),
                        f"{new_name!r} no longer resolves to a declaration",
                    )
                )
        elif resolved is not binding:
            violations.append(
                SafetyViolation(
                    tree.file_id,
                    name,
                    (start, start + len(name)),
                    f"{new_name!r} is captured by scope {resolved.scope_id}",
                )
            )
    return violations

