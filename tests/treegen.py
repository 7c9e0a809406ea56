"""Random ScopeTree generator for renamer property tests.

Builds synthetic trees directly as the tree's tables (no JS source), so the
shapes cover arbitrary nesting, shadowing and reference patterns. Scopes
are made in pre-order, as ``ScopeBuilder.finish`` numbers them. Spans are
synthetic but consistent; as in ``ScopeBuilder``, each declaration site is
an occurrence of its binding.
"""

from scopeshield.scopes import (
    BLOCK,
    DECL,
    FUNCTION,
    GLOBAL_SCOPE,
    LEXICAL,
    MODULE,
    PARAM,
    VAR,
    ScopeTree,
)

NAMES = ["item", "count", "value", "node", "temp", "data", "res", "key", "idx", "acc"]
GLOBALS = ["console", "Math", "GameGlobal", "JSON"]


def random_scope_tree(rng, max_depth=6, max_bindings=30, file_id="gen.js"):
    tree = ScopeTree(file_id)
    span = 0
    root = tree.new_scope(MODULE, GLOBAL_SCOPE, 0, 1 << 20)
    budget = rng.randrange(1, max_bindings + 1)

    def grow(parent, depth):
        nonlocal span
        if depth >= max_depth:
            return
        for _ in range(rng.randrange(0, 3)):
            span += 100
            kind = FUNCTION if rng.random() < 0.7 else BLOCK
            grow(tree.new_scope(kind, parent, span, span + 90), depth + 1)

    grow(root, 1)
    scopes = range(len(tree))

    # declarations: names repeat across scopes to force shadowing
    names = []  # each occurrence's name
    placed = 0
    while placed < budget:
        sid = rng.choice(scopes)
        name = rng.choice(NAMES)
        decls = tree.declarations[sid] or {}
        if name in decls:
            placed += 1  # avoid livelock on tiny trees
            continue
        start = tree.starts[sid] + len(decls) + 1
        tree.declare(sid, name, rng.choice([VAR, LEXICAL, PARAM]))
        names.append(name)
        tree.occurrences.add(start, sid, DECL)
        placed += 1

    # references: visible names and the occasional global
    for sid in scopes:
        visible = []
        chain = sid
        while chain != GLOBAL_SCOPE:
            visible.extend(tree.declarations[chain] or ())
            chain = tree.parents[chain]
        for _ in range(rng.randrange(0, 5)):
            if visible and rng.random() < 0.8:
                name = rng.choice(visible)
            else:
                name = rng.choice(GLOBALS)
            pos = tree.starts[sid] + rng.randrange(0, 80)
            names.append(name)
            tree.occurrences.add(pos, sid)

    tree.resolve_occurrences(names)
    return tree
