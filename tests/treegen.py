"""Random ScopeTree generator for renamer property tests.

Builds synthetic trees directly (no JS source) so the shapes cover arbitrary
nesting, shadowing and reference patterns. Spans are synthetic but
consistent; as in ``ScopeBuilder``, each declaration site is an occurrence
of its binding.
"""

from scopeshield.scopes import BLOCK, DECL, FUNCTION, MODULE, Binding, ScopeTree

NAMES = ["item", "count", "value", "node", "temp", "data", "res", "key", "idx", "acc"]
GLOBALS = ["console", "Math", "GameGlobal", "JSON"]


def random_scope_tree(rng, max_depth=6, max_bindings=30, file_id="gen.js"):
    tree = ScopeTree(file_id)
    span = 0
    order = 0
    root = tree.new_scope(MODULE, None, 0, 1 << 20)
    scopes = [root]
    budget = rng.randrange(1, max_bindings + 1)

    def grow(parent, depth):
        nonlocal span
        if depth >= max_depth:
            return
        for _ in range(rng.randrange(0, 3)):
            span += 100
            kind = FUNCTION if rng.random() < 0.7 else BLOCK
            child = tree.new_scope(kind, parent.id, span, span + 90)
            scopes.append(child)
            grow(child, depth + 1)

    grow(root, 1)

    # declarations: names repeat across scopes to force shadowing
    placed = 0
    while placed < budget:
        scope = rng.choice(scopes)
        name = rng.choice(NAMES)
        if name in scope.declarations:
            placed += 1  # avoid livelock on tiny trees
            continue
        order += 1
        start = scope.start + len(scope.declarations) + 1
        category = rng.choice(["var", "lexical", "param"])
        scope.declarations[name] = Binding(scope.id, name, category, order)
        tree.occurrences.add(name, start, scope.id, DECL)
        placed += 1

    # references: visible names and the occasional global
    for scope in scopes:
        visible = []
        sid = scope.id
        while sid is not None:
            visible.extend(tree.nodes[sid].declarations)
            sid = tree.nodes[sid].parent
        for _ in range(rng.randrange(0, 5)):
            if visible and rng.random() < 0.8:
                name = rng.choice(visible)
            else:
                name = rng.choice(GLOBALS)
            pos = scope.start + rng.randrange(0, 80)
            tree.occurrences.add(name, pos, scope.id)

    tree.resolve_occurrences()
    return tree

