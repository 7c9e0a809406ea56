"""Lexical scope analysis: scope tree construction and identifier resolution.

The parser builds each file's tree as it reads, through a ``ScopeBuilder``;
no syntax tree is walked. Each file gets its own tree rooted at a module
scope. Names that resolve past the module root belong to the (implicit,
program-wide) global scope; the tree keeps one binding with scope
``GLOBAL_SCOPE`` for each such name.

var declarations hoist to the nearest function or module scope; let/const,
class and function declarations bind in the nearest enclosing block (sloppy
scripts also bind a block's function in its function: Annex B, for which
the renamer keeps such names). A block, or a switch's case block, gets a
scope only when it directly contains a lexical declaration. The body of a
function with a parameter default is a scope (BODY) below the parameters',
where its vars hoist, as ECMA-262 makes it; a body var named like a
parameter is that parameter. A declaration's occurrence stands in the scope
where it is written, also a hoisted var's. A scope that directly contains
eval, `with` or a Function constructor call is flagged dynamic. Code in it
or below it may read any name on its scope chain: the renamer freezes the
bindings of the dynamic scope and its ancestors, and the parser drops the
transform candidates read in the dynamic scope or below it.

A tree holds no object per scope, per declaration or per identifier
occurrence: a large bundle has tens of thousands of each from the parse to
the emit. Scopes, bindings and occurrences are each a table of parallel
columns, and they refer to one another by id, an index into a table.
"""

from array import array

from .errors import ParseError, UnknownScope, UnsupportedSyntax

GLOBAL_SCOPE = -1

# scope kinds
MODULE = 0
FUNCTION = 1
BLOCK = 2
BODY = 3  # a function body below its parameters' scope
KIND_NAMES = ("module", "function", "block", "body")

# binding categories: the parser's "import", "param", "catch", "function"
# (a declaration), "fnexpr" (a function expression's own name), "var" and
# "lexical"; GLOBAL is a name read free
IMPORT, PARAM, CATCH, FUNCTION_DECL, FUNCTION_EXPR, VAR, LEXICAL, GLOBAL = range(8)
# assignment order within a scope, by category: imports, params, hoisted
# functions, var, lexical; then declaration order
RANKS = (0, 1, 1, 2, 2, 3, 4, 4)


class Bindings:
    """A file's bindings as parallel columns indexed by binding id:
    ``names``, ``scope_ids`` (an int array) and ``categories`` (a byte
    each). Ids follow declaration order; a global's id is made when its
    name is first resolved, after every declaration.
    """

    __slots__ = ("names", "scope_ids", "categories")

    def __init__(self):
        self.names = []
        self.scope_ids = array("i")
        self.categories = bytearray()

    def __len__(self):
        return len(self.names)

    def add(self, name, scope_id, category):
        """A new binding; returns its id."""
        self.names.append(name)
        self.scope_ids.append(scope_id)
        self.categories.append(category)
        return len(self.names) - 1


# occurrence styles
REF = 0  # a reference
DECL = 1  # the name a declaration binds
SHORTHAND = 2  # a shorthand property `{x}`, emitted as `{x: y}` when renamed


class Occurrences:
    """A file's identifier occurrences, in the order the parser read them,
    as parallel columns: ``starts`` and ``scope_ids`` (int arrays),
    ``styles`` (a byte each: REF, DECL or SHORTHAND) and ``bindings``, each
    one's binding id, an int array that ``ScopeTree.resolve_occurrences``
    fills. An occurrence's name is its binding's, and identifiers lex
    ASCII-only, so occurrence ``i`` spans ``[starts[i], starts[i] +
    len(name))``.
    """

    __slots__ = ("starts", "scope_ids", "styles", "bindings")

    def __init__(self):
        # 4-byte ints: a file task could not hold a 2 GiB file's facts
        self.starts = array("i")
        self.scope_ids = array("i")
        self.styles = bytearray()
        self.bindings = array("i")

    def __len__(self):
        return len(self.starts)

    def add(self, start, scope_id, style=REF):
        self.starts.append(start)
        self.scope_ids.append(scope_id)
        self.styles.append(style)


class ScopeTree:
    """A file's scopes as parallel columns indexed by scope id, with its
    bindings and its occurrence table.

    Scope ``sid`` has ``parents[sid]`` (``GLOBAL_SCOPE`` for the module
    scope, ``root``), ``kinds[sid]``, the span ``[starts[sid],
    ends[sid])``, ``dynamic[sid]`` (1 if a dynamic site is directly in it)
    and ``declarations[sid]``: ``{name: binding id}``, or None if it
    declares nothing. Ids are in pre-order, so a scope's parent has a
    smaller id. ``globals`` maps each name read free to its binding id.
    """

    root = 0

    __slots__ = (
        "file_id", "parents", "kinds", "starts", "ends", "dynamic",
        "declarations", "bindings", "occurrences", "globals",
    )

    def __init__(self, file_id):
        self.file_id = file_id
        self.parents = array("i")
        self.kinds = bytearray()
        self.starts = array("i")
        self.ends = array("i")
        self.dynamic = bytearray()
        self.declarations = []
        self.bindings = Bindings()
        self.occurrences = Occurrences()
        self.globals = {}

    def __len__(self):
        return len(self.kinds)

    def new_scope(self, kind, parent, start, end):
        """A new scope; returns its id."""
        self.parents.append(parent)
        self.kinds.append(kind)
        self.starts.append(start)
        self.ends.append(end)
        self.dynamic.append(0)
        self.declarations.append(None)
        return len(self.kinds) - 1

    def declare(self, sid, name, category):
        """A new binding of ``name`` in scope ``sid``, in place of any it
        held; returns its id."""
        decls = self.declarations[sid] = self.declarations[sid] or {}
        decls[name] = bid = self.bindings.add(name, sid, category)
        return bid

    def resolve(self, name, scope_id):
        """Def-style recursive resolution to the id of the declaring scope's
        binding; falls through to the tree's global binding for the name
        (made on first use) when no scope on the chain declares it."""
        if scope_id < 0 or scope_id >= len(self.kinds):
            raise UnknownScope(f"scope {scope_id} not in tree of {self.file_id}")
        declarations, parents = self.declarations, self.parents
        sid = scope_id
        while sid != GLOBAL_SCOPE:
            decls = declarations[sid]
            if decls is not None:
                bid = decls.get(name)
                if bid is not None:
                    return bid
            sid = parents[sid]
        bid = self.globals.get(name)
        if bid is None:
            bid = self.globals[name] = self.bindings.add(name, GLOBAL_SCOPE, GLOBAL)
        return bid

    def resolve_occurrences(self, names):
        """Resolve every occurrence once, given the name of each, and store
        its binding id in the ``bindings`` column."""
        occ = self.occurrences
        occ.bindings = array("i", map(self.resolve, names, occ.scope_ids))


class ScopeBuilder:
    """Builds a file's ScopeTree from the parser's calls, in source order.

    The parser enters and leaves scopes, declares names (a ``var`` into the
    nearest function or module scope, everything else into the current
    scope), records references and marks the current scope dynamic.
    ``finish`` then resolves every occurrence once, as hoisting needs; until
    then the builder keeps each occurrence's name in ``names``.

    A statement block or a switch's case block is entered like any scope,
    because whether it directly holds a lexical declaration is known only at
    its `}`. Leaving it with ``keep=False`` elides it: its dynamic flag and
    declarations (a lexical one nested in a bare `if` body) go to its
    parent, and ``finish`` drops it, moving its child scopes and the
    occurrences read in it to the parent.

    Whether a `(` heads an arrow is known only at the `=>` after its `)`, so
    the head is read in the current scope; ``enter_arrow`` then moves what
    it recorded into the arrow's scope. Scopes are numbered as entered, and
    ``preorder`` lists them with each arrow moved before its head's scopes;
    ``finish`` renumbers them in that order.
    """

    def __init__(self, file_id):
        self.tree = tree = ScopeTree(file_id)
        self.occurrences = tree.occurrences
        self.names = []  # each occurrence's name (the lexer's one str per word)
        # the module scope's end is set by ``finish``
        self.scope = self.function = tree.new_scope(MODULE, GLOBAL_SCOPE, 0, 0)
        self.outer = []  # (scope, function scope) of each scope entered
        self.preorder = array("i", [self.scope])
        self.elided = bytearray(1)
        # the first `var` that redeclares a catch parameter; raised by the
        # parser only once the whole file has parsed
        self.catch_redeclared = None
        self.block_vars = {}  # block scope id -> the var names written in or below it
        self.nested = set()  # bindings passed up by an elided block (an `if` body's function)

    def enter(self, kind, start):
        self.outer.append((self.scope, self.function))
        self.scope = self.tree.new_scope(kind, self.scope, start, start)
        self.preorder.append(self.scope)
        self.elided.append(0)
        if kind == FUNCTION or kind == BODY:
            self.function = self.scope

    def leave(self, end, keep=True):
        """Leave the current scope; returns whether a dynamic site is in
        it, its elided blocks included."""
        sid = self.scope
        self.tree.ends[sid] = end
        self.scope, self.function = self.outer.pop()
        if not keep:
            self._elide(sid)
        return self.tree.dynamic[sid]

    def _elide(self, sid):
        tree = self.tree
        parent = self.scope
        self.elided[sid] = 1
        tree.dynamic[parent] |= tree.dynamic[sid]
        moved, tree.declarations[sid] = tree.declarations[sid], None
        if moved is None:
            return
        decls = tree.declarations[parent] = tree.declarations[parent] or {}
        scope_ids = tree.bindings.scope_ids
        for name, bid in moved.items():
            kept = decls.get(name)
            if kept is not None and kept < bid:
                continue
            scope_ids[bid] = parent
            decls[name] = bid
            self.nested.add(bid)

    def mark(self):
        """At a `(` that may head an arrow: what ``enter_arrow`` takes. The
        scope's dynamic flag is set aside, to tell whether the head sets it."""
        dynamic = self.tree.dynamic
        mark = len(self.occurrences), len(dynamic), dynamic[self.scope]
        dynamic[self.scope] = 0
        return mark

    def unmark(self, mark):
        """At the `)` of a parenthesized expression: put the flag back."""
        self.tree.dynamic[self.scope] |= mark[2]

    def enter_arrow(self, start, mark, params):
        """Enter the scope of an arrow whose head, from ``start``, was read
        since ``mark``: what the head recorded moves into it, and ``params``,
        the indices of its parameter names' occurrences, declare them."""
        occurrences, scopes, dynamic = mark
        tree = self.tree
        outer = self.scope
        self.enter(FUNCTION, start)
        arrow = self.scope
        tree.dynamic[arrow], tree.dynamic[outer] = tree.dynamic[outer], dynamic
        # the head's scopes, entered before the arrow, come after it
        del self.preorder[-1]
        self.preorder.insert(scopes, arrow)
        parents = tree.parents
        for sid in range(scopes, arrow):
            if parents[sid] == outer:
                parents[sid] = arrow
        occ = self.occurrences
        for index in range(occurrences, len(occ)):
            if occ.scope_ids[index] == outer:
                occ.scope_ids[index] = arrow
        for index in params:
            occ.styles[index] = DECL
            tree.declare(arrow, self.names[index], PARAM)

    def declare(self, tok, category):
        self._declare(self.scope, tok, category)

    def declare_var(self, tok):
        """A ``var`` name binds in the function scope, and in a body scope
        only if the parameters' scope does not hold the name; a block on the
        way that declares it lexically is an early error. `catch (e) { var e
        }` writes the catch binding, not the hoisted var; renaming the two
        apart would change behavior, so such a file is copied verbatim."""
        tree = self.tree
        name = tok[1]
        sid = self.scope
        while sid != self.function:
            bid = (tree.declarations[sid] or {}).get(name)
            if bid is not None and bid not in self.nested:
                if tree.bindings.categories[bid] != CATCH:
                    raise self._redeclared(tok)
                if self.catch_redeclared is None:
                    self.catch_redeclared = UnsupportedSyntax(
                        f"var {name!r} redeclares a catch parameter", tree.file_id, tok[2]
                    )
            self.block_vars.setdefault(sid, set()).add(name)
            sid = tree.parents[sid]
        if tree.kinds[sid] == BODY and name in tree.declarations[tree.parents[sid]]:
            sid = tree.parents[sid]
        self._declare(sid, tok, VAR)

    def _declare(self, sid, tok, category):
        """Bind the name in scope ``sid``, unless ``_clashes`` finds an early
        error or the scope holds the name already; its occurrence stands in
        the current scope, so the blocks between a ``var`` and its function
        forbid the var's output name."""
        name = tok[1]
        bid = (self.tree.declarations[sid] or {}).get(name)
        # only a lexical declaration clashes where the name is not bound
        maybe = bid is not None or category == LEXICAL or category == FUNCTION_DECL
        if maybe and self._clashes(sid, name, category, bid):
            raise self._redeclared(tok)
        if bid is None:
            self.tree.declare(sid, name, category)
        self.names.append(name)
        self.occurrences.add(tok[2], self.scope, DECL)

    def _clashes(self, sid, name, category, bid):
        """Whether declaring ``name`` as ``category`` in scope ``sid``, where
        it is bound to ``bid`` (or None), is an early error: a lexical
        declaration (let, const, class, a function in a block) shares its
        scope with no other declaration, no var written in or below it and,
        in a body, no parameter. A function expression's name and an `if`
        body's function clash with nothing, nor two functions (sloppy)."""
        tree = self.tree
        kinds, categories = tree.kinds, tree.bindings.categories
        lexical = category == LEXICAL or category == FUNCTION_DECL and kinds[sid] == BLOCK
        if bid is None or bid in self.nested:
            if not lexical:
                return False
            if kinds[sid] == BODY:
                param = tree.declarations[tree.parents[sid]].get(name)
                return param is not None and categories[param] == PARAM
            return name in self.block_vars.get(sid, ())
        held = categories[bid]
        if held == FUNCTION_EXPR or held == category == FUNCTION_DECL:
            return False
        return lexical or held == LEXICAL or held == FUNCTION_DECL and kinds[sid] == BLOCK

    def _redeclared(self, tok):
        return ParseError(f"{tok[1]!r} has already been declared", self.tree.file_id, tok[2])

    def reference(self, tok, style=REF):
        self.names.append(tok[1])
        self.occurrences.add(tok[2], self.scope, style)

    def mark_dynamic(self):
        # direct presence only; freezing walks ancestors separately
        self.tree.dynamic[self.scope] = 1

    def finish(self, end):
        """The tree, with the module scope ending at ``end``, elided blocks
        gone, the scope ids in pre-order and every occurrence resolved."""
        tree = self.tree
        tree.ends[0] = end
        remap = array("i", bytes(4 * len(tree)))  # scope id at entry -> id in the tree
        kept = array("i")  # the entry ids of the scopes kept, in pre-order
        parents = array("i")
        for sid in self.preorder:
            parent = tree.parents[sid]
            if parent != GLOBAL_SCOPE:
                parent = remap[parent]  # an elided parent's is its own parent's
            if self.elided[sid]:
                remap[sid] = parent
            else:
                remap[sid] = len(kept)
                kept.append(sid)
                parents.append(parent)
        tree.parents = parents
        tree.kinds = bytearray(map(tree.kinds.__getitem__, kept))
        tree.starts = array("i", map(tree.starts.__getitem__, kept))
        tree.ends = array("i", map(tree.ends.__getitem__, kept))
        tree.dynamic = bytearray(map(tree.dynamic.__getitem__, kept))
        tree.declarations = list(map(tree.declarations.__getitem__, kept))
        bindings, occ = tree.bindings, tree.occurrences
        bindings.scope_ids = array("i", map(remap.__getitem__, bindings.scope_ids))
        occ.scope_ids = array("i", map(remap.__getitem__, occ.scope_ids))
        tree.resolve_occurrences(self.names)
        return tree


def format_scope_report(tree):
    """Indented one-scope-per-line dump for ``analyze --dump-scopes``."""
    lines = []
    depths = []
    for sid, parent in enumerate(tree.parents):
        depth = 0 if parent == GLOBAL_SCOPE else depths[parent] + 1
        depths.append(depth)
        decls = ", ".join(sorted(tree.declarations[sid] or ())) or "-"
        dyn = " dynamic" if tree.dynamic[sid] else ""
        kind = KIND_NAMES[tree.kinds[sid]]
        lines.append(f"{'  ' * depth}{kind}#{sid} [{tree.starts[sid]},{tree.ends[sid]}){dyn}: {decls}")
    return "\n".join(lines)
