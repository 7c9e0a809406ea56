"""Lexical scope analysis: scope tree construction and identifier resolution.

The parser builds each file's tree as it reads, through a ``ScopeBuilder``;
no syntax tree is walked. Each file gets its own tree rooted at a module
scope. Names that resolve past the module root belong to the (implicit,
program-wide) global scope; the tree keeps one Binding with
``scope_id == GLOBAL_SCOPE`` for each such name.

var declarations hoist to the nearest function or module scope; let/const,
class and function declarations bind in the nearest enclosing block (sloppy
scripts also bind a block's function in its function: Annex B, for which
the renamer keeps such names). A block, or a switch's case block, gets a
scope node only when it directly contains a lexical declaration. A
declaration's occurrence stands in the scope where it is written, also a
hoisted var's. A scope that directly contains eval, `with` or a Function
constructor call is flagged dynamic. Code in it or below it may read any
name on its scope chain: the renamer freezes the bindings of the dynamic
scope and its ancestors, and the parser drops the transform candidates
read in the dynamic scope or below it.

A tree keeps its identifier occurrences as one table of parallel columns
(``Occurrences``), not as an object per occurrence: a large bundle holds
tens of thousands of them from the parse to the emit.
"""

from array import array

from .errors import UnknownScope, UnsupportedSyntax

GLOBAL_SCOPE = -1

MODULE = "module"
FUNCTION = "function"
BLOCK = "block"

# assignment order within a scope: params, hoisted functions, var, lexical
_CATEGORY_RANK = {
    "import": 0,
    "param": 1,
    "function": 2,
    "fnexpr": 2,
    "var": 3,
    "lexical": 4,
    "catch": 1,
}


class Binding:
    """One declaration: the scope and name it binds, its category and
    order (the file is the tree's).

    A global (``scope_id == GLOBAL_SCOPE``) is the tree's one record of a
    name read free. Bindings compare by identity: a declaration has exactly
    one Binding, which its scope's ``declarations`` holds.
    """

    __slots__ = ("scope_id", "name", "category", "order")

    def __init__(self, scope_id, name, category=None, order=0):
        self.scope_id = scope_id
        self.name = name
        self.category = category
        self.order = order

    def is_global(self):
        return self.scope_id == GLOBAL_SCOPE

    def rank(self):
        return (_CATEGORY_RANK.get(self.category, 4), self.order)

    def __repr__(self):
        if self.is_global():
            return f"<global:{self.name}>"
        return f"<#{self.scope_id}:{self.name}>"


# occurrence styles
REF = 0  # a reference
DECL = 1  # the name a declaration binds
SHORTHAND = 2  # a shorthand property `{x}`, emitted as `{x: y}` when renamed


class Occurrences:
    """A file's identifier occurrences, in the order the parser read them,
    as parallel columns: ``names`` (the lexer's one str per word),
    ``starts`` and ``scope_ids`` (int arrays), ``styles`` (a byte each:
    REF, DECL or SHORTHAND) and ``bindings``, each one's Binding, which
    ``ScopeTree.resolve_occurrences`` fills. Identifiers lex ASCII-only, so
    occurrence ``i`` spans ``[starts[i], starts[i] + len(names[i]))``.
    """

    __slots__ = ("names", "starts", "scope_ids", "styles", "bindings")

    def __init__(self):
        self.names = []
        # 4-byte ints: a file task could not hold a 2 GiB file's facts
        self.starts = array("i")
        self.scope_ids = array("i")
        self.styles = bytearray()
        self.bindings = []

    def __len__(self):
        return len(self.names)

    def add(self, name, start, scope_id, style=REF):
        self.names.append(name)
        self.starts.append(start)
        self.scope_ids.append(scope_id)
        self.styles.append(style)


class ScopeNode:
    __slots__ = (
        "id",
        "kind",
        "parent",
        "children",
        "start",
        "end",
        "declarations",
        "is_dynamic",
    )

    def __init__(self, id_, kind, parent, start, end):
        self.id = id_
        self.kind = kind
        self.parent = parent
        self.children = []
        self.start = start
        self.end = end
        self.declarations = {}
        self.is_dynamic = False


class ScopeTree:
    """Per-file scope tree plus the occurrence table of the file."""

    def __init__(self, file_id):
        self.file_id = file_id
        self.nodes = []
        self.root = 0
        self.occurrences = Occurrences()
        self.globals = {}  # name read free -> its global Binding

    def new_scope(self, kind, parent, start, end):
        node = ScopeNode(len(self.nodes), kind, parent, start, end)
        self.nodes.append(node)
        if parent is not None:
            self.nodes[parent].children.append(node.id)
        return node

    def resolve(self, name, scope_id):
        """Def-style recursive resolution to the declaring scope's Binding;
        falls through to the tree's global Binding for the name (made on
        first use) when no scope on the chain declares it."""
        if scope_id < 0 or scope_id >= len(self.nodes):
            raise UnknownScope(f"scope {scope_id} not in tree of {self.file_id}")
        sid = scope_id
        while sid is not None:
            node = self.nodes[sid]
            binding = node.declarations.get(name)
            if binding is not None:
                return binding
            sid = node.parent
        binding = self.globals.get(name)
        if binding is None:
            binding = self.globals[name] = Binding(GLOBAL_SCOPE, name)
        return binding

    def resolve_occurrences(self):
        """Resolve every occurrence once and store its Binding in the
        ``bindings`` column."""
        occ = self.occurrences
        occ.bindings = list(map(self.resolve, occ.names, occ.scope_ids))

    def preorder(self):
        stack = [self.root]
        while stack:
            sid = stack.pop()
            yield sid
            stack.extend(reversed(self.nodes[sid].children))

    def scopes_with_dynamic_inside(self):
        """Scopes whose subtree (self included) contains a dynamic scope.

        Bindings of these scopes are visible at some dynamic site, so the
        renamer freezes them.
        """
        tainted = set()
        for node in self.nodes:
            if not node.is_dynamic:
                continue
            sid = node.id
            while sid is not None and sid not in tainted:
                tainted.add(sid)
                sid = self.nodes[sid].parent
        return tainted


class ScopeBuilder:
    """Builds a file's ScopeTree from the parser's calls, in source order.

    The parser enters and leaves scopes, declares names (a ``var`` into the
    nearest function or module scope, everything else into the current
    scope), records references and marks the current scope dynamic.
    ``finish`` then resolves every occurrence once, as hoisting needs.

    A statement block or a switch's case block is entered like any scope,
    because whether it directly holds a lexical declaration is known only at
    its `}`. Leaving it with ``keep=False`` elides it: its child scopes,
    dynamic flag and declarations (a lexical one nested in a bare `if`
    body) go to its parent, and ``finish`` renumbers the remaining scopes
    in pre-order and moves the occurrences read in it to the parent.

    Whether a `(` heads an arrow is known only at the `=>` after its `)`, so
    the head is read in the current scope; ``enter_arrow`` then moves what
    it recorded into the arrow's scope.
    """

    def __init__(self, file_id):
        self.file_id = file_id
        self.tree = ScopeTree(file_id)
        self.nodes = self.tree.nodes
        self.occurrences = self.tree.occurrences
        # the module scope's end is set by ``finish``
        self.scope = self.function = self.tree.new_scope(MODULE, None, 0, 0)
        self.outer = []  # (scope, function scope) of each scope entered
        self.order = 0
        # the first `var` that redeclares a catch parameter; raised by the
        # parser only once the whole file has parsed
        self.catch_redeclared = None

    def enter(self, kind, start):
        self.outer.append((self.scope, self.function))
        self.scope = self.tree.new_scope(kind, self.scope.id, start, start)
        if kind == FUNCTION:
            self.function = self.scope

    def leave(self, end, keep=True):
        """Leave the current scope; returns whether a dynamic site is in
        it, its elided blocks included."""
        node = self.scope
        node.end = end
        self.scope, self.function = self.outer.pop()
        if not keep:
            self._elide(node)
        return node.is_dynamic

    def _elide(self, node):
        parent = self.scope  # the node is the last child entered in it
        parent.children.pop()
        parent.children.extend(node.children)
        for child in node.children:
            self.nodes[child].parent = parent.id
        if node.is_dynamic:
            parent.is_dynamic = True
        decls = parent.declarations
        for name, binding in node.declarations.items():
            kept = decls.get(name)
            if kept is not None and kept.order < binding.order:
                continue
            binding.scope_id = parent.id
            decls[name] = binding

    def mark(self):
        """At a `(` that may head an arrow: what ``enter_arrow`` takes. The
        scope's dynamic flag is set aside, to tell whether the head sets it."""
        scope = self.scope
        mark = len(self.occurrences), len(scope.children), scope.is_dynamic
        scope.is_dynamic = False
        return mark

    def unmark(self, mark):
        """At the `)` of a parenthesized expression: put the flag back."""
        self.scope.is_dynamic |= mark[2]

    def enter_arrow(self, start, mark, params):
        """Enter the scope of an arrow whose head, from ``start``, was read
        since ``mark``: what the head recorded moves into it, and ``params``,
        the indices of its parameter names' occurrences, declare them."""
        occurrences, children, dynamic = mark
        outer = self.scope
        self.enter(FUNCTION, start)
        node = self.scope
        node.is_dynamic, outer.is_dynamic = outer.is_dynamic, dynamic
        node.children = outer.children[children:-1]
        del outer.children[children:-1]
        for child in node.children:  # entered before it: ``finish`` renumbers
            self.nodes[child].parent = node.id
        occ = self.occurrences
        for index in range(occurrences, len(occ)):
            if occ.scope_ids[index] == outer.id:
                occ.scope_ids[index] = node.id
        for index in params:
            occ.styles[index] = DECL
            name = occ.names[index]
            self.order += 1
            node.declarations[name] = Binding(node.id, name, "param", self.order)

    def declare(self, tok, category):
        self._declare(self.scope, tok, category)

    def declare_var(self, tok):
        """A ``var`` name binds in the function scope. `catch (e) { var e }`
        writes the catch binding, not the hoisted var; renaming the two apart
        would change behavior, so such a file takes the verbatim-copy
        path."""
        if self.catch_redeclared is None:
            node = self.scope
            while node is not self.function:
                existing = node.declarations.get(tok.text)
                if existing is not None and existing.category == "catch":
                    self.catch_redeclared = UnsupportedSyntax(
                        f"var {tok.text!r} redeclares a catch parameter", self.file_id, tok.start
                    )
                    break
                node = self.nodes[node.parent]
        self._declare(self.function, tok, "var")

    def _declare(self, node, tok, category):
        """Bind the name in ``node``; its occurrence stands in the current
        scope, so the blocks between a ``var`` and its function forbid the
        var's output name."""
        name = tok.text
        decls = node.declarations
        if name not in decls:
            self.order += 1
            decls[name] = Binding(node.id, name, category, self.order)
        self.occurrences.add(name, tok.start, self.scope.id, DECL)

    def reference(self, tok, style=REF):
        self.occurrences.add(tok.text, tok.start, self.scope.id, style)

    def mark_dynamic(self):
        # direct presence only; freezing walks ancestors separately
        self.scope.is_dynamic = True

    def finish(self, end):
        """The tree, with the module scope ending at ``end``, elided blocks
        gone, the scope ids in pre-order and every occurrence resolved."""
        nodes = self.nodes
        nodes[0].end = end
        remap = [None] * len(nodes)  # scope id at entry -> id in the tree
        kept = []
        for sid in self.tree.preorder():
            remap[sid] = len(kept)
            kept.append(nodes[sid])
        for node in nodes:
            if remap[node.id] is None:  # elided, after its parent
                remap[node.id] = remap[node.parent]
        for node in kept:
            node.id = remap[node.id]
            if node.parent is not None:
                node.parent = remap[node.parent]
            node.children = [remap[child] for child in node.children]
            for binding in node.declarations.values():
                binding.scope_id = node.id
        nodes[:] = kept
        occ = self.occurrences
        occ.scope_ids = array("i", map(remap.__getitem__, occ.scope_ids))
        self.tree.resolve_occurrences()
        return self.tree


def format_scope_report(tree):
    """Indented one-scope-per-line dump for ``analyze --dump-scopes``."""
    lines = []
    stack = [(tree.root, 0)]
    while stack:
        sid, depth = stack.pop()
        node = tree.nodes[sid]
        decls = ", ".join(sorted(node.declarations)) or "-"
        dyn = " dynamic" if node.is_dynamic else ""
        lines.append(f"{'  ' * depth}{node.kind}#{sid} [{node.start},{node.end}){dyn}: {decls}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)
