"""Lexical scope analysis: scope tree construction and identifier resolution.

The parser builds each file's tree as it reads, through a ``ScopeBuilder``;
no syntax tree is walked. Each file gets its own tree rooted at a module
scope. Names that resolve past the module root belong to the (implicit,
program-wide) global scope; the tree keeps one Binding with
``scope_id == GLOBAL_SCOPE`` for each such name.

var declarations hoist to the nearest function or module scope; let/const,
class and (module code is strict) function declarations bind in the nearest
enclosing block. A block gets a scope node only when it directly contains a
lexical declaration. A scope that directly contains eval, `with` or a
Function constructor call is flagged dynamic. Code in it or below it may
read any name on its scope chain: the renamer freezes the bindings of the
dynamic scope and its ancestors, and the parser drops the transform
candidates read in the dynamic scope or below it.
"""

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
    """One declaration: the file, scope and name it binds, its declaring
    span, category and order, and how many occurrences resolve to it.

    A global (``scope_id == GLOBAL_SCOPE``) is the tree's one record of a
    name read free. Bindings compare by identity: a declaration has exactly
    one Binding, which its scope's ``declarations`` holds.
    """

    __slots__ = ("file_id", "scope_id", "name", "span", "category", "order", "usage")

    def __init__(self, file_id, scope_id, name, span=None, category=None, order=0):
        self.file_id = file_id
        self.scope_id = scope_id
        self.name = name
        self.span = span
        self.category = category
        self.order = order
        self.usage = 0

    def is_global(self):
        return self.scope_id == GLOBAL_SCOPE

    def rank(self):
        return (_CATEGORY_RANK.get(self.category, 4), self.order)

    def __repr__(self):
        if self.is_global():
            return f"<global:{self.name}>"
        return f"<{self.file_id}#{self.scope_id}:{self.name}>"


class Occurrence:
    """One identifier occurrence that may need rewriting; ``binding`` is set
    by ``ScopeTree.resolve_occurrences``."""

    __slots__ = ("name", "start", "end", "scope_id", "style", "binding")

    def __init__(self, name, start, end, scope_id, style=None):
        self.name = name
        self.start = start
        self.end = end
        self.scope_id = scope_id
        self.style = style  # None | "decl" | "shorthand"
        self.binding = None


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
        self.occurrences = []
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
            binding = self.globals[name] = Binding(self.file_id, GLOBAL_SCOPE, name)
        return binding

    def resolve_occurrences(self):
        """Resolve every occurrence once, store its Binding in
        ``occ.binding`` and count the occurrence in that Binding's usage."""
        resolve = self.resolve
        for occ in self.occurrences:
            binding = occ.binding = resolve(occ.name, occ.scope_id)
            binding.usage += 1

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

    A statement block is entered like any scope, because whether it directly
    holds a lexical declaration is known only at its `}`. Leaving it with
    ``keep=False`` elides it: its child scopes, dynamic flag and
    declarations (a lexical one nested in a bare `if` or `case` body) go to
    its parent, and ``finish`` renumbers the remaining scopes in pre-order
    and moves the occurrences read in it to the parent.
    """

    def __init__(self, file_id):
        self.file_id = file_id
        self.tree = ScopeTree(file_id)
        self.nodes = self.tree.nodes
        self.occurrences = self.tree.occurrences
        # the module scope's end is set once the parser has read the file
        self.scope = self.function = self.tree.new_scope(MODULE, None, 0, 0)
        self.outer = []  # (scope, function scope) of each scope entered
        self.order = 0
        self.elided = False
        # an elision dropped a binding whose name its parent already held;
        # its order number was given out, so finish closes the gap
        self.renumber = False
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
            if kept is not None:
                self.renumber = True
                if kept.order < binding.order:
                    continue
            binding.scope_id = parent.id
            decls[name] = binding
        node.kind = None
        self.elided = True

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
        name = tok.text
        decls = node.declarations
        if name not in decls:
            self.order += 1
            decls[name] = Binding(
                self.file_id, node.id, name, (tok.start, tok.end), category, self.order
            )
        self.occurrences.append(Occurrence(name, tok.start, tok.end, node.id, "decl"))

    def reference(self, tok, style=None):
        self.occurrences.append(Occurrence(tok.text, tok.start, tok.end, self.scope.id, style))

    def mark_dynamic(self):
        # direct presence only; freezing walks ancestors separately
        self.scope.is_dynamic = True

    def finish(self):
        """The tree, with elided blocks gone and every occurrence resolved."""
        nodes = self.nodes
        if self.elided:
            remap = []  # scope id at entry -> id in the tree
            kept = []
            for node in nodes:
                if node.kind is None:
                    remap.append(remap[node.parent])
                else:
                    remap.append(len(kept))
                    kept.append(node)
            for node in kept:
                node.id = remap[node.id]
                if node.parent is not None:
                    node.parent = remap[node.parent]
                node.children = [remap[child] for child in node.children]
                for binding in node.declarations.values():
                    binding.scope_id = node.id
            nodes[:] = kept
            for occ in self.occurrences:
                occ.scope_id = remap[occ.scope_id]
        if self.renumber:
            bindings = [b for node in nodes for b in node.declarations.values()]
            bindings.sort(key=lambda b: b.order)
            for order, binding in enumerate(bindings, 1):
                binding.order = order
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
