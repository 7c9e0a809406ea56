"""Lexical scope analysis: scope tree construction and identifier resolution.

Each file gets its own tree rooted at a module scope. Names that resolve past
the module root belong to the (implicit, program-wide) global scope; the tree
keeps one Binding with ``scope_id == GLOBAL_SCOPE`` for each such name.

var declarations hoist to the nearest function or module scope; let/const,
class and (module code is strict) function declarations bind in the nearest
enclosing block. A block gets a scope node only when it directly contains a
lexical declaration. Scopes lexically containing eval, `with` or a Function
constructor call are flagged dynamic, ancestors included.
"""

from bisect import bisect_right

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

    def dynamic_upward(self, scope_id):
        """True when the scope or an ancestor directly contains a dynamic
        site, i.e. the position lies inside a dynamic scope's extent."""
        sid = scope_id
        while sid is not None:
            if self.nodes[sid].is_dynamic:
                return True
            sid = self.nodes[sid].parent
        return False

    def dynamic_region(self):
        """Predicate ``pos -> bool`` equal to ``dynamic_upward(scope_at(pos))``
        for every position, built in one walk of the tree.

        The walk carries each scope's reachable extent (its span clipped to
        its ancestors', the positions at which ``scope_at`` descends into it)
        and stops at the first dynamic scope on a path: all of that scope's
        reachable extent is dynamic. The extents are merged into sorted,
        disjoint intervals, so a query is one bisect.
        """
        if self.nodes[self.root].is_dynamic:
            return lambda pos: True
        extents = []
        stack = [(self.root, float("-inf"), float("inf"))]
        while stack:
            sid, lo, hi = stack.pop()
            for child in self.nodes[sid].children:
                node = self.nodes[child]
                child_lo = max(lo, node.start)
                child_hi = min(hi, node.end)
                if child_lo >= child_hi:
                    continue
                if node.is_dynamic:
                    extents.append((child_lo, child_hi))
                else:
                    stack.append((child, child_lo, child_hi))
        extents.sort()
        starts = []
        ends = []
        for lo, hi in extents:
            if ends and lo <= ends[-1]:
                ends[-1] = max(ends[-1], hi)
            else:
                starts.append(lo)
                ends.append(hi)

        def inside(pos):
            idx = bisect_right(starts, pos) - 1
            return idx >= 0 and pos < ends[idx]

        return inside

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

    def scope_at(self, pos):
        """Innermost scope whose span contains ``pos``; a linear scan of each
        level's children, so per-node callers use ``dynamic_region``."""
        sid = self.root
        while True:
            found = None
            for child in self.nodes[sid].children:
                node = self.nodes[child]
                if node.start <= pos < node.end:
                    found = child
                    break
                if node.start > pos:
                    break
            if found is None:
                return sid
            sid = found


def build_scope_tree(root, file_id):
    """Walk an AST into a ScopeTree with declarations, occurrences and
    dynamic flags, then resolve each occurrence once."""
    tree = ScopeTree(file_id)
    module = tree.new_scope(MODULE, None, root.start, root.end)
    builder = _Builder(tree)
    for stmt in root.children:
        builder.walk(stmt, module.id, module.id)
    tree.resolve_occurrences()
    return tree


class _Builder:
    def __init__(self, tree):
        self.tree = tree
        self.order = 0

    def declare(self, scope_id, name, span, category):
        decls = self.tree.nodes[scope_id].declarations
        if name not in decls:
            self.order += 1
            decls[name] = Binding(self.tree.file_id, scope_id, name, span, category, self.order)
        self.tree.occurrences.append(Occurrence(name, span[0], span[1], scope_id, "decl"))

    def reference(self, scope_id, name, start, end, style=None):
        self.tree.occurrences.append(Occurrence(name, start, end, scope_id, style))

    def mark_dynamic(self, scope_id):
        # direct presence only; freezing walks ancestors separately
        self.tree.nodes[scope_id].is_dynamic = True

    def reject_catch_param_rebinding(self, decl, scope_id, fn_scope_id):
        """`catch (e) { var e = 1 }` writes the catch binding, not the
        hoisted var; renaming the two apart would change behavior, so the
        file takes the verbatim-copy path."""
        sid = scope_id
        while sid is not None and sid != fn_scope_id:
            existing = self.tree.nodes[sid].declarations.get(decl.name)
            if existing is not None and existing.category == "catch":
                raise UnsupportedSyntax(
                    f"var {decl.name!r} redeclares a catch parameter",
                    self.tree.file_id,
                    decl.value[0],
                )
            sid = self.tree.nodes[sid].parent

    def block_needs_scope(self, stmts):
        for stmt in stmts:
            if stmt.kind == "var-decl" and stmt.name in ("let", "const"):
                return True
            if stmt.kind in ("class", "function-decl"):
                return True
        return False

    def walk_function(self, node, parent_scope, params_and_body, name_in_own_scope=None):
        scope = self.tree.new_scope(FUNCTION, parent_scope, node.start, node.end)
        sid = scope.id
        if name_in_own_scope is not None:
            self.declare(sid, name_in_own_scope, node.value, "fnexpr")
        *params, body = params_and_body
        for p in params:
            self.declare(sid, p.name, p.value, "param")
            for default in p.children:
                self.walk(default, sid, sid)
        if body.kind == "block":
            for stmt in body.children:
                self.walk(stmt, sid, sid)
        else:
            self.walk(body, sid, sid)

    def walk(self, node, scope_id, fn_scope_id):
        kind = node.kind

        if kind == "identifier-ref":
            self.reference(scope_id, node.name, node.start, node.end, node.aux)
            return

        if kind == "var-decl":
            target = fn_scope_id if node.name == "var" else scope_id
            category = "var" if node.name == "var" else "lexical"
            for decl in node.children:
                if node.name == "var":
                    self.reject_catch_param_rebinding(decl, scope_id, target)
                self.declare(target, decl.name, decl.value, category)
                for init in decl.children:
                    self.walk(init, scope_id, fn_scope_id)
            return

        if kind == "function-decl":
            self.declare(scope_id, node.name, node.value, "function")
            self.walk_function(node, scope_id, node.children)
            return

        if kind == "function-expr":
            self.walk_function(node, scope_id, node.children, name_in_own_scope=node.name)
            return

        if kind == "arrow" or kind == "method":
            self.walk_function(node, scope_id, node.children)
            return

        if kind == "class" or kind == "class-expr":
            if kind == "class" and node.name is not None:
                self.declare(scope_id, node.name, node.value, "lexical")
            children = node.children
            if node.aux and children:
                self.walk(children[0], scope_id, fn_scope_id)
                children = children[1:]
            for member in children:
                self.walk(member, scope_id, fn_scope_id)
            return

        if kind == "block":
            if self.block_needs_scope(node.children):
                scope = self.tree.new_scope(BLOCK, scope_id, node.start, node.end)
                inner = scope.id
            else:
                inner = scope_id
            for stmt in node.children:
                self.walk(stmt, inner, fn_scope_id)
            return

        if kind in ("for", "for-in", "for-of"):
            head = node.children[0]
            if head.kind == "var-decl" and head.name in ("let", "const"):
                scope = self.tree.new_scope(BLOCK, scope_id, node.start, node.end)
                inner = scope.id
            else:
                inner = scope_id
            for child in node.children:
                self.walk(child, inner, fn_scope_id)
            return

        if kind == "catch":
            scope = self.tree.new_scope(BLOCK, scope_id, node.start, node.end)
            if node.name is not None:
                self.declare(scope.id, node.name, node.value, "catch")
            for stmt in node.children[0].children:
                self.walk(stmt, scope.id, fn_scope_id)
            return

        if kind == "import-decl":
            info = node.value
            if info["default"] is not None:
                name, span = info["default"]
                self.declare(scope_id, name, span, "import")
            if info["namespace"] is not None:
                name, span = info["namespace"]
                self.declare(scope_id, name, span, "import")
            for _ext, local, span in info["names"]:
                self.declare(scope_id, local, span, "import")
            return

        if kind == "with":
            self.mark_dynamic(scope_id)
            for child in node.children:
                self.walk(child, scope_id, fn_scope_id)
            return

        if kind == "call" or kind == "new":
            callee = node.children[0]
            if callee.kind == "identifier-ref" and callee.name in ("eval", "Function"):
                self.mark_dynamic(scope_id)
            for child in node.children:
                self.walk(child, scope_id, fn_scope_id)
            return

        for child in node.children:
            self.walk(child, scope_id, fn_scope_id)


def format_scope_report(tree):
    """Indented one-scope-per-line dump for the analyze/--dump-scopes CLI."""
    lines = []

    def visit(sid, depth):
        node = tree.nodes[sid]
        decls = ", ".join(sorted(node.declarations)) or "-"
        dyn = " dynamic" if node.is_dynamic else ""
        lines.append(f"{'  ' * depth}{node.kind}#{sid} [{node.start},{node.end}){dyn}: {decls}")
        for child in node.children:
            visit(child, depth + 1)

    visit(tree.root, 0)
    return "\n".join(lines)
