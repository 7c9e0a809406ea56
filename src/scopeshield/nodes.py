"""AST node representation.

One compact node class for every construct; ``kind`` strings follow the
shapes below. Spans are half-open offsets into the (minified) file text and
every child span is contained in its parent's span.

Node conventions, by kind:

  program            children = statements
  function-decl      name, value = name span; children = params + [body]
  function-expr      like function-decl, name optional
  arrow              children = params + [body]; aux = "expr" for expression body
  method             name = property name (not a binding); children = params + [body]
  class/class-expr   name, value = name span; aux = True when children[0] is
                     the extends expression; remaining children are methods
  param              name, value = name span; aux = "rest" for rest params;
                     children = [default] when a default expression exists
  block              children = statements
  var-decl           name = var|let|const; children = declarators
  declarator         name, value = name span; children = [initializer] or []
  identifier-ref     name = identifier text; span is the occurrence;
                     aux = "shorthand" inside shorthand object properties
  member-access      children = [object]; name = property; value = span of
                     ".property" for patching
  computed-member    children = [object, index]
  string-lit         aux in {None, "key", "directive"}
  call/new           children = [callee, args...]
  import-decl        value = dict(source, default, namespace, names)
  export-decl        children = [declared node] for `export <decl>` and
                     `export default` forms (an anonymous default function
                     or class is a function-expr or class-expr), an
                     identifier-ref (aux = "export") per local for bare
                     `export {a, b}`, else []
  if                 children = [cond, then] or [cond, then, else]
  for                children = [init, cond, update, body] ("empty" when absent)
  for-in/for-of      children = [target, iterable, body]
  while              children = [cond, body];  do-while: [body, cond]
  switch             children = [discriminant, cases...]
  case               children = [test, stmts...]; aux = "default" (no test)
  try                children = [block, catch?, finally?]; catch: name/value
                     for the parameter, children = [block]
  ternary            children = [cond, consequent, alternate]
  logical            name in {&&, ||, ??}; binary/assign/unary/update: name = op
  object             children = properties
  property           name = key text or None; aux in {"init", "shorthand",
                     "method", "get", "set", "computed", "spread"}
  template           children = interpolated expressions
  tagged-template    children = [tag, template]
  with               children = [expr, body]
"""


class Node:
    __slots__ = ("kind", "start", "end", "name", "value", "children", "aux")

    def __init__(self, kind, start, end, name=None, value=None, children=None, aux=None):
        self.kind = kind
        self.start = start
        self.end = end
        self.name = name
        self.value = value
        self.children = children if children is not None else []
        self.aux = aux

    def __repr__(self):
        bits = [self.kind, f"[{self.start},{self.end})"]
        if self.name is not None:
            bits.append(repr(self.name))
        return f"Node({', '.join(bits)}, {len(self.children)} children)"


def walk(node):
    """Yield node and all descendants, pre-order."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))
