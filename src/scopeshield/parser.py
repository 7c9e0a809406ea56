"""Recursive-descent parser for the supported JavaScript subset.

Supported: var/let/const, function declarations and expressions, arrows,
classes with methods/getters/setters, blocks, all common statements,
template literals with interpolation, import/export with relative string
paths (at the top level only, as in a module; `export default` takes a named
or anonymous function or class, or an expression), member access,
object/array literals. Each repeated shape has one production: every
comma list (``delimited``: one comma between items, one trailing comma
allowed), every ``( expression )`` head and the get/set accessor prefix.

Out of subset (raises UnsupportedSyntax so the file is copied through
verbatim): labeled statements, destructuring, generators, async/await,
class fields, optional chaining, dynamic import(), computed class member
names.

The same pass records the imports and exports the cross-file analysis needs.
Dynamic sites (eval, with, Function constructor) are flagged by the scope
builder.
"""

from .errors import ParseError, UnsupportedSyntax
from .nodes import Node
from .tokens import IDENT, KEYWORD, LINE_TERMINATORS, NUMBER, PUNCT, REGEX, STRING, TEMPLATE

# binary operator precedence; higher binds tighter
_BINARY_PREC = {
    "??": 1, "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7, "instanceof": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}
_MODULE_ITEMS = frozenset({"import-decl", "export-decl"})
# the tokens that may name a property or method
_PROPERTY_NAME_KINDS = frozenset({IDENT, KEYWORD, STRING, NUMBER})
_LOGICAL_OPS = frozenset({"&&", "||", "??"})
_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "**=", "<<=", ">>=", ">>>=", "&=", "|=", "^=", "&&=", "||=", "??="}
)


class FileSummary:
    """Per-file facts consumed by the cross-file analysis.

    ``imports`` holds (source path, [imported names]) pairs where a default
    import appears as "default" and a namespace import as "*".
    ``module_syntax`` is True when the file has an import or export
    declaration.
    """

    __slots__ = (
        "file_id",
        "declared_globals",
        "free_names",
        "imports",
        "module_syntax",
        "export_pairs",
    )

    def __init__(self, file_id):
        self.file_id = file_id
        self.declared_globals = []
        self.free_names = []
        self.imports = []
        self.module_syntax = False
        self.export_pairs = []  # (local binding, exported name) for named exports

    def __repr__(self):
        return (
            f"FileSummary({self.file_id}, globals={self.declared_globals}, "
            f"free={self.free_names}, imports={self.imports}, "
            f"module_syntax={self.module_syntax})"
        )


def parse_ast(tokens, file_id="<input>"):
    """Parse a ``tokenize`` result into (AST root, partial FileSummary).

    The summary holds what the parser sees: imports and exports.
    ``summarize`` adds the facts that need the scope tree.
    """
    parser = _Parser(tokens, file_id)
    root = parser.parse_program()
    summary = FileSummary(file_id)
    summary.imports = parser.imports
    summary.module_syntax = any(stmt.kind in _MODULE_ITEMS for stmt in root.children)
    summary.export_pairs = parser.export_pairs
    return root, summary


def summarize(summary, tree):
    """Complete a summary from ``parse_ast`` with the file's scope tree:
    module-level declarations and the names read free."""
    summary.declared_globals = sorted(tree.nodes[tree.root].declarations)
    summary.free_names = sorted(tree.globals)
    return summary


# None sentinels after the last token let the cursor read without a bounds
# check: the deepest lookahead is peek(1), and one more covers a cursor that
# advanced onto the first sentinel
_SENTINELS = 3


class _Parser:
    def __init__(self, tokens, file_id):
        self.file_id = file_id
        self.n_toks = len(tokens)
        self.toks = tokens + [None] * _SENTINELS
        self.i = 0
        self.nl_before = tokens.nl_before
        self.end_offset = len(tokens.text)
        self.imports = []
        self.export_pairs = []

    # ---- token helpers ----

    def peek(self, k=0):
        return self.toks[self.i + k]

    def at(self, text):
        # contextual keywords (from, as, get, set) lex as identifiers
        t = self.toks[self.i]
        return t is not None and t.text == text and t.kind in (PUNCT, KEYWORD, IDENT)

    def advance(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text):
        if not self.at(text):
            self.error(f"expected {text!r}")
        return self.advance()

    def error(self, message, exc=ParseError):
        t = self.peek()
        raise exc(message, self.file_id, t.start if t is not None else self.end_offset)

    def string_value(self, t):
        """Value of the string token ``t``; a malformed escape in it is a
        ParseError."""
        try:
            return _string_value(t.text)
        except ValueError as exc:
            raise ParseError(f"bad string literal: {exc}", self.file_id, t.start) from None

    def unsupported(self, message):
        self.error(message, UnsupportedSyntax)

    def binding_name(self, message, pattern=None):
        """Read the identifier token a binding declares. Where JS allows a
        destructuring pattern there (``pattern`` names the site), `{` or `[`
        is UnsupportedSyntax; any other token is a ParseError(``message``)."""
        t = self.peek()
        if t is not None and t.kind == IDENT:
            self.advance()
            return t
        if pattern is not None and t is not None and t.kind == PUNCT and t.text in ("{", "["):
            self.unsupported(f"destructuring {pattern} are not supported")
        self.error(message)

    def optional_name(self, decl, message):
        """The name token of a function or class: required for a declaration
        (``decl``), optional for an expression (None when absent)."""
        t = self.peek()
        if decl or (t is not None and t.kind == IDENT):
            return self.binding_name(message)
        return None

    def delimited(self, open_, close, item):
        """Read ``open_ item, item, ... close`` with one comma between two
        items and at most one after the last; returns (the items, the
        ``close`` token)."""
        self.expect(open_)
        items = []
        while not self.at(close):
            items.append(item())
            if self.at(","):
                self.advance()
            elif not self.at(close):
                self.error(f"expected ',' or {close!r}")
        return items, self.advance()

    def paren_head(self):
        """Read the ``( expression )`` after if, while, do-while, switch and
        with; returns the expression."""
        self.expect("(")
        expr = self.parse_expression()
        self.expect(")")
        return expr

    def accessor_role(self):
        """At ``get`` or ``set`` followed by a property name or ``[``:
        consume it and return "get" or "set". Otherwise None, and the word
        (if any) is a property name itself."""
        t = self.peek()
        if t is not None and t.kind == IDENT and t.text in ("get", "set"):
            nxt = self.peek(1)
            if nxt is not None and (
                nxt.kind in _PROPERTY_NAME_KINDS or (nxt.kind == PUNCT and nxt.text == "[")
            ):
                self.advance()
                return t.text
        return None

    def module_path(self):
        """Read a module path string; returns (its token, its value)."""
        t = self.peek()
        if t is None or t.kind != STRING:
            self.error("expected module path string")
        self.advance()
        return t, self.string_value(t)

    def newline_before_current(self):
        return self.i in self.nl_before

    def consume_semicolon(self):
        t = self.peek()
        if t is not None and t.kind == PUNCT and t.text == ";":
            self.advance()
            return
        if t is None or (t.kind == PUNCT and t.text == "}"):
            return
        if self.newline_before_current():
            return
        self.error("expected ';'")

    # ---- program / statements ----

    def parse_program(self):
        stmts = []
        while self.peek() is not None:
            if self.at("export"):
                stmts.append(self.parse_export())
            elif self.at("import") and not self.is_import_expression():
                stmts.append(self.parse_import())
            else:
                stmts.append(self.parse_statement())
        return Node("program", 0, self.end_offset, children=stmts)

    def is_import_expression(self):
        # at `import`: dynamic import() and import.meta are expressions
        nxt = self.peek(1)
        return nxt is not None and nxt.kind == PUNCT and nxt.text in ("(", ".")

    def parse_statement(self):
        t = self.peek()
        if t is None:
            self.error("unexpected end of input")
        if t.kind == PUNCT:
            if t.text == "{":
                return self.parse_block()
            if t.text == ";":
                tok = self.advance()
                return Node("empty", tok.start, tok.end)
        if t.kind == KEYWORD:
            text = t.text
            if text in ("var", "let", "const"):
                node = self.parse_var_decl()
                self.consume_semicolon()
                return node
            if text == "function":
                return self.parse_function(decl=True)
            if text == "class":
                return self.parse_class(decl=True)
            if text == "if":
                return self.parse_if()
            if text == "for":
                return self.parse_for()
            if text == "while":
                return self.parse_while()
            if text == "do":
                return self.parse_do_while()
            if text == "switch":
                return self.parse_switch()
            if text == "try":
                return self.parse_try()
            if text == "return":
                return self.parse_return_like("return")
            if text == "throw":
                return self.parse_return_like("throw", require_arg=True)
            if text == "break" or text == "continue":
                tok = self.advance()
                if (
                    self.peek() is not None
                    and self.peek().kind == IDENT
                    and not self.newline_before_current()
                ):
                    self.unsupported("labeled break/continue is not supported")
                self.consume_semicolon()
                return Node(tok.text, tok.start, tok.end)
            if text == "with":
                return self.parse_with()
            if text == "export" or (text == "import" and not self.is_import_expression()):
                self.error(f"'{text}' is only allowed at the top level of a module")
            if text == "debugger":
                tok = self.advance()
                self.consume_semicolon()
                return Node("other-statement", tok.start, tok.end, name="debugger")
        if t.kind == IDENT:
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == PUNCT and nxt.text == ":":
                self.unsupported("labeled statements are not supported")
        expr = self.parse_expression()
        self.consume_semicolon()
        if expr.kind == "string-lit":
            # directive prologue candidates ("use strict") must stay verbatim
            expr.aux = "directive"
        return Node("expr-stmt", expr.start, expr.end, children=[expr])

    def parse_block(self):
        lbrace = self.expect("{")
        stmts = []
        while not self.at("}"):
            if self.peek() is None:
                self.error("unterminated block")
            stmts.append(self.parse_statement())
        rbrace = self.expect("}")
        return Node("block", lbrace.start, rbrace.end, children=stmts)

    def parse_var_decl(self, no_in=False):
        kw = self.advance()
        declarators = []
        while True:
            name_tok = self.binding_name("expected identifier in declaration", "declarations")
            decl = Node(
                "declarator",
                name_tok.start,
                name_tok.end,
                name=name_tok.text,
                value=(name_tok.start, name_tok.end),
            )
            if self.at("="):
                self.advance()
                init = self.parse_assign(no_in=no_in)
                decl.children.append(init)
                decl.end = init.end
            declarators.append(decl)
            if self.at(","):
                self.advance()
                continue
            break
        end = declarators[-1].end
        return Node("var-decl", kw.start, end, name=kw.text, children=declarators)

    def parse_function(self, decl):
        """A function declaration (``decl``; its name is required) or
        expression (name optional)."""
        kw = self.expect("function")
        if self.at("*"):
            self.unsupported("generator functions are not supported")
        name_tok = self.optional_name(decl, "expected function name")
        params = self.parse_params()
        body = self.parse_block()
        return Node(
            "function-decl" if decl else "function-expr",
            kw.start,
            body.end,
            name=name_tok and name_tok.text,
            value=name_tok and (name_tok.start, name_tok.end),
            children=params + [body],
        )

    def parse_params(self):
        return self.delimited("(", ")", self.parse_param)[0]

    def parse_param(self):
        """One parameter: ``name``, ``name = default`` or ``...name``."""
        rest = self.at("...") and self.advance()
        t = self.binding_name("expected parameter name", "parameters")
        if rest and not self.at(")"):
            self.error("a rest parameter must be the last, with no default or trailing comma")
        aux = "rest" if rest else None
        param = Node("param", t.start, t.end, name=t.text, value=(t.start, t.end), aux=aux)
        if self.at("="):
            self.advance()
            default = self.parse_assign()
            param.children.append(default)
            param.end = default.end
        return param

    def parse_class(self, decl):
        kw = self.expect("class")
        name_tok = self.optional_name(decl, "expected class name")
        children = []
        has_extends = False
        if self.at("extends"):
            self.advance()
            # a LeftHandSideExpression
            children.append(self.parse_call_member(self.parse_primary()))
            has_extends = True
        self.expect("{")
        while not self.at("}"):
            if self.at(";"):
                self.advance()
                continue
            children.append(self.parse_class_member())
        rbrace = self.expect("}")
        return Node(
            "class" if decl else "class-expr",
            kw.start,
            rbrace.end,
            name=name_tok and name_tok.text,
            value=name_tok and (name_tok.start, name_tok.end),
            children=children,
            aux=has_extends or None,
        )

    def parse_class_member(self):
        start_tok = self.peek()
        nxt = self.peek(1)
        if self.at("static") and not (nxt is not None and nxt.kind == PUNCT and nxt.text == "("):
            self.advance()  # a modifier; `static(` names a method
        role = self.accessor_role() or "method"
        if self.at("*"):
            self.unsupported("generator methods are not supported")
        name_tok = self.peek()
        if name_tok is None:
            self.error("unterminated class body")
        if name_tok.kind == PUNCT and name_tok.text == "[":
            self.unsupported("computed method names are not supported")
        if name_tok.kind not in _PROPERTY_NAME_KINDS:
            self.error("expected method name")
        self.advance()
        if not self.at("("):
            self.unsupported("class fields are not supported")
        return self.parse_method(start_tok.start, name_tok.text, role)

    def parse_method(self, start, name, role):
        """Params and body of a class or object-literal method starting at
        ``start``; ``name`` is the property name (None when computed)."""
        params = self.parse_params()
        body = self.parse_block()
        return Node("method", start, body.end, name=name, children=params + [body], aux=role)

    def parse_if(self):
        kw = self.expect("if")
        cond = self.paren_head()
        then = self.parse_statement()
        children = [cond, then]
        end = then.end
        if self.at("else"):
            self.advance()
            alt = self.parse_statement()
            children.append(alt)
            end = alt.end
        return Node("if", kw.start, end, children=children)

    def parse_for(self):
        kw = self.expect("for")
        self.expect("(")
        init = None
        if self.at(";"):
            pass
        elif self.peek() is not None and self.peek().kind == KEYWORD and self.peek().text in (
            "var",
            "let",
            "const",
        ):
            init = self.parse_var_decl(no_in=True)
        else:
            init = self.parse_expression(no_in=True)
        t = self.peek()
        if t is not None and (t.text == "in" or t.text == "of"):
            loop_kind = "for-in" if t.text == "in" else "for-of"
            self.advance()
            iterable = self.parse_assign() if loop_kind == "for-of" else self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return Node(loop_kind, kw.start, body.end, children=[init, iterable, body])
        self.expect(";")
        cond = None if self.at(";") else self.parse_expression()
        self.expect(";")
        update = None if self.at(")") else self.parse_expression()
        rparen = self.expect(")")
        body = self.parse_statement()
        children = [
            init if init is not None else Node("empty", kw.end, kw.end),
            cond if cond is not None else Node("empty", rparen.start, rparen.start),
            update if update is not None else Node("empty", rparen.start, rparen.start),
            body,
        ]
        return Node("for", kw.start, body.end, children=children)

    def parse_while(self):
        kw = self.expect("while")
        cond = self.paren_head()
        body = self.parse_statement()
        return Node("while", kw.start, body.end, children=[cond, body])

    def parse_do_while(self):
        kw = self.expect("do")
        body = self.parse_statement()
        self.expect("while")
        cond = self.paren_head()
        end = self.toks[self.i - 1].end  # the `)`
        if self.at(";"):
            end = self.advance().end
        return Node("do-while", kw.start, end, children=[body, cond])

    def parse_switch(self):
        kw = self.expect("switch")
        disc = self.paren_head()
        self.expect("{")
        cases = []
        while not self.at("}"):
            if not (self.at("case") or self.at("default")):
                self.error("expected 'case' or 'default'")
            ck = self.advance()
            test = [self.parse_expression()] if ck.text == "case" else []
            self.expect(":")
            stmts = []
            while not (self.at("case") or self.at("default") or self.at("}")):
                if self.peek() is None:
                    self.error("unterminated switch body")
                stmts.append(self.parse_statement())
            end = stmts[-1].end if stmts else ck.end
            aux = None if test else "default"
            cases.append(Node("case", ck.start, end, children=test + stmts, aux=aux))
        rbrace = self.expect("}")
        return Node("switch", kw.start, rbrace.end, children=[disc] + cases)

    def parse_try(self):
        kw = self.expect("try")
        block = self.parse_block()
        children = [block]
        end = block.end
        if self.at("catch"):
            ck = self.advance()
            t = None
            if self.at("("):
                self.advance()
                t = self.binding_name("expected catch parameter name", "catch parameters")
                self.expect(")")
            cblock = self.parse_block()
            name, span = (t.text, (t.start, t.end)) if t else (None, None)
            catch = Node("catch", ck.start, cblock.end, name=name, value=span, children=[cblock])
            children.append(catch)
            end = cblock.end
        if self.at("finally"):
            self.advance()
            fblock = self.parse_block()
            children.append(fblock)
            end = fblock.end
        if len(children) == 1:
            self.error("try requires catch or finally")
        return Node("try", kw.start, end, children=children)

    def parse_return_like(self, kind, require_arg=False):
        kw = self.advance()
        t = self.peek()
        has_arg = not (
            t is None
            or (t.kind == PUNCT and t.text in (";", "}"))
            or self.newline_before_current()
        )
        if require_arg and not has_arg:
            self.error(f"{kind} requires an argument")
        children = []
        end = kw.end
        if has_arg:
            expr = self.parse_expression()
            children.append(expr)
            end = expr.end
        self.consume_semicolon()
        return Node(kind, kw.start, end, children=children)

    def parse_with(self):
        kw = self.expect("with")
        expr = self.paren_head()
        body = self.parse_statement()
        return Node("with", kw.start, body.end, children=[expr, body])

    # ---- modules ----

    def parse_import(self):
        kw = self.expect("import")
        info = {"source": None, "default": None, "namespace": None, "names": []}
        t = self.peek()
        if t is None or t.kind != STRING:
            if not (self.at("*") or self.at("{")):
                t = self.binding_name("expected import binding")
                info["default"] = (t.text, (t.start, t.end))
                if self.at(","):
                    self.advance()
            if self.at("*"):
                self.advance()
                self.expect("as")
                nt = self.binding_name("expected namespace alias")
                info["namespace"] = (nt.text, (nt.start, nt.end))
            elif self.at("{"):
                info["names"] = self.delimited("{", "}", self.parse_import_specifier)[0]
            self.expect("from")
        src, info["source"] = self.module_path()
        self.consume_semicolon()
        imported = []
        if info["default"] is not None:
            imported.append("default")
        if info["namespace"] is not None:
            imported.append("*")
        imported.extend(ext for ext, _local, _span in info["names"])
        self.imports.append((info["source"], imported))
        return Node("import-decl", kw.start, src.end, value=info)

    def parse_import_specifier(self):
        """``name`` or ``name as local``; returns (imported name, local
        name, local span)."""
        ext = self.peek()
        if ext is None or ext.kind not in (IDENT, KEYWORD, STRING):
            self.error("expected import specifier")
        nxt = self.peek(1)
        if nxt is not None and nxt.kind == IDENT and nxt.text == "as":
            self.advance()
            self.advance()
            local_tok = self.binding_name("expected local alias")
        else:
            # the imported name is the local binding too
            local_tok = self.binding_name("expected 'as' after import specifier")
        ext_name = self.string_value(ext) if ext.kind == STRING else ext.text
        return ext_name, local_tok.text, (local_tok.start, local_tok.end)

    def parse_export(self):
        kw = self.expect("export")
        t = self.peek()
        if t is None:
            self.error("unterminated export")
        if t.text == "default" and t.kind == KEYWORD:
            self.advance()
            if self.at("function") or self.at("class"):
                # a declaration, so no call or member suffix; an anonymous one binds no name
                nxt = self.peek(1)
                named = nxt is not None and nxt.kind == IDENT
                inner = self.parse_statement() if named else self.parse_primary()
            else:
                inner = self.parse_expression()
                self.consume_semicolon()
            return Node("export-decl", kw.start, inner.end, children=[inner])
        if t.kind == KEYWORD and t.text in ("var", "let", "const", "function", "class", "async"):
            inner = self.parse_statement()  # `async function` is UnsupportedSyntax
            if inner.kind == "var-decl":
                names = [decl.name for decl in inner.children]
            else:
                names = [inner.name]
            for name in names:
                self.export_pairs.append((name, name))
            return Node("export-decl", kw.start, inner.end, children=[inner])
        if t.text == "{":
            specifiers, rbrace = self.delimited("{", "}", self.parse_export_specifier)
            end = rbrace.end
            source = None
            if self.at("from"):
                self.advance()
                src, source = self.module_path()
                self.imports.append((source, [lt.text for lt, _ in specifiers]))
                end = src.end
            self.consume_semicolon()
            node = Node("export-decl", kw.start, end)
            for lt, exported in specifiers:
                if source is None:
                    # bare `export {a, b}`: the locals are references to module bindings
                    self.export_pairs.append((lt.text, exported))
                    node.children.append(
                        Node("identifier-ref", lt.start, lt.end, name=lt.text, aux="export")
                    )
            return node
        self.error("unsupported export form")

    def parse_export_specifier(self):
        """``name`` or ``name as exported``; returns (the local token, the
        exported name)."""
        lt = self.peek()
        if lt is None or lt.kind not in (IDENT, KEYWORD):
            self.error("expected export specifier")
        self.advance()
        exported = lt.text
        if self.at("as"):
            self.advance()
            et = self.peek()
            if et is None or et.kind not in (IDENT, KEYWORD, STRING):
                self.error("expected export alias")
            self.advance()
            exported = self.string_value(et) if et.kind == STRING else et.text
        return lt, exported

    # ---- expressions ----

    def parse_expression(self, no_in=False):
        expr = self.parse_assign(no_in=no_in)
        if not self.at(","):
            return expr
        exprs = [expr]
        while self.at(","):
            self.advance()
            exprs.append(self.parse_assign(no_in=no_in))
        return Node("sequence", exprs[0].start, exprs[-1].end, children=exprs)

    def parse_assign(self, no_in=False):
        left = self.parse_conditional(no_in=no_in)
        t = self.peek()
        if t is not None and t.kind == PUNCT and t.text in _ASSIGN_OPS:
            if left.kind not in ("identifier-ref", "member-access", "computed-member", "paren"):
                self.error("invalid assignment target")
            self.advance()
            right = self.parse_assign(no_in=no_in)
            return Node("assign", left.start, right.end, name=t.text, children=[left, right])
        return left

    def parse_conditional(self, no_in=False):
        cond = self.parse_binary(1, no_in=no_in)
        if self.at("?"):
            self.advance()
            consequent = self.parse_assign()
            self.expect(":")
            alternate = self.parse_assign(no_in=no_in)
            return Node(
                "ternary", cond.start, alternate.end, children=[cond, consequent, alternate]
            )
        return cond

    def parse_binary(self, min_prec, no_in=False):
        left = self.parse_unary()
        while True:
            t = self.peek()
            if t is None:
                return left
            op = t.text
            if op == "in" and no_in:
                return left
            if t.kind == PUNCT or (t.kind == KEYWORD and op in ("in", "instanceof")):
                prec = _BINARY_PREC.get(op)
                if prec is None or prec < min_prec:
                    return left
                self.advance()
                if op == "**":
                    right = self.parse_binary(prec, no_in=no_in)  # right-assoc
                else:
                    right = self.parse_binary(prec + 1, no_in=no_in)
                kind = "logical" if op in _LOGICAL_OPS else "binary"
                left = Node(kind, left.start, right.end, name=op, children=[left, right])
                continue
            return left

    def parse_unary(self):
        t = self.peek()
        if t is not None and (
            (t.kind == PUNCT and t.text in ("!", "~", "+", "-"))
            or (t.kind == KEYWORD and t.text in ("typeof", "void", "delete"))
        ):
            self.advance()
            operand = self.parse_unary()
            return Node("unary", t.start, operand.end, name=t.text, children=[operand])
        if t is not None and t.kind == PUNCT and t.text in ("++", "--"):
            self.advance()
            operand = self.parse_unary()
            return Node(
                "update", t.start, operand.end, name=t.text, children=[operand], aux="prefix"
            )
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_call_member(self.parse_primary())
        t = self.peek()
        if (
            t is not None
            and t.kind == PUNCT
            and t.text in ("++", "--")
            and not self.newline_before_current()
        ):
            self.advance()
            return Node("update", expr.start, t.end, name=t.text, children=[expr], aux="postfix")
        return expr

    def parse_call_member(self, expr, allow_call=True):
        while True:
            t = self.peek()
            if t is None:
                return expr
            if t.kind == PUNCT and t.text == "?.":
                self.unsupported("optional chaining is not supported")
            if t.kind == PUNCT and t.text == ".":
                dot = self.advance()
                prop = self.peek()
                if prop is None or prop.kind not in (IDENT, KEYWORD):
                    self.error("expected property name")
                self.advance()
                expr = Node(
                    "member-access",
                    expr.start,
                    prop.end,
                    name=prop.text,
                    value=(dot.start, prop.end),
                    children=[expr],
                )
                continue
            if t.kind == PUNCT and t.text == "[":
                self.advance()
                index = self.parse_expression()
                rb = self.expect("]")
                expr = Node("computed-member", expr.start, rb.end, children=[expr, index])
                continue
            if allow_call and t.kind == PUNCT and t.text == "(":
                args, rp = self.parse_arguments()
                expr = Node("call", expr.start, rp.end, children=[expr] + args)
                continue
            if t.kind == TEMPLATE and t.text.startswith("`"):
                tpl = self.parse_template()
                expr = Node("tagged-template", expr.start, tpl.end, children=[expr, tpl])
                continue
            return expr

    def parse_arguments(self):
        """The arguments of a call or ``new``; returns (them, the `)`)."""
        return self.delimited("(", ")", self.parse_element)

    def parse_element(self):
        """An argument or array element: an expression or a ``...`` spread."""
        if self.at("..."):
            s = self.advance()
            expr = self.parse_assign()
            return Node("spread", s.start, expr.end, children=[expr])
        return self.parse_assign()

    def parse_primary(self):
        t = self.peek()
        if t is None:
            self.error("unexpected end of input")
        if t.kind == IDENT:
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == PUNCT and nxt.text == "=>":
                return self.parse_arrow([self.parse_param()])
            self.advance()
            return Node("identifier-ref", t.start, t.end, name=t.text)
        if t.kind == NUMBER:
            self.advance()
            return Node("num-lit", t.start, t.end)
        if t.kind == STRING:
            self.advance()
            return Node("string-lit", t.start, t.end)
        if t.kind == REGEX:
            self.advance()
            return Node("regex-lit", t.start, t.end)
        if t.kind == TEMPLATE:
            return self.parse_template()
        if t.kind == KEYWORD:
            if t.text in ("true", "false", "null"):
                self.advance()
                return Node("literal", t.start, t.end, name=t.text)
            if t.text == "this":
                self.advance()
                return Node("this", t.start, t.end)
            if t.text == "super":
                self.advance()
                return Node("super", t.start, t.end)
            if t.text == "function":
                return self.parse_function(decl=False)
            if t.text == "class":
                return self.parse_class(decl=False)
            if t.text == "new":
                return self.parse_new()
            if t.text in ("async", "await", "yield"):
                self.unsupported(f"'{t.text}' is not supported")
            if t.text == "import":
                nxt = self.peek(1)
                if nxt is not None and nxt.text == ".":
                    self.unsupported("import.meta is not supported")
                self.unsupported("dynamic import() is not supported")
            self.error(f"unexpected keyword {t.text!r}")
        if t.kind == PUNCT:
            if t.text == "(":
                if self.is_arrow_ahead():
                    return self.parse_arrow(None)
                lp = self.advance()
                inner = self.parse_expression()
                rp = self.expect(")")
                return Node("paren", lp.start, rp.end, children=[inner])
            if t.text == "[":
                return self.parse_array()
            if t.text == "{":
                return self.parse_object()
        self.error(f"unexpected token {t.text!r}")

    def is_arrow_ahead(self):
        # at '(' : find the matching ')' and look for '=>'
        depth = 0
        j = self.i
        while j < self.n_toks:
            text = self.toks[j].text
            kind = self.toks[j].kind
            if kind == PUNCT:
                if text == "(" or text == "[" or text == "{":
                    depth += 1
                elif text == ")" or text == "]" or text == "}":
                    depth -= 1
                    if depth == 0:
                        nxt = self.toks[j + 1]
                        return nxt is not None and nxt.kind == PUNCT and nxt.text == "=>"
            j += 1
        return False

    def parse_arrow(self, params):
        start = self.peek().start if params is None else params[0].start
        if params is None:
            params = self.parse_params()
        self.expect("=>")
        if self.at("{"):
            body = self.parse_block()
            aux = None
        else:
            body = self.parse_assign()
            aux = "expr"
        return Node("arrow", start, body.end, children=params + [body], aux=aux)

    def parse_new(self):
        kw = self.expect("new")
        if self.at("."):
            self.unsupported("new.target is not supported")
        callee = self.parse_call_member(self.parse_primary(), allow_call=False)
        args = []
        end = callee.end
        if self.at("("):
            args, rp = self.parse_arguments()
            end = rp.end
        return self.parse_call_member(Node("new", kw.start, end, children=[callee] + args))

    def parse_template(self):
        first = self.advance()
        node = Node("template", first.start, first.end)
        if first.text.endswith("`") and len(first.text) >= 2:
            return node
        # chunk ends with "${": expressions follow until a chunk closes with `
        while True:
            expr = self.parse_expression()
            node.children.append(expr)
            t = self.peek()
            if t is None or t.kind != TEMPLATE:
                self.error("unterminated template literal")
            self.advance()
            if t.text.endswith("`"):
                node.end = t.end
                return node

    def parse_array(self):
        start = self.peek().start
        elements, rb = self.delimited("[", "]", self.parse_array_element)
        return Node("array", start, rb.end, children=elements)

    def parse_array_element(self):
        if self.at(","):  # a hole: an empty node at its comma
            t = self.peek()
            return Node("empty", t.start, t.start)
        return self.parse_element()

    def parse_object(self):
        start = self.peek().start
        props, rb = self.delimited("{", "}", self.parse_property)
        return Node("object", start, rb.end, children=props)

    def parse_property(self):
        t = self.peek()
        if t is None:
            self.error("unterminated object literal")
        if t.kind == PUNCT and t.text == "...":
            self.advance()
            expr = self.parse_assign()
            return Node("property", t.start, expr.end, children=[expr], aux="spread")
        role = self.accessor_role()
        if role is not None:
            t = self.peek()
        if t.kind == PUNCT and t.text == "[":
            self.advance()
            key_expr = self.parse_assign()
            self.expect("]")
            if role is not None or self.at("("):
                value = self.parse_method(t.start, None, role or "method")
            else:
                self.expect(":")
                value = self.parse_assign()
            return Node("property", t.start, value.end, children=[key_expr, value], aux="computed")
        if t.kind not in _PROPERTY_NAME_KINDS:
            self.error("expected property key")
        self.advance()
        key = []
        if t.kind == STRING:
            key = [Node("string-lit", t.start, t.end, aux="key")]
        elif t.kind == NUMBER:
            key = [Node("num-lit", t.start, t.end, aux="key")]
        if role is not None or self.at("("):
            role = role or "method"
            value = self.parse_method(t.start, t.text, role)
        elif self.at(":"):
            self.advance()
            role = "init"
            value = self.parse_assign()
        else:
            # shorthand { name }
            if t.kind != IDENT:
                self.error("expected ':' after property key")
            role = "shorthand"
            value = Node("identifier-ref", t.start, t.end, name=t.text, aux="shorthand")
        return Node("property", t.start, value.end, name=t.text, children=key + [value], aux=role)


_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "v": "\v",
    "0": "\0", "'": "'", '"': '"', "\\": "\\", "`": "`",
    **dict.fromkeys(LINE_TERMINATORS, ""),  # a line continuation
}


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _code_point(digits, width=None):
    """The character a hex escape's digits name; ValueError unless they are
    hex digits (exactly ``width`` of them when given, at least one otherwise)
    naming a code point up to U+10FFFF."""
    if not digits or not _HEX_DIGITS.issuperset(digits) or width not in (None, len(digits)):
        raise ValueError(f"malformed hex escape digits {digits!r}")
    code = int(digits, 16)
    if code > 0x10FFFF:
        raise ValueError(f"code point {digits!r} above U+10FFFF")
    return chr(code)


def _string_value(raw):
    """Decode a JavaScript string literal (including the quotes) to its value.

    Raises ValueError for every malformed escape and for legacy octal
    escapes; callers treat such literals as ineligible (or, for module
    paths and specifiers, the file as unparsable) rather than guessing.
    """
    body = raw[1:-1]
    if "\\" not in body:
        return body
    out = []
    i = 0
    n = len(body)
    while i < n:
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= n:
            raise ValueError("dangling backslash")
        esc = body[i]
        if esc == "u":
            if i + 1 < n and body[i + 1] == "{":
                j = body.find("}", i)
                if j < 0:
                    raise ValueError("unterminated \\u{ escape")
                out.append(_code_point(body[i + 2 : j]))
                i = j + 1
                continue
            out.append(_code_point(body[i + 1 : i + 5], 4))
            i += 5
            continue
        if esc == "x":
            out.append(_code_point(body[i + 1 : i + 3], 2))
            i += 3
            continue
        if esc == "\r":
            if i + 1 < n and body[i + 1] == "\n":
                i += 1
            i += 1
            continue
        if esc.isdigit() and (esc != "0" or (i + 1 < n and body[i + 1].isdigit())):
            raise ValueError("legacy octal escape")
        if esc in _SIMPLE_ESCAPES:
            out.append(_SIMPLE_ESCAPES[esc])
            i += 1
            continue
        out.append(esc)
        i += 1
    return "".join(out)
