"""Recursive-descent parser for the supported JavaScript subset.

The parser builds no syntax tree. As it reduces each production it records
the facts the later layers read, and nothing else:

  scopes          through a ``ScopeBuilder``: it enters and leaves scopes,
                  declares names, records references and marks a scope
                  dynamic; the builder resolves the occurrences once the
                  file has parsed, because hoisting needs the whole file
  candidates      the string literals the string transform may encode and
                  the `obj.prop` accesses the property transform may
                  rewrite, in source order, and the preamble offset; leaving
                  a scope that holds a dynamic site drops the candidates
                  read in it or below it, and the module scope is checked
                  once the file has parsed
  summary         the file's kind, "esm" from its first import or export
                  declaration or an ``.mjs`` name, else "script", which
                  ``renamer.frozen_names`` reads; each import's path and each
                  export's local; and the branch points of the complexity
                  metric

The parser lexes the file as it reads it: it pulls a batch of tokens from
``lexer.lex`` when its cursor nears the end of what it holds, and at that
point drops the tokens it has read past, so a file's tokens never exist all
at once. The lexer's gap table is known once the stream ends.

A `(` in an expression is read once, as expressions, and only a `=>` after
its `)` makes it an arrow head (``parse_parenthesized``).

Spans, like every error offset, are half-open offsets into the file as
written. Expression productions return only a kind tag (``_OTHER`` ...
``_LITERAL`` below), which is all a parent production reads; statement
productions return their end, which excludes a semicolon they consumed.

Facts by construct:

  function declaration   name declared in the enclosing scope ("function"),
                         then a function scope from `function` to `}`
  function expression    a function scope; its name, if any, declared in
                         it ("fnexpr")
  arrow                  a function scope from its parameter or `(` to
                         the end of its body
  method                 a function scope to the end of its body, from its
                         first token in a class (modifiers included), from
                         its name or `[` in an object literal
  parameter              declared in the function scope ("param"); its
                         default is read in that scope
  function body          with a parameter default, a body scope from `{` to
                         `}` below the parameters' scope; its `var`s bind in
                         it, except one named like a parameter, which is the
                         parameter (ECMA-262 FunctionDeclarationInstantiation)
  var / let / const      `var` declares in the nearest function or module
                         scope ("var"), let/const in the current one
                         ("lexical"); each name before its initializer
  class declaration      name declared in the current scope ("lexical");
                         a class expression's name binds nothing
  block                  a block scope only if it directly holds a let,
                         const, class or function declaration; function
                         and catch bodies are their own scope's statements
  switch                 a block scope from `{` to `}` only if one of its
                         clauses directly holds such a declaration
  for (let / const ...)  a block scope from `for` to the end of the body
  catch                  a block scope from `catch` to its `}`; the
                         parameter is declared in it ("catch")
  import                 each local declared in the module scope ("import")
  identifier             a reference; style SHORTHAND in `{x}`
  eval(...), Function(...), new Function, with
                         the current scope is dynamic
  string literal         a candidate, unless it is an object key, a module
                         path or a whole expression statement (a directive),
                         or is read in a dynamic scope or below one
  a.b                    a candidate, unless the object is `super`, the
                         access is the operand of `delete` (parenthesized
                         or not), or it is read in a dynamic scope or below
                         one
  super                  no fact; `super.x` and `super[x]` parse only in a
                         method or an arrow within one, `super(...)` only
                         in the constructor of a class with `extends`
  branch points          if, each loop, catch, ?:, a case with a test, &&,
                         || and every function

Supported: var/let/const, function declarations and expressions, arrows,
classes with methods/getters/setters, blocks, all common statements,
template literals with interpolation, import/export with relative string
paths (at the top level only, as in a module; `export default` takes a named
or anonymous function or class, or an expression), member access,
object/array literals. Each repeated shape has one production: every
comma list (``delimited``: one comma between items, one trailing comma
allowed), every ``( expression )`` head and the get/set accessor prefix.

Out of subset (raises UnsupportedSyntax so the file is copied through
verbatim): labeled statements, destructuring (assignment too), generators,
async/await (async methods and `for await` too), class fields, static
blocks and private names, optional chaining, dynamic import(), computed
class member names, and the contextual words async, await, yield, let,
static and of where a name stands.
"""

import sys

from .errors import ParseError, UnsupportedSyntax
from .facts import Candidates, FileSummary, Spans
from .lexer import lex
from .patches import Edits
from .scopes import (
    BLOCK, BODY, CATCH, FUNCTION, FUNCTION_DECL, FUNCTION_EXPR, IMPORT, LEXICAL, PARAM, SHORTHAND,
    ScopeBuilder,
)
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
# the tokens that may name a property or method
_PROPERTY_NAME_KINDS = frozenset({IDENT, KEYWORD, STRING, NUMBER})
_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "**=", "<<=", ">>=", ">>>=", "&=", "|=", "^=", "&&=", "||=", "??="}
)
# the first keyword of a statement that makes its block a scope
_LEXICAL_STATEMENTS = frozenset({"let", "const", "class", "function"})

# What an expression production tells its parent. _REF through _TARGET are
# the assignment targets; a _CALL is one too, except of a logical
# assignment (``_assignable``).
_OTHER = 0
_REF = 1  # an identifier reference
_CALLEE = 2  # a reference to eval or Function: a call makes its scope dynamic
_MEMBER = 3  # a dot access: the last access candidate recorded
_PAREN_MEMBER = 4  # a parenthesized _MEMBER or _PAREN_MEMBER
_TARGET = 5  # a computed access, a dot access on super, a parenthesized target
_STRING = 6  # a string literal: the last string candidate recorded
_SUPER = 7
_LITERAL = 8  # an array or object literal: `=` would make it a pattern
_CALL = 9  # a call, parenthesized or not: node compiles `f() = 1`, which throws when run
_LOGICAL_ASSIGN_OPS = frozenset({"&&=", "||=", "??="})


def _assignable(tag, op):
    """Whether an expression of kind ``tag`` may be the target of the
    assignment or update operator ``op``."""
    return _REF <= tag <= _TARGET or tag == _CALL and op not in _LOGICAL_ASSIGN_OPS


# the words the lexer makes keywords that JS also takes as names
_CONTEXTUAL_WORDS = frozenset({"async", "await", "yield", "let", "static", "of"})
_REST_LAST = "a rest parameter must be the last, with no default or trailing comma"


def parse(source, file_id="<input>"):
    """Lex and parse ``source``; returns (the lexer's gap table, ScopeTree,
    Candidates, FileSummary). After a syntax error the lexer still runs to
    the end of the file, so a lexical error later in the file wins; a token
    the lexer does not support does not. The parser reads the tokens before
    such a token first, so a syntax error among them wins too."""
    parser = _Parser(source, file_id)
    failure = None
    try:
        preamble_offset = parser.parse_program()
    except ParseError as exc:
        failure = exc.with_traceback(None)  # its frames hold the parser
    unsupported = parser.lex_unsupported
    if failure is not None:
        # outside the handler and with the parser dropped: nothing the failed
        # parse built is alive while the lexer drains
        stream, parser = parser.stream, None
        try:
            for _batch in stream:
                pass
        except UnsupportedSyntax:
            pass  # after the syntax error
        # the parse ran out of tokens at the unsupported one, if it got there
        raise unsupported if unsupported is not None and unsupported.offset <= failure.offset else failure
    if unsupported is not None:
        raise unsupported
    if parser.scopes.catch_redeclared is not None:
        raise parser.scopes.catch_redeclared
    tree = parser.scopes.finish(len(source))
    if tree.dynamic[tree.root]:
        # a dynamic site at the top level sees every candidate
        parser.strings.truncate(0)
        parser.accesses.truncate(0)
    return parser.gaps, tree, Candidates(parser.strings, parser.accesses, preamble_offset), parser.summary


# None sentinels after the last token let the cursor read without a bounds
# check: the deepest lookahead is peek(1), and one more covers a cursor that
# advanced onto the first sentinel. Before the stream ends, the parser pulls
# batches so that it holds as many tokens past its cursor.
_SENTINELS = (None, None, None)
_LOOKAHEAD = len(_SENTINELS)
# ``refill_at`` once the stream has ended: no cursor reaches it
_NO_REFILL = sys.maxsize


class _Parser:
    def __init__(self, source, file_id):
        self.file_id = file_id
        self.size = len(source)  # the offset of an error at the end of input
        self.stream = lex(source, file_id)
        self.toks = []  # the tokens pulled and not yet dropped
        self.i = 0  # the cursor: the index of the next token
        self.refill_at = 0  # advancing from this index pulls a batch
        self.gaps = None  # the lexer's gap table, once the stream ends
        self.lex_unsupported = None  # the UnsupportedSyntax that ended the stream
        self.scopes = ScopeBuilder(file_id)
        self.summary = FileSummary("esm" if file_id.endswith(".mjs") else "script")
        self.strings = Spans()
        self.accesses = Edits()  # text: the property name
        # the candidate counts when each open scope was entered
        self.marks = []
        # whether super.x and super(...) may be read here: in a method, or
        # in an arrow within one; super(...) only in a derived constructor
        self.super_member = self.super_call = False
        self.refill()

    # ---- token helpers ----

    def peek(self, k=0):
        return self.toks[self.i + k]

    def at(self, text):
        # contextual keywords (from, as, get, set) lex as identifiers
        t = self.toks[self.i]
        return t is not None and t.text == text and t.kind in (PUNCT, KEYWORD, IDENT)

    def advance(self):
        i = self.i
        t = self.toks[i]
        self.i = i + 1
        if i >= self.refill_at:
            self.refill()
        return t

    def refill(self):
        """Drop the tokens before the last one consumed, which the parser
        reads no more, then pull batches until ``_LOOKAHEAD`` tokens (or the
        sentinels) lie past the cursor."""
        toks = self.toks
        drop = max(self.i - 1, 0)
        del toks[:drop]
        self.i -= drop
        while self.gaps is None and len(toks) - self.i < _LOOKAHEAD:
            try:
                toks += next(self.stream)
            except StopIteration as stop:
                # the stream has ended: the sentinels and the gaps are set
                self.gaps = stop.value
                toks += _SENTINELS
            except UnsupportedSyntax as exc:
                # the tokens before it are read as a file that ends there
                self.lex_unsupported = exc.with_traceback(None)
                self.gaps = Edits()
                toks += _SENTINELS
        self.refill_at = len(toks) - _LOOKAHEAD if self.gaps is None else _NO_REFILL

    def last_end(self):
        """The end of the last token consumed."""
        return self.toks[self.i - 1].end

    def expect(self, text):
        if not self.at(text):
            self.error(f"expected {text!r}")
        return self.advance()

    def error(self, message, exc=ParseError):
        t = self.peek()
        raise exc(message, self.file_id, t.start if t is not None else self.size)

    def literal_value(self, t):
        """Value of the string token ``t``; a malformed escape in it is a
        ParseError."""
        try:
            return string_value(t.text)
        except ValueError as exc:
            raise ParseError(f"bad string literal: {exc}", self.file_id, t.start) from None

    def enter_scope(self, kind, start):
        self.scopes.enter(kind, start)
        self.marks.append((len(self.strings), len(self.accesses)))

    def leave_scope(self, end, keep=True):
        """Leave the current scope. If a dynamic site is in it, drop the
        candidates read since it was entered, in it or below it: that code
        may read them as written."""
        strings, accesses = self.marks.pop()
        if self.scopes.leave(end, keep):
            self.strings.truncate(strings)
            self.accesses.truncate(accesses)

    def unsupported(self, message):
        self.error(message, UnsupportedSyntax)

    def binding_name(self, message, pattern=None):
        """Read the identifier token a binding declares; any other token
        raises ``name_error``."""
        t = self.peek()
        if t is not None and t.kind == IDENT:
            self.advance()
            return t
        raise self.name_error(t, message, pattern)

    def name_error(self, t, message, pattern=None):
        """The error for ``t`` where a name must stand: UnsupportedSyntax for
        a contextual word, and for `{` or `[` where JS allows a destructuring
        pattern (``pattern`` names the site); else ParseError(``message``)."""
        if t is None:
            return ParseError(message, self.file_id, self.size)
        if t.kind == PUNCT and pattern is not None and t.text in ("{", "["):
            return UnsupportedSyntax(f"destructuring {pattern} are not supported", self.file_id, t.start)
        if t.kind == KEYWORD and t.text in _CONTEXTUAL_WORDS:
            return UnsupportedSyntax(f"'{t.text}' is not supported", self.file_id, t.start)
        return ParseError(message, self.file_id, t.start)

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
        """Read ``( expression )``; returns the expression's kind tag."""
        self.expect("(")
        tag = self.parse_expression()
        self.expect(")")
        return tag

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
        """Read a module path string; returns its value."""
        t = self.peek()
        if t is None or t.kind != STRING:
            self.error("expected module path string")
        self.advance()
        return self.literal_value(t)

    def consume_semicolon(self):
        t = self.peek()
        if t is not None and t.kind == PUNCT and t.text == ";":
            self.advance()
            return
        if t is None or t.nl or (t.kind == PUNCT and t.text == "}"):
            return
        self.error("expected ';'")

    # ---- program / statements ----

    def parse_program(self):
        """Read every statement; returns the preamble offset: the start of
        the first statement that is not a directive, else the end of the
        last directive, else 0."""
        offset = 0
        prologue = True
        while self.peek() is not None:
            t = self.peek()
            if self.at("export"):
                self.parse_export()
                self.summary.kind = "esm"
            elif self.at("import") and not self.is_import_expression():
                self.parse_import()
                self.summary.kind = "esm"
            else:
                end = self.parse_statement()
                if prologue and t.kind == STRING and end == t.end:
                    offset = end
                    continue
            if prologue:
                offset = t.start
                prologue = False
        return offset

    def is_import_expression(self):
        # at `import`: dynamic import() and import.meta are expressions
        nxt = self.peek(1)
        return nxt is not None and nxt.kind == PUNCT and nxt.text in ("(", ".")

    def parse_statement(self):
        """Read one statement; returns its end, which excludes a `;` it
        consumed."""
        t = self.peek()
        if t is None:
            self.error("unexpected end of input")
        if t.kind == PUNCT:
            if t.text == "{":
                return self.parse_block(BLOCK)
            if t.text == ";":
                return self.advance().end
        if t.kind == KEYWORD:
            text = t.text
            if text in ("var", "let", "const"):
                if text == "let" and not self.let_declares():
                    self.unsupported("'let' is not supported")
                self.parse_var_decl()
                end = self.last_end()
                self.consume_semicolon()
                return end
            if text == "function":
                self.parse_function(decl=True)
                return self.last_end()
            if text == "class":
                self.parse_class(decl=True)
                return self.last_end()
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
            if text in ("break", "continue", "debugger"):
                tok = self.advance()
                nxt = self.peek()
                if text != "debugger" and nxt is not None and nxt.kind == IDENT and not nxt.nl:
                    self.unsupported("labeled break/continue is not supported")
                self.consume_semicolon()
                return tok.end
            if text == "with":
                return self.parse_with()
            if text == "export" or (text == "import" and not self.is_import_expression()):
                self.error(f"'{text}' is only allowed at the top level of a module")
        if t.kind == IDENT:
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == PUNCT and nxt.text == ":":
                self.unsupported("labeled statements are not supported")
        if self.parse_expression() == _STRING:
            # directive prologue candidates ("use strict") must stay verbatim
            self.strings.truncate(len(self.strings) - 1)
        end = self.last_end()
        self.consume_semicolon()
        return end

    def parse_block(self, kind=None):
        """Read ``{ statements }``; returns the end of the `}`. A statement
        block (``kind`` BLOCK) is a scope if it directly holds a lexical
        declaration, the body of a function with a parameter default (BODY)
        always; any other function or catch body is its scope's statements."""
        lbrace = self.expect("{")
        lexical = False
        if kind is not None:
            self.enter_scope(kind, lbrace.start)
        while not self.at("}"):
            t = self.peek()
            if t is None:
                self.error("unterminated block")
            if t.kind == KEYWORD and t.text in _LEXICAL_STATEMENTS:
                lexical = True
            self.parse_statement()
        end = self.advance().end
        if kind is not None:
            self.leave_scope(end, keep=lexical or kind == BODY)
        return end

    def let_declares(self):
        """Whether the `let` at the cursor starts a declaration: ECMA-262
        reads it so only before a name, `[` or `{`."""
        nxt = self.peek(1)
        return nxt is not None and (
            nxt.kind in (IDENT, KEYWORD) or nxt.kind == PUNCT and nxt.text in ("[", "{")
        )

    def parse_var_decl(self, no_in=False):
        """Returns the declared names."""
        kw = self.advance()
        scopes = self.scopes
        names = []
        while True:
            name_tok = self.binding_name("expected identifier in declaration", "declarations")
            if kw.text == "var":
                scopes.declare_var(name_tok)
            else:
                scopes.declare(name_tok, LEXICAL)
            names.append(name_tok.text)
            if self.at("="):
                self.advance()
                self.parse_assign(no_in=no_in)
            if self.at(","):
                self.advance()
                continue
            return names

    def parse_function(self, decl):
        """A function declaration (``decl``; its name is required) or
        expression (name optional); returns the name token or None."""
        kw = self.expect("function")
        if self.at("*"):
            self.unsupported("generator functions are not supported")
        name_tok = self.optional_name(decl, "expected function name")
        if decl:
            self.scopes.declare(name_tok, FUNCTION_DECL)
        self.summary.branch_points += 1
        self.enter_scope(FUNCTION, kw.start)
        if name_tok is not None and not decl:
            self.scopes.declare(name_tok, FUNCTION_EXPR)
        outer = self.super_member, self.super_call
        self.super_member = self.super_call = False
        kinds = self.parse_params()
        self.leave_scope(self.parse_block(BODY if "default" in kinds else None))
        self.super_member, self.super_call = outer
        return name_tok

    def parse_params(self, unique=False):
        """Read a parameter list into the current scope; returns the kinds of
        the parameters. As in ECMA-262, two may share a name only in a plain
        list of names, and not in a ``unique`` one (a method's)."""
        params = self.delimited("(", ")", self.parse_param)[0]
        kinds = [kind for _t, kind in params]
        if unique or any(kind != "name" for kind in kinds):
            self.unique_params((t.text, t.start) for t, _kind in params)
        return kinds

    def parse_param(self):
        """One parameter: ``name``, ``name = default`` or ``...name``;
        returns its name token and its kind: "name", "default" or "rest"."""
        rest = self.at("...") and self.advance()
        fault = self.param_fault(rest)
        if fault is not None:
            raise self.param_error(*fault)
        t = self.advance()
        self.scopes.declare(t, PARAM)
        if rest or not self.at("="):
            return t, "rest" if rest else "name"
        self.advance()
        self.parse_assign()
        return t, "default"

    def param_fault(self, rest):
        """None at a name a parameter may end with (followed by `,`, `)` or
        `=`; after `...`, by `)`), else what ``param_error`` builds the
        error from: this token, the next and ``rest``. It reads two tokens."""
        t, nxt = self.peek(), self.peek(1)
        ends = (")",) if rest else (",", ")", "=")
        if t is not None and t.kind == IDENT and nxt is not None and nxt.kind == PUNCT and nxt.text in ends:
            return None
        return t, nxt, rest

    def param_error(self, t, nxt, rest):
        """The error a parameter list raises at ``t``, followed by ``nxt``
        and after `...` if ``rest``, where ``param_fault`` found none."""
        if t is None or t.kind != IDENT:
            return self.name_error(t, "expected parameter name", "parameters")
        message = _REST_LAST if rest else "expected ',' or ')'"
        return ParseError(message, self.file_id, nxt.start if nxt is not None else self.size)

    def unique_params(self, names):
        """Raise at the second of two parameters of one name; ``names``
        yields each parameter's (name, start)."""
        seen = set()
        for name, start in names:
            if name in seen:
                raise ParseError(f"duplicate parameter name {name!r}", self.file_id, start)
            seen.add(name)

    def parse_class(self, decl):
        """Returns the name token or None."""
        self.expect("class")
        name_tok = self.optional_name(decl, "expected class name")
        if decl:
            self.scopes.declare(name_tok, LEXICAL)
        derived = self.at("extends")
        if derived:
            self.advance()
            self.parse_call_member(self.parse_primary())  # a LeftHandSideExpression
        self.expect("{")
        while not self.at("}"):
            if self.at(";"):
                self.advance()
                continue
            self.parse_class_member(derived)
        self.advance()
        return name_tok

    def parse_class_member(self, derived):
        """One method of a class; ``derived``: the class has ``extends``."""
        start_tok = self.peek()
        nxt = self.peek(1)
        static = self.at("static") and not (nxt is not None and nxt.kind == PUNCT and nxt.text == "(")
        if static:
            self.advance()  # a modifier; `static(` names a method
            if self.at("{"):
                self.unsupported("class static blocks are not supported")
        role = self.accessor_role() or "method"
        self.method_prefix()
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
        constructor = (
            derived
            and not static
            and role == "method"
            and (self.literal_value(name_tok) if name_tok.kind == STRING else name_tok.text)
            == "constructor"
        )
        self.parse_method(start_tok.start, role, constructor)

    def method_prefix(self):
        """Raise at the `*` of a generator method or the `async` of an async
        one."""
        t, nxt = self.peek(), self.peek(1)
        if t is not None and t.text == "*":
            self.unsupported("generator methods are not supported")
        if t is not None and t.text == "async" and nxt is not None and not nxt.nl and (
            nxt.kind in _PROPERTY_NAME_KINDS or nxt.text in ("[", "*")
        ):
            self.unsupported("async methods are not supported")

    def parse_method(self, start, role, derived_constructor=False):
        """Params and body of a class or object-literal method starting at
        ``start``; ``role`` is "method", "get" or "set". A getter takes no
        parameter and a setter exactly one, which is not a rest parameter.
        Only the constructor of a class with ``extends``
        (``derived_constructor``) may call ``super(...)``."""
        self.summary.branch_points += 1
        self.enter_scope(FUNCTION, start)
        outer = self.super_member, self.super_call
        self.super_member, self.super_call = True, derived_constructor
        lparen = self.peek()
        kinds = self.parse_params(unique=True)
        if role == "get" and kinds:
            raise ParseError("a getter takes no parameters", self.file_id, lparen.start)
        if role == "set" and (len(kinds) != 1 or kinds[0] == "rest"):
            raise ParseError(
                "a setter takes exactly one parameter, not a rest one", self.file_id, lparen.start
            )
        self.leave_scope(self.parse_block(BODY if "default" in kinds else None))
        self.super_member, self.super_call = outer

    def parse_if(self):
        self.expect("if")
        self.summary.branch_points += 1
        self.paren_head()
        end = self.parse_statement()
        if self.at("else"):
            self.advance()
            end = self.parse_statement()
        return end

    def parse_for(self):
        kw = self.expect("for")
        if self.at("await"):
            self.unsupported("for await is not supported")
        self.summary.branch_points += 1
        self.expect("(")
        scoped = False
        target = None  # the kind of a head's expression
        t = self.peek()
        if self.at(";"):
            pass
        elif t is not None and t.kind == KEYWORD and t.text in ("var", "let", "const"):
            if t.text != "var":
                scoped = True
                self.enter_scope(BLOCK, kw.start)
            self.parse_var_decl(no_in=True)
        else:
            target = self.parse_expression(no_in=True)
        t = self.peek()
        if t is not None and (t.text == "in" or t.text == "of"):
            # an array or object literal is a destructuring target
            if target is not None and target != _LITERAL and not _assignable(target, "="):
                self.error(f"invalid left-hand side in for-{t.text} loop")
            self.advance()
            if t.text == "of":
                self.parse_assign()
            else:
                self.parse_expression()
            self.expect(")")
        else:
            self.expect(";")
            if not self.at(";"):
                self.parse_expression()
            self.expect(";")
            if not self.at(")"):
                self.parse_expression()
            self.expect(")")
        end = self.parse_statement()
        if scoped:
            self.leave_scope(end)
        return end

    def parse_while(self):
        self.expect("while")
        self.summary.branch_points += 1
        self.paren_head()
        return self.parse_statement()

    def parse_do_while(self):
        self.expect("do")
        self.summary.branch_points += 1
        self.parse_statement()
        self.expect("while")
        self.paren_head()
        if self.at(";"):
            self.advance()
        return self.last_end()

    def parse_switch(self):
        """The case block is a scope if some clause directly holds a
        lexical declaration, as a statement block is."""
        self.expect("switch")
        self.paren_head()
        lbrace = self.expect("{")
        lexical = False
        self.enter_scope(BLOCK, lbrace.start)
        while not self.at("}"):
            if not (self.at("case") or self.at("default")):
                self.error("expected 'case' or 'default'")
            if self.advance().text == "case":
                self.parse_expression()
                self.summary.branch_points += 1
            self.expect(":")
            while not (self.at("case") or self.at("default") or self.at("}")):
                t = self.peek()
                if t is None:
                    self.error("unterminated switch body")
                if t.kind == KEYWORD and t.text in _LEXICAL_STATEMENTS:
                    lexical = True
                self.parse_statement()
        end = self.advance().end
        self.leave_scope(end, keep=lexical)
        return end

    def parse_try(self):
        self.expect("try")
        end = self.parse_block(BLOCK)
        handled = False
        if self.at("catch"):
            ck = self.advance()
            self.summary.branch_points += 1
            self.enter_scope(BLOCK, ck.start)
            if self.at("("):
                self.advance()
                t = self.binding_name("expected catch parameter name", "catch parameters")
                self.expect(")")
                self.scopes.declare(t, CATCH)
            end = self.parse_block()
            self.leave_scope(end)
            handled = True
        if self.at("finally"):
            self.advance()
            end = self.parse_block(BLOCK)
            handled = True
        if not handled:
            self.error("try requires catch or finally")
        return end

    def parse_return_like(self, kind, require_arg=False):
        self.advance()
        t = self.peek()
        has_arg = not (
            t is None
            or (t.kind == PUNCT and t.text in (";", "}"))
            or t.nl
        )
        if require_arg and not has_arg:
            self.error(f"{kind} requires an argument")
        if has_arg:
            self.parse_expression()
        end = self.last_end()
        self.consume_semicolon()
        return end

    def parse_with(self):
        self.expect("with")
        self.scopes.mark_dynamic()
        self.paren_head()
        return self.parse_statement()

    # ---- modules ----

    def parse_import(self):
        self.expect("import")
        t = self.peek()
        if t is None or t.kind != STRING:
            if not (self.at("*") or self.at("{")):
                t = self.binding_name("expected import binding")
                self.scopes.declare(t, IMPORT)
                if self.at(","):
                    self.advance()
            if self.at("*"):
                self.advance()
                self.expect("as")
                self.scopes.declare(self.binding_name("expected namespace alias"), IMPORT)
            elif self.at("{"):
                self.delimited("{", "}", self.parse_import_specifier)
            self.expect("from")
        source = self.module_path()
        self.consume_semicolon()
        self.summary.imports.append(source)

    def parse_import_specifier(self):
        """``name`` or ``name as local``; declares the local. A string name
        must still be a valid literal."""
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
        if ext.kind == STRING:
            self.literal_value(ext)
        self.scopes.declare(local_tok, IMPORT)

    def parse_export(self):
        self.expect("export")
        t = self.peek()
        if t is None:
            self.error("unterminated export")
        if t.text == "default" and t.kind == KEYWORD:
            self.advance()
            if self.at("function") or self.at("class"):
                # a declaration, so no call or member suffix; an anonymous one binds no name
                nxt = self.peek(1)
                if nxt is not None and nxt.kind == IDENT:
                    self.parse_statement()
                else:
                    self.parse_primary()
            else:
                self.parse_expression()
                self.consume_semicolon()
            return
        if t.kind == KEYWORD and t.text in ("var", "let", "const", "function", "class", "async"):
            if t.text == "function":
                names = [self.parse_function(decl=True).text]
            elif t.text == "class":
                names = [self.parse_class(decl=True).text]
            elif t.text == "async":
                self.unsupported("'async' is not supported")
            else:
                names = self.parse_var_decl()
                self.consume_semicolon()
            self.summary.export_locals += names
            return
        if t.text == "{":
            specifiers = self.delimited("{", "}", self.parse_export_specifier)[0]
            if self.at("from"):
                self.advance()
                self.summary.imports.append(self.module_path())
                self.consume_semicolon()
                return
            self.consume_semicolon()
            for lt in specifiers:
                # bare `export {a, b}`: the locals are references to module
                # bindings, which no reserved word can name
                if lt.kind == KEYWORD:
                    raise ParseError(f"cannot export reserved word {lt.text!r}", self.file_id, lt.start)
                self.summary.export_locals.append(lt.text)
                self.scopes.reference(lt)
            return
        self.error("unsupported export form")

    def parse_export_specifier(self):
        """``name`` or ``name as exported``; returns the local token. A
        string alias must still be a valid literal."""
        lt = self.peek()
        if lt is None or lt.kind not in (IDENT, KEYWORD):
            self.error("expected export specifier")
        self.advance()
        if self.at("as"):
            self.advance()
            et = self.peek()
            if et is None or et.kind not in (IDENT, KEYWORD, STRING):
                self.error("expected export alias")
            self.advance()
            if et.kind == STRING:
                self.literal_value(et)
        return lt

    # ---- expressions: each returns its kind tag ----

    def parse_expression(self, no_in=False):
        tag = self.parse_assign(no_in=no_in)
        if not self.at(","):
            return tag
        while self.at(","):
            self.advance()
            self.parse_assign(no_in=no_in)
        return _OTHER

    def parse_assign(self, no_in=False):
        tag = self.parse_conditional(no_in=no_in)
        t = self.toks[self.i]
        if t is not None and t.kind == PUNCT and t.text in _ASSIGN_OPS:
            if not _assignable(tag, t.text):
                if tag == _LITERAL and t.text == "=":
                    self.unsupported("destructuring assignment is not supported")
                self.error("invalid assignment target")
            self.advance()
            self.parse_assign(no_in=no_in)
            return _OTHER
        return tag

    def parse_conditional(self, no_in=False):
        tag = self.parse_binary(1, no_in=no_in)
        if self.at("?"):
            self.advance()
            self.summary.branch_points += 1
            self.parse_assign()
            self.expect(":")
            self.parse_assign(no_in=no_in)
            return _OTHER
        return tag

    def parse_binary(self, min_prec, no_in=False):
        tag = self.parse_unary()
        while True:
            t = self.toks[self.i]
            if t is None:
                return tag
            op = t.text
            if op == "in" and no_in:
                return tag
            if t.kind == PUNCT or (t.kind == KEYWORD and op in ("in", "instanceof")):
                prec = _BINARY_PREC.get(op)
                if prec is None or prec < min_prec:
                    return tag
                self.advance()
                if op == "**":
                    self.parse_binary(prec, no_in=no_in)  # right-assoc
                else:
                    self.parse_binary(prec + 1, no_in=no_in)
                if op == "&&" or op == "||":
                    self.summary.branch_points += 1
                tag = _OTHER
                continue
            return tag

    def parse_unary(self):
        t = self.toks[self.i]
        if t is not None and (
            (t.kind == PUNCT and t.text in ("!", "~", "+", "-"))
            or (t.kind == KEYWORD and t.text in ("typeof", "void", "delete"))
        ):
            self.advance()
            tag = self.parse_unary()
            if t.text == "delete" and (tag == _MEMBER or tag == _PAREN_MEMBER):
                # deleting obj[v] would delete the wrong name
                self.accesses.truncate(len(self.accesses) - 1)
            return _OTHER
        if t is not None and t.kind == PUNCT and t.text in ("++", "--"):
            self.advance()
            if not _assignable(self.parse_unary(), t.text):
                raise ParseError(f"invalid operand of prefix {t.text!r}", self.file_id, t.start)
            return _OTHER
        return self.parse_postfix()

    def parse_postfix(self):
        tag = self.parse_call_member(self.parse_primary())
        t = self.toks[self.i]
        if t is not None and t.kind == PUNCT and t.text in ("++", "--") and not t.nl:
            if not _assignable(tag, t.text):
                self.error(f"invalid operand of postfix {t.text!r}")
            self.advance()
            return _OTHER
        return tag

    def parse_call_member(self, tag, allow_call=True):
        """The member, call and tagged-template suffixes of the expression
        with kind ``tag``."""
        while True:
            t = self.toks[self.i]
            if t is None:
                return tag
            if t.kind == PUNCT and t.text == "?.":
                self.unsupported("optional chaining is not supported")
            if t.kind == PUNCT and t.text == ".":
                dot = self.advance()
                prop = self.toks[self.i]
                if prop is None or prop.kind not in (IDENT, KEYWORD):
                    self.error("expected property name")
                self.advance()
                if tag == _SUPER:
                    tag = _TARGET
                else:
                    self.accesses.append(dot.start, prop.end, prop.text)
                    tag = _MEMBER
                continue
            if t.kind == PUNCT and t.text == "[":
                self.advance()
                self.parse_expression()
                self.expect("]")
                tag = _TARGET
                continue
            if allow_call and t.kind == PUNCT and t.text == "(":
                if tag == _CALLEE:
                    self.scopes.mark_dynamic()
                self.parse_arguments()
                tag = _CALL
                continue
            if t.kind == TEMPLATE and t.text.startswith("`"):
                self.parse_template()
                tag = _OTHER
                continue
            return tag

    def parse_arguments(self):
        """The arguments of a call or ``new``."""
        self.delimited("(", ")", self.parse_element)

    def parse_element(self):
        """An argument or array element: an expression or a ``...`` spread."""
        if self.at("..."):
            self.advance()
        self.parse_assign()

    def parse_primary(self):
        t = self.toks[self.i]
        if t is None:
            self.error("unexpected end of input")
        if t.kind == IDENT:
            nxt = self.toks[self.i + 1]
            if nxt is not None and nxt.kind == PUNCT and nxt.text == "=>" and not nxt.nl:
                self.enter_scope(FUNCTION, t.start)
                self.scopes.declare(self.advance(), PARAM)
                return self.parse_arrow_body()
            self.advance()
            self.scopes.reference(t)
            return _CALLEE if t.text == "eval" or t.text == "Function" else _REF
        if t.kind == NUMBER or t.kind == REGEX:
            self.advance()
            return _OTHER
        if t.kind == STRING:
            self.advance()
            self.strings.append(t.start, t.end)
            return _STRING
        if t.kind == TEMPLATE:
            self.parse_template()
            return _OTHER
        if t.kind == KEYWORD:
            if t.text in ("true", "false", "null", "this"):
                self.advance()
                return _OTHER
            if t.text == "super":
                self.advance()
                nxt = self.toks[self.i]
                if nxt is not None and nxt.kind == PUNCT and (
                    self.super_call if nxt.text == "(" else self.super_member and nxt.text in (".", "[")
                ):
                    return _SUPER
                raise ParseError("'super' keyword unexpected here", self.file_id, t.start)
            if t.text == "function":
                self.parse_function(decl=False)
                return _OTHER
            if t.text == "class":
                self.parse_class(decl=False)
                return _OTHER
            if t.text == "new":
                return self.parse_new()
            if t.text == "import":
                nxt = self.peek(1)
                if nxt is not None and nxt.text == ".":
                    self.unsupported("import.meta is not supported")
                self.unsupported("dynamic import() is not supported")
            raise self.name_error(t, f"unexpected keyword {t.text!r}")
        if t.kind == PUNCT:
            if t.text == "(":
                return self.parse_parenthesized()
            if t.text == "[":
                self.delimited("[", "]", self.parse_array_element)
                return _LITERAL
            if t.text == "{":
                self.delimited("{", "}", self.parse_property)
                return _LITERAL
        self.error(f"unexpected token {t.text!r}")

    def parse_parenthesized(self):
        """``( … )``, read once as ECMA-262's
        CoverParenthesizedExpressionAndArrowParameterList: each item as an
        assignment expression, after `...` as a spread. A `=>` after the `)`
        makes it an arrow head: its first item that is no parameter raises
        ``param_error`` there, and its names become the parameters of a scope
        that takes over what the head recorded. Otherwise returns the tag of the
        parenthesized expression."""
        lparen = self.peek()
        mark = self.scopes.mark()
        candidates = len(self.strings), len(self.accesses)
        params = []  # per item, the index of its name's occurrence
        fault = spread = None  # the first non-parameter's ``param_fault``; the first `...`
        trailing = defaults = False  # a comma after the last item; a parameter's default

        def item():
            nonlocal fault, spread, trailing, defaults
            rest = self.at("...") and self.advance()
            spread = spread or rest
            if fault is None:
                fault = self.param_fault(rest)
                params.append(len(self.scopes.occurrences))
                defaults = defaults or fault is None and self.peek(1).text == "="
            tag = self.parse_assign()
            trailing = self.at(",")
            return tag

        tags, rparen = self.delimited("(", ")", item)
        t = self.peek()
        if t is not None and t.kind == PUNCT and t.text == "=>" and not t.nl:
            if fault is not None:
                raise self.param_error(*fault)
            names, starts = self.scopes.names, self.scopes.occurrences.starts
            self.unique_params((names[index], starts[index]) for index in params)
            self.scopes.enter_arrow(lparen.start, mark, params)
            self.marks.append(candidates)
            return self.parse_arrow_body(defaults)
        self.scopes.unmark(mark)
        if spread or trailing or not tags:
            t = spread or rparen
            raise ParseError(f"unexpected token {t.text!r}", self.file_id, t.start)
        tag = tags[0] if len(tags) == 1 else _OTHER
        if tag == _MEMBER or tag == _PAREN_MEMBER:
            return _PAREN_MEMBER
        if tag == _CALLEE:
            return _CALLEE  # (eval)(s) is a direct eval too
        if tag == _CALL:
            return _CALL
        return _TARGET if _REF <= tag <= _TARGET else _OTHER

    def parse_arrow_body(self, defaults=False):
        """``=> body``, read in the arrow's scope with its parameters
        declared (``defaults``: one has a default); leaves the scope."""
        self.summary.branch_points += 1
        self.advance()
        if self.at("{"):
            self.parse_block(BODY if defaults else None)
        else:
            self.parse_assign()
        self.leave_scope(self.last_end())
        return _OTHER

    def parse_new(self):
        self.expect("new")
        if self.at("."):
            self.unsupported("new.target is not supported")
        if self.at("super") and self.peek(1) is not None and self.peek(1).text == "(":
            self.error("'super' keyword unexpected here")  # no `new super()`
        if self.parse_call_member(self.parse_primary(), allow_call=False) == _CALLEE:
            self.scopes.mark_dynamic()
        if self.at("("):
            self.parse_arguments()
        return self.parse_call_member(_OTHER)

    def parse_template(self):
        first = self.advance()
        if first.text.endswith("`") and len(first.text) >= 2:
            return
        # chunk ends with "${": expressions follow until a chunk closes with `
        while True:
            self.parse_expression()
            t = self.peek()
            if t is None or t.kind != TEMPLATE:
                self.error("unterminated template literal")
            self.advance()
            if t.text.endswith("`"):
                return

    def parse_array_element(self):
        if not self.at(","):  # else a hole
            self.parse_element()

    def parse_property(self):
        t = self.peek()
        if t is None:
            self.error("unterminated object literal")
        if t.kind == PUNCT and t.text == "...":
            self.advance()
            self.parse_assign()
            return
        role = self.accessor_role()
        if role is not None:
            t = self.peek()
        self.method_prefix()
        if t.kind == PUNCT and t.text == "[":
            self.advance()
            self.parse_assign()
            self.expect("]")
            if role is not None or self.at("("):
                self.parse_method(t.start, role or "method")
            else:
                self.expect(":")
                self.parse_assign()
            return
        if t.kind not in _PROPERTY_NAME_KINDS:
            self.error("expected property key")
        self.advance()  # a key, never a string candidate
        if role is not None or self.at("("):
            self.parse_method(t.start, role or "method")
        elif self.at(":"):
            self.advance()
            self.parse_assign()
        else:
            # shorthand { name }; { name = value } only as a pattern
            if t.kind != IDENT:
                raise self.name_error(t, "expected ':' after property key")
            self.scopes.reference(t, SHORTHAND)
            if self.at("="):
                self.unsupported("destructuring patterns are not supported")


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


def string_value(raw):
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
