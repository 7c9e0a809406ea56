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

The parser lexes the file as it reads it, through a two-token cursor on
the stream of ``lexer.lex``: ``tok``, the token at the cursor, ``nxt``, the
one after it, and ``prev``, the last one consumed. It keeps no token list,
so a file's tokens never exist all at once. Tokens are the tuples
``tokens`` lays out; the stream ends in an end-of-input token, repeated,
whose start is the offset of an error at the end and whose line-break flag
ends a statement there, so no read checks for a missing token. A
punctuator or a word is asked for by its text alone: no literal's text is
one. The lexer's gap table is full once the stream ends.

A `(` in an expression is read once, as expressions, and only a `=>` after
its `)` makes it an arrow head (``parse_parenthesized``).

Unary expressions joined by binary operators are read as one flat chain
(``parse_binary``), not a tree by precedence. No fact depends on the
grouping: a reference, a candidate or a branch point is recorded the same
under any grouping, and the chain's kind tag is no assignment target
either way. Two early errors do depend on it, and each is one test over
the chain's operators: a unary expression as the left operand of `**`
(`-a ** b`) and `??` in a chain with `||` or `&&` (`a ?? b || c`).

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
                         ("lexical"); each name before its initializer; a
                         lexical redeclaration is a ParseError, as in node
  class declaration      name declared in the current scope ("lexical");
                         a class expression's name binds nothing
  block                  a block scope only if it directly holds a let,
                         const, class or function declaration; function
                         and catch bodies are their own scope's statements;
                         a function declaration as an `if` or `else` body
                         binds in the scope around, but is lexical in none
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

from itertools import chain, repeat

from .errors import ParseError, UnsupportedSyntax
from .facts import Candidates, FileSummary, Spans
from .lexer import lex
from .patches import Edits
from .scopes import (
    BLOCK, BODY, CATCH, FUNCTION, FUNCTION_DECL, FUNCTION_EXPR, IMPORT, LEXICAL, PARAM, SHORTHAND,
    ScopeBuilder,
)
from .tokens import EOF, IDENT, KEYWORD, LINE_TERMINATORS, NUMBER, PUNCT, REGEX, STRING, TEMPLATE

# the binary operators, read alike in one flat chain (``parse_binary``)
_BINARY_OPS = frozenset(
    """
    ?? || && | ^ & == != === !== < > <= >= in instanceof << >> >>> + - * / % **
    """.split()
)
_UNARY_OPS = frozenset({"!", "~", "+", "-", "typeof", "void", "delete"})
# the tokens after a name or number that make it more than a lone operand
_SUFFIXES = frozenset({".", "?.", "[", "(", "++", "--", "=>"})
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
_UNARY = 10  # a unary operator's expression, which `**` may not follow
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
    unsupported = parser.lex_unsupported[0] if parser.lex_unsupported else None
    if failure is not None:
        # outside the handler and with the parser dropped: nothing the failed
        # parse built is alive while the lexer drains
        stream, parser = parser.stream, None
        for _batch in stream:
            pass
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


def _until_unsupported(stream, unsupported):
    """The batches of the lexer's ``stream``; an UnsupportedSyntax ends
    them and goes to the list ``unsupported``, so the tokens before it read
    as a file that ends there."""
    try:
        yield from stream
    except UnsupportedSyntax as exc:
        unsupported.append(exc.with_traceback(None))


class _Parser:
    def __init__(self, source, file_id):
        self.file_id = file_id
        self.gaps = Edits()  # the lexer's gap table, full once the stream ends
        self.lex_unsupported = []  # the UnsupportedSyntax that ended the stream
        self.stream = _until_unsupported(lex(source, self.gaps, file_id), self.lex_unsupported)
        end = len(source)
        # the cursor: the token before it, at it and after it; past the last
        # token the stream repeats the end-of-input token
        self.next_token = chain(chain.from_iterable(self.stream), repeat((EOF, "", end, end, True))).__next__
        self.prev = None
        self.tok = self.next_token()
        self.nxt = self.next_token()
        self.scopes = ScopeBuilder(file_id)
        self.summary = FileSummary("esm" if file_id.endswith(".mjs") else "script")
        self.strings = Spans()
        self.accesses = Edits()  # text: the property name
        # the candidate counts when each open scope was entered
        self.marks = []
        # whether super.x and super(...) may be read here: in a method, or
        # in an arrow within one; super(...) only in a derived constructor
        self.super_member = self.super_call = False

    # ---- token helpers ----

    def advance(self):
        t = self.prev = self.tok
        self.tok = self.nxt
        self.nxt = self.next_token()
        return t

    def expect(self, text):
        t = self.tok
        if t[1] != text:
            self.error(f"expected {text!r}")
        self.prev = t
        self.tok = self.nxt
        self.nxt = self.next_token()
        return t

    def error(self, message, exc=ParseError):
        raise exc(message, self.file_id, self.tok[2])

    def literal_value(self, t):
        """Value of the string token ``t``; a malformed escape in it is a
        ParseError."""
        try:
            return string_value(t[1])
        except ValueError as exc:
            raise ParseError(f"bad string literal: {exc}", self.file_id, t[2]) from None

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
        t = self.tok
        if t[0] == IDENT:
            self.advance()
            return t
        raise self.name_error(t, message, pattern)

    def name_error(self, t, message, pattern=None):
        """The error for ``t`` where a name must stand: UnsupportedSyntax for
        a contextual word, and for `{` or `[` where JS allows a destructuring
        pattern (``pattern`` names the site); else ParseError(``message``)."""
        kind, text, start = t[0], t[1], t[2]
        if kind == PUNCT and pattern is not None and text in ("{", "["):
            return UnsupportedSyntax(f"destructuring {pattern} are not supported", self.file_id, start)
        if kind == KEYWORD and text in _CONTEXTUAL_WORDS:
            return UnsupportedSyntax(f"'{text}' is not supported", self.file_id, start)
        return ParseError(message, self.file_id, start)

    def optional_name(self, decl, message):
        """The name token of a function or class: required for a declaration
        (``decl``), optional for an expression (None when absent)."""
        if decl or self.tok[0] == IDENT:
            return self.binding_name(message)
        return None

    def delimited(self, open_, close, item):
        """Read ``open_ item, item, ... close`` with one comma between two
        items and at most one after the last; returns (the items, the
        ``close`` token)."""
        self.expect(open_)
        items = []
        while self.tok[1] != close:
            items.append(item())
            if self.tok[1] == ",":
                self.advance()
            elif self.tok[1] != close:
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
        text = self.tok[1]
        if text in ("get", "set"):
            nxt = self.nxt
            if nxt[0] in _PROPERTY_NAME_KINDS or nxt[1] == "[":
                self.advance()
                return text
        return None

    def module_path(self):
        """Read a module path string; returns its value."""
        if self.tok[0] != STRING:
            self.error("expected module path string")
        return self.literal_value(self.advance())

    def consume_semicolon(self):
        """A `;`, or else a line break before the next token, a `}` or the
        end of input."""
        t = self.tok
        if t[1] == ";":
            self.advance()
        elif not t[4] and t[1] != "}":
            self.error("expected ';'")

    # ---- program / statements ----

    def parse_program(self):
        """Read every statement; returns the preamble offset: the start of
        the first statement that is not a directive, else the end of the
        last directive, else 0."""
        offset = 0
        prologue = True
        while self.tok[0] != EOF:
            t = self.tok
            if t[1] == "export":
                self.parse_export()
                self.summary.kind = "esm"
            elif t[1] == "import" and not self.is_import_expression():
                self.parse_import()
                self.summary.kind = "esm"
            else:
                end = self.parse_statement()
                if prologue and t[0] == STRING and end == t[3]:
                    offset = end
                    continue
            if prologue:
                offset = t[2]
                prologue = False
        return offset

    def is_import_expression(self):
        # at `import`: dynamic import() and import.meta are expressions
        return self.nxt[1] in ("(", ".")

    def parse_statement(self):
        """Read one statement; returns its end, which excludes a `;` it
        consumed."""
        t = self.tok
        statement = _STATEMENTS.get(t[1])
        if statement is not None:
            return statement(self)
        if t[0] == IDENT and self.nxt[1] == ":":
            self.unsupported("labeled statements are not supported")
        if self.parse_expression() == _STRING:
            # directive prologue candidates ("use strict") must stay verbatim
            self.strings.truncate(len(self.strings) - 1)
        end = self.prev[3]
        self.consume_semicolon()
        return end

    def parse_block(self, kind=BLOCK):
        """Read ``{ statements }``; returns the end of the `}`. A statement
        block (``kind`` BLOCK) is a scope if it directly holds a lexical
        declaration, the body of a function with a parameter default (BODY)
        always; any other function or catch body (None) is its scope's
        statements."""
        lbrace = self.expect("{")
        lexical = False
        if kind is not None:
            self.enter_scope(kind, lbrace[2])
        while self.tok[1] != "}":
            if self.tok[1] in _LEXICAL_STATEMENTS:
                lexical = True
            self.parse_statement()
        end = self.advance()[3]
        if kind is not None:
            self.leave_scope(end, keep=lexical or kind == BODY)
        return end

    def parse_var_statement(self):
        if self.tok[1] == "let" and not self.let_declares():
            self.unsupported("'let' is not supported")
        self.parse_var_decl()
        end = self.prev[3]
        self.consume_semicolon()
        return end

    def let_declares(self):
        """Whether the `let` at the cursor starts a declaration: ECMA-262
        reads it so only before a name, `[` or `{`."""
        nxt = self.nxt
        return nxt[0] == IDENT or nxt[0] == KEYWORD or nxt[1] in ("[", "{")

    def parse_var_decl(self, no_in=False):
        """Returns the declared names."""
        kw = self.advance()
        scopes = self.scopes
        names = []
        while True:
            name_tok = self.binding_name("expected identifier in declaration", "declarations")
            if kw[1] == "var":
                scopes.declare_var(name_tok)
            else:
                scopes.declare(name_tok, LEXICAL)
            names.append(name_tok[1])
            if self.tok[1] == "=":
                self.advance()
                self.parse_assign(no_in)
            if self.tok[1] != ",":
                return names
            self.advance()

    def parse_function(self, decl):
        """A function declaration (``decl``; its name is required) or
        expression (name optional); returns its end."""
        kw = self.expect("function")
        if self.tok[1] == "*":
            self.unsupported("generator functions are not supported")
        name_tok = self.optional_name(decl, "expected function name")
        if decl:
            self.scopes.declare(name_tok, FUNCTION_DECL)
        self.summary.branch_points += 1
        self.enter_scope(FUNCTION, kw[2])
        if name_tok is not None and not decl:
            self.scopes.declare(name_tok, FUNCTION_EXPR)
        outer = self.super_member, self.super_call
        self.super_member = self.super_call = False
        kinds = self.parse_params()
        end = self.parse_block(BODY if "default" in kinds else None)
        self.leave_scope(end)
        self.super_member, self.super_call = outer
        return end

    def parse_params(self, unique=False):
        """Read a parameter list into the current scope; returns the kinds of
        the parameters. As in ECMA-262, two may share a name only in a plain
        list of names, and not in a ``unique`` one (a method's)."""
        params = self.delimited("(", ")", self.parse_param)[0]
        kinds = [kind for _t, kind in params]
        if unique or any(kind != "name" for kind in kinds):
            self.unique_params((t[1], t[2]) for t, _kind in params)
        return kinds

    def parse_param(self):
        """One parameter: ``name``, ``name = default`` or ``...name``;
        returns its name token and its kind: "name", "default" or "rest"."""
        rest = self.tok[1] == "..." and self.advance()
        fault = self.param_fault(rest)
        if fault is not None:
            raise self.param_error(*fault)
        t = self.advance()
        self.scopes.declare(t, PARAM)
        if rest or self.tok[1] != "=":
            return t, "rest" if rest else "name"
        self.advance()
        self.parse_assign()
        return t, "default"

    def param_fault(self, rest):
        """None at a name a parameter may end with (followed by `,`, `)` or
        `=`; after `...`, by `)`), else what ``param_error`` builds the
        error from: this token, the next and ``rest``. It reads two tokens."""
        t, nxt = self.tok, self.nxt
        if t[0] == IDENT and (nxt[1] == ")" or not rest and nxt[1] in (",", "=")):
            return None
        return t, nxt, rest

    def param_error(self, t, nxt, rest):
        """The error a parameter list raises at ``t``, followed by ``nxt``
        and after `...` if ``rest``, where ``param_fault`` found none."""
        if t[0] != IDENT:
            return self.name_error(t, "expected parameter name", "parameters")
        return ParseError(_REST_LAST if rest else "expected ',' or ')'", self.file_id, nxt[2])

    def unique_params(self, names):
        """Raise at the second of two parameters of one name; ``names``
        yields each parameter's (name, start)."""
        seen = set()
        for name, start in names:
            if name in seen:
                raise ParseError(f"duplicate parameter name {name!r}", self.file_id, start)
            seen.add(name)

    def parse_class(self, decl):
        """Returns its end."""
        self.expect("class")
        name_tok = self.optional_name(decl, "expected class name")
        if decl:
            self.scopes.declare(name_tok, LEXICAL)
        derived = self.tok[1] == "extends"
        if derived:
            self.advance()
            self.parse_call_member(self.parse_primary())  # a LeftHandSideExpression
        self.expect("{")
        while self.tok[1] != "}":
            if self.tok[1] == ";":
                self.advance()
                continue
            self.parse_class_member(derived)
        return self.advance()[3]

    def parse_class_member(self, derived):
        """One method of a class; ``derived``: the class has ``extends``."""
        start_tok = self.tok
        static = start_tok[1] == "static" and self.nxt[1] != "("
        if static:
            self.advance()  # a modifier; `static(` names a method
            if self.tok[1] == "{":
                self.unsupported("class static blocks are not supported")
        role = self.accessor_role() or "method"
        self.method_prefix()
        name_tok = self.tok
        if name_tok[0] == EOF:
            self.error("unterminated class body")
        if name_tok[1] == "[":
            self.unsupported("computed method names are not supported")
        if name_tok[0] not in _PROPERTY_NAME_KINDS:
            self.error("expected method name")
        self.advance()
        if self.tok[1] != "(":
            self.unsupported("class fields are not supported")
        constructor = (
            derived
            and not static
            and role == "method"
            and (self.literal_value(name_tok) if name_tok[0] == STRING else name_tok[1]) == "constructor"
        )
        self.parse_method(start_tok[2], role, constructor)

    def method_prefix(self):
        """Raise at the `*` of a generator method or the `async` of an async
        one."""
        text, nxt = self.tok[1], self.nxt
        if text == "*":
            self.unsupported("generator methods are not supported")
        if text == "async" and not nxt[4] and (nxt[0] in _PROPERTY_NAME_KINDS or nxt[1] in ("[", "*")):
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
        lparen = self.tok[2]
        kinds = self.parse_params(unique=True)
        if role == "get" and kinds:
            raise ParseError("a getter takes no parameters", self.file_id, lparen)
        if role == "set" and (len(kinds) != 1 or kinds[0] == "rest"):
            raise ParseError("a setter takes exactly one parameter, not a rest one", self.file_id, lparen)
        self.leave_scope(self.parse_block(BODY if "default" in kinds else None))
        self.super_member, self.super_call = outer

    def parse_if(self):
        self.advance()
        self.summary.branch_points += 1
        self.paren_head()
        end = self.parse_clause()
        if self.tok[1] == "else":
            self.advance()
            end = self.parse_clause()
        return end

    def parse_clause(self):
        """An `if` or `else` body. A function declaration there is in a block
        of its own (Annex B.3.4), elided: it binds around, lexical in none."""
        if self.tok[1] != "function":
            return self.parse_statement()
        self.enter_scope(BLOCK, self.tok[2])
        end = self.parse_statement()
        self.leave_scope(end, keep=False)
        return end

    def parse_for(self):
        kw = self.advance()
        if self.tok[1] == "await":
            self.unsupported("for await is not supported")
        self.summary.branch_points += 1
        self.expect("(")
        scoped = False
        target = None  # the kind of a head's expression
        text = self.tok[1]
        if text == ";":
            pass
        elif text in ("var", "let", "const"):
            if text != "var":
                scoped = True
                self.enter_scope(BLOCK, kw[2])
            self.parse_var_decl(no_in=True)
        else:
            target = self.parse_expression(no_in=True)
        t = self.tok
        if t[1] == "in" or t[1] == "of":
            # an array or object literal is a destructuring target
            if target is not None and target != _LITERAL and not _assignable(target, "="):
                self.error(f"invalid left-hand side in for-{t[1]} loop")
            self.advance()
            if t[1] == "of":
                self.parse_assign()
            else:
                self.parse_expression()
            self.expect(")")
        else:
            self.expect(";")
            if self.tok[1] != ";":
                self.parse_expression()
            self.expect(";")
            if self.tok[1] != ")":
                self.parse_expression()
            self.expect(")")
        end = self.parse_statement()
        if scoped:
            self.leave_scope(end)
        return end

    def parse_while(self):
        self.advance()
        self.summary.branch_points += 1
        self.paren_head()
        return self.parse_statement()

    def parse_do_while(self):
        self.advance()
        self.summary.branch_points += 1
        self.parse_statement()
        self.expect("while")
        self.paren_head()
        if self.tok[1] == ";":
            self.advance()
        return self.prev[3]

    def parse_switch(self):
        """The case block is a scope if some clause directly holds a
        lexical declaration, as a statement block is."""
        self.advance()
        self.paren_head()
        lbrace = self.expect("{")
        lexical = False
        self.enter_scope(BLOCK, lbrace[2])
        while self.tok[1] != "}":
            if self.tok[1] not in ("case", "default"):
                self.error("expected 'case' or 'default'")
            if self.advance()[1] == "case":
                self.parse_expression()
                self.summary.branch_points += 1
            self.expect(":")
            while self.tok[1] not in ("case", "default", "}"):
                if self.tok[1] in _LEXICAL_STATEMENTS:
                    lexical = True
                self.parse_statement()
        end = self.advance()[3]
        self.leave_scope(end, keep=lexical)
        return end

    def parse_try(self):
        self.advance()
        end = self.parse_block()
        handled = False
        if self.tok[1] == "catch":
            ck = self.advance()
            self.summary.branch_points += 1
            self.enter_scope(BLOCK, ck[2])
            if self.tok[1] == "(":
                self.advance()
                t = self.binding_name("expected catch parameter name", "catch parameters")
                self.expect(")")
                self.scopes.declare(t, CATCH)
            end = self.parse_block(None)
            self.leave_scope(end)
            handled = True
        if self.tok[1] == "finally":
            self.advance()
            end = self.parse_block()
            handled = True
        if not handled:
            self.error("try requires catch or finally")
        return end

    def parse_return(self):
        """`return`, or `throw`, which requires an argument."""
        kw = self.advance()[1]
        t = self.tok
        has_arg = not (t[4] or t[1] == ";" or t[1] == "}")
        if kw == "throw" and not has_arg:
            self.error("throw requires an argument")
        if has_arg:
            self.parse_expression()
        end = self.prev[3]
        self.consume_semicolon()
        return end

    def parse_jump(self):
        """`break`, `continue` or `debugger`."""
        tok = self.advance()
        nxt = self.tok
        if tok[1] != "debugger" and nxt[0] == IDENT and not nxt[4]:
            self.unsupported("labeled break/continue is not supported")
        self.consume_semicolon()
        return tok[3]

    def parse_with(self):
        self.advance()
        self.scopes.mark_dynamic()
        self.paren_head()
        return self.parse_statement()

    def parse_module_item(self):
        """A statement that starts with `export` or `import`: a declaration
        only at a module's top level (``parse_program``), and `import(` and
        `import.meta` are not supported."""
        text = self.tok[1]
        if text == "export" or not self.is_import_expression():
            self.error(f"'{text}' is only allowed at the top level of a module")
        self.parse_primary()  # raises: import() and import.meta are not supported

    # ---- modules ----

    def parse_import(self):
        self.advance()
        if self.tok[0] != STRING:
            if self.tok[1] not in ("*", "{"):
                t = self.binding_name("expected import binding")
                self.scopes.declare(t, IMPORT)
                if self.tok[1] == ",":
                    self.advance()
            if self.tok[1] == "*":
                self.advance()
                self.expect("as")
                self.scopes.declare(self.binding_name("expected namespace alias"), IMPORT)
            elif self.tok[1] == "{":
                self.delimited("{", "}", self.parse_import_specifier)
            self.expect("from")
        source = self.module_path()
        self.consume_semicolon()
        self.summary.imports.append(source)

    def parse_import_specifier(self):
        """``name`` or ``name as local``; declares the local. A string name
        must still be a valid literal."""
        ext = self.tok
        if ext[0] not in (IDENT, KEYWORD, STRING):
            self.error("expected import specifier")
        if self.nxt[1] == "as":
            self.advance()
            self.advance()
            local_tok = self.binding_name("expected local alias")
        else:
            # the imported name is the local binding too
            local_tok = self.binding_name("expected 'as' after import specifier")
        if ext[0] == STRING:
            self.literal_value(ext)
        self.scopes.declare(local_tok, IMPORT)

    def parse_export(self):
        self.advance()
        t = self.tok
        text = t[1]
        if t[0] == EOF:
            self.error("unterminated export")
        if text == "default":
            self.advance()
            if self.tok[1] in ("function", "class"):
                # a declaration, so no call or member suffix; an anonymous one binds no name
                if self.nxt[0] == IDENT:
                    self.parse_statement()
                else:
                    self.parse_primary()
            else:
                self.parse_expression()
                self.consume_semicolon()
            return
        if text in ("var", "let", "const", "function", "class", "async"):
            names = [self.nxt[1]]  # a declaration's name, once it parses
            if text == "function":
                self.parse_function(decl=True)
            elif text == "class":
                self.parse_class(decl=True)
            elif text == "async":
                self.unsupported("'async' is not supported")
            else:
                names = self.parse_var_decl()
                self.consume_semicolon()
            self.summary.export_locals += names
            return
        if text == "{":
            specifiers = self.delimited("{", "}", self.parse_export_specifier)[0]
            if self.tok[1] == "from":
                self.advance()
                self.summary.imports.append(self.module_path())
                self.consume_semicolon()
                return
            self.consume_semicolon()
            for lt in specifiers:
                # bare `export {a, b}`: the locals are references to module
                # bindings, which no reserved word can name
                if lt[0] == KEYWORD:
                    raise ParseError(f"cannot export reserved word {lt[1]!r}", self.file_id, lt[2])
                self.summary.export_locals.append(lt[1])
                self.scopes.reference(lt)
            return
        self.error("unsupported export form")

    def parse_export_specifier(self):
        """``name`` or ``name as exported``; returns the local token. A
        string alias must still be a valid literal."""
        if self.tok[0] not in (IDENT, KEYWORD):
            self.error("expected export specifier")
        lt = self.advance()
        if self.tok[1] == "as":
            self.advance()
            if self.tok[0] not in (IDENT, KEYWORD, STRING):
                self.error("expected export alias")
            et = self.advance()
            if et[0] == STRING:
                self.literal_value(et)
        return lt

    # ---- expressions: each returns its kind tag ----

    def parse_expression(self, no_in=False):
        tag = self.parse_assign(no_in)
        if self.tok[1] != ",":
            return tag
        while self.tok[1] == ",":
            self.advance()
            self.parse_assign(no_in)
        return _OTHER

    def parse_assign(self, no_in=False):
        """An assignment or conditional expression, or a ``parse_binary``
        chain."""
        tag = self.parse_unary()
        op = self.tok[1]
        if op in _BINARY_OPS and not (op == "in" and no_in):
            tag = self.parse_binary(tag, op, no_in)
            op = self.tok[1]
        if op == "?":
            self.advance()
            self.summary.branch_points += 1
            self.parse_assign()
            self.expect(":")
            self.parse_assign(no_in)
            return _OTHER
        if op in _ASSIGN_OPS:
            if not _assignable(tag, op):
                if tag == _LITERAL and op == "=":
                    self.unsupported("destructuring assignment is not supported")
                self.error("invalid assignment target")
            self.advance()
            self.parse_assign(no_in)
            return _OTHER
        return tag

    def parse_binary(self, tag, op, no_in):
        """The flat chain of unary expressions and binary operators that
        goes on at ``op`` after one of kind ``tag``, and its early errors."""
        logical = coalesce = False  # a `||` or `&&` in the chain; a `??`
        while True:
            if op == "&&" or op == "||":
                self.summary.branch_points += 1
                logical = True
            elif op == "??":
                coalesce = True
            elif op == "**" and tag == _UNARY:
                self.error("a unary operator before '**' needs parentheses")
            if logical and coalesce:
                self.error("'??' beside '||' or '&&' needs parentheses")
            self.prev = self.tok
            self.tok = self.nxt
            self.nxt = self.next_token()
            tag = self.parse_unary()
            op = self.tok[1]
            if op not in _BINARY_OPS or op == "in" and no_in:
                return _OTHER

    def parse_unary(self):
        """A unary, update or lone operand expression with its suffixes."""
        t = self.tok
        kind, text = t[0], t[1]
        if kind == IDENT or kind == NUMBER:
            nxt = self.nxt
            if nxt[1] not in _SUFFIXES and nxt[0] != TEMPLATE:
                # a lone name or number
                self.prev = t
                self.tok = nxt
                self.nxt = self.next_token()
                if kind == NUMBER:
                    return _OTHER
                self.scopes.reference(t)
                return _CALLEE if text == "eval" or text == "Function" else _REF
        elif text in _UNARY_OPS:
            self.advance()
            tag = self.parse_unary()
            if text == "delete" and (tag == _MEMBER or tag == _PAREN_MEMBER):
                # deleting obj[v] would delete the wrong name
                self.accesses.truncate(len(self.accesses) - 1)
            return _UNARY
        elif text == "++" or text == "--":
            self.advance()
            if not _assignable(self.parse_unary(), text):
                raise ParseError(f"invalid operand of prefix {text!r}", self.file_id, t[2])
            return _OTHER
        tag = self.parse_call_member(self.parse_primary())
        t = self.tok
        if (t[1] == "++" or t[1] == "--") and not t[4]:
            if not _assignable(tag, t[1]):
                self.error(f"invalid operand of postfix {t[1]!r}")
            self.advance()
            return _OTHER
        return tag

    def parse_call_member(self, tag, allow_call=True):
        """The member, call and tagged-template suffixes of the expression
        with kind ``tag``."""
        while True:
            t = self.tok
            text = t[1]
            if text == ".":
                prop = self.nxt
                if prop[0] != IDENT and prop[0] != KEYWORD:
                    self.advance()
                    self.error("expected property name")
                self.prev = prop
                self.tok = self.next_token()
                self.nxt = self.next_token()
                if tag == _SUPER:
                    tag = _TARGET
                else:
                    self.accesses.append(t[2], prop[3], prop[1])
                    tag = _MEMBER
            elif text == "(" and allow_call:
                if tag == _CALLEE:
                    self.scopes.mark_dynamic()
                self.parse_arguments()
                tag = _CALL
            elif text == "[":
                self.advance()
                self.parse_expression()
                self.expect("]")
                tag = _TARGET
            elif t[0] == TEMPLATE and text[0] == "`":
                self.parse_template()
                tag = _OTHER
            elif text == "?.":
                self.unsupported("optional chaining is not supported")
            else:
                return tag

    def parse_arguments(self):
        """The arguments of a call or ``new``."""
        self.delimited("(", ")", self.parse_element)

    def parse_element(self):
        """An argument or array element: an expression or a ``...`` spread."""
        if self.tok[1] == "...":
            self.advance()
        self.parse_assign()

    def parse_primary(self):
        t = self.tok
        kind, text = t[0], t[1]
        if kind == IDENT:
            nxt = self.nxt
            if nxt[1] == "=>" and not nxt[4]:
                self.enter_scope(FUNCTION, t[2])
                self.scopes.declare(self.advance(), PARAM)
                return self.parse_arrow_body()
            self.advance()
            self.scopes.reference(t)
            return _CALLEE if text == "eval" or text == "Function" else _REF
        if kind == NUMBER or kind == REGEX:
            self.advance()
            return _OTHER
        if kind == STRING:
            self.advance()
            self.strings.append(t[2], t[3])
            return _STRING
        if kind == TEMPLATE:
            self.parse_template()
            return _OTHER
        if kind == KEYWORD:
            if text in ("true", "false", "null", "this"):
                self.advance()
                return _OTHER
            if text == "super":
                self.advance()
                after = self.tok[1]
                if self.super_call if after == "(" else self.super_member and after in (".", "["):
                    return _SUPER
                raise ParseError("'super' keyword unexpected here", self.file_id, t[2])
            if text == "function":
                self.parse_function(decl=False)
                return _OTHER
            if text == "class":
                self.parse_class(decl=False)
                return _OTHER
            if text == "new":
                return self.parse_new()
            if text == "import":
                if self.nxt[1] == ".":
                    self.unsupported("import.meta is not supported")
                self.unsupported("dynamic import() is not supported")
            raise self.name_error(t, f"unexpected keyword {text!r}")
        if text == "(":
            return self.parse_parenthesized()
        if text == "[":
            self.delimited("[", "]", self.parse_array_element)
            return _LITERAL
        if text == "{":
            self.delimited("{", "}", self.parse_property)
            return _LITERAL
        if kind == EOF:
            self.error("unexpected end of input")
        self.error(f"unexpected token {text!r}")

    def parse_parenthesized(self):
        """``( … )``, read once as ECMA-262's
        CoverParenthesizedExpressionAndArrowParameterList: each item as an
        assignment expression, after `...` as a spread. A `=>` after the `)`
        makes it an arrow head: its first item that is no parameter raises
        ``param_error`` there, and its names become the parameters of a scope
        that takes over what the head recorded. Otherwise returns the tag of the
        parenthesized expression."""
        lparen = self.tok
        mark = self.scopes.mark()
        candidates = len(self.strings), len(self.accesses)
        params = []  # per item, the index of its name's occurrence
        fault = spread = None  # the first non-parameter's ``param_fault``; the first `...`
        trailing = defaults = False  # a comma after the last item; a parameter's default

        def item():
            nonlocal fault, spread, trailing, defaults
            rest = self.tok[1] == "..." and self.advance()
            spread = spread or rest
            if fault is None:
                fault = self.param_fault(rest)
                params.append(len(self.scopes.occurrences))
                defaults = defaults or fault is None and self.nxt[1] == "="
            tag = self.parse_assign()
            trailing = self.tok[1] == ","
            return tag

        tags, rparen = self.delimited("(", ")", item)
        t = self.tok
        if t[1] == "=>" and not t[4]:
            if fault is not None:
                raise self.param_error(*fault)
            names, starts = self.scopes.names, self.scopes.occurrences.starts
            self.unique_params((names[index], starts[index]) for index in params)
            self.scopes.enter_arrow(lparen[2], mark, params)
            self.marks.append(candidates)
            return self.parse_arrow_body(defaults)
        self.scopes.unmark(mark)
        if spread or trailing or not tags:
            t = spread or rparen
            raise ParseError(f"unexpected token {t[1]!r}", self.file_id, t[2])
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
        if self.tok[1] == "{":
            self.parse_block(BODY if defaults else None)
        else:
            self.parse_assign()
        self.leave_scope(self.prev[3])
        return _OTHER

    def parse_new(self):
        self.advance()
        if self.tok[1] == ".":
            self.unsupported("new.target is not supported")
        if self.tok[1] == "super" and self.nxt[1] == "(":
            self.error("'super' keyword unexpected here")  # no `new super()`
        if self.parse_call_member(self.parse_primary(), allow_call=False) == _CALLEE:
            self.scopes.mark_dynamic()
        if self.tok[1] == "(":
            self.parse_arguments()
        return self.parse_call_member(_OTHER)

    def parse_template(self):
        first = self.advance()[1]
        if first.endswith("`") and len(first) >= 2:
            return
        # chunk ends with "${": expressions follow until a chunk closes with `
        while True:
            self.parse_expression()
            if self.tok[0] != TEMPLATE:
                self.error("unterminated template literal")
            if self.advance()[1].endswith("`"):
                return

    def parse_array_element(self):
        if self.tok[1] != ",":  # else a hole
            self.parse_element()

    def parse_property(self):
        t = self.tok
        if t[0] == EOF:
            self.error("unterminated object literal")
        if t[1] == "...":
            self.advance()
            self.parse_assign()
            return
        role = self.accessor_role()
        if role is not None:
            t = self.tok
        self.method_prefix()
        if t[1] == "[":
            self.advance()
            self.parse_assign()
            self.expect("]")
            if role is not None or self.tok[1] == "(":
                self.parse_method(t[2], role or "method")
            else:
                self.expect(":")
                self.parse_assign()
            return
        if t[0] not in _PROPERTY_NAME_KINDS:
            self.error("expected property key")
        self.advance()  # a key, never a string candidate
        if role is not None or self.tok[1] == "(":
            self.parse_method(t[2], role or "method")
        elif self.tok[1] == ":":
            self.advance()
            self.parse_assign()
        else:
            # shorthand { name }; { name = value } only as a pattern
            if t[0] != IDENT:
                raise self.name_error(t, "expected ':' after property key")
            self.scopes.reference(t, SHORTHAND)
            if self.tok[1] == "=":
                self.unsupported("destructuring patterns are not supported")


# the statements a keyword or punctuator starts, by its text; any other is
# an expression statement
_STATEMENTS = {
    "{": _Parser.parse_block,
    ";": lambda parser: parser.advance()[3],
    "var": _Parser.parse_var_statement,
    "let": _Parser.parse_var_statement,
    "const": _Parser.parse_var_statement,
    "function": lambda parser: parser.parse_function(decl=True),
    "class": lambda parser: parser.parse_class(decl=True),
    "if": _Parser.parse_if,
    "for": _Parser.parse_for,
    "while": _Parser.parse_while,
    "do": _Parser.parse_do_while,
    "switch": _Parser.parse_switch,
    "try": _Parser.parse_try,
    "return": _Parser.parse_return,
    "throw": _Parser.parse_return,
    "break": _Parser.parse_jump,
    "continue": _Parser.parse_jump,
    "debugger": _Parser.parse_jump,
    "with": _Parser.parse_with,
    "export": _Parser.parse_module_item,
    "import": _Parser.parse_module_item,
}


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
