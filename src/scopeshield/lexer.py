"""One-pass tokenizer of the supported JavaScript subset; it also finds
what minifying would change.

``lex`` is the lexer: a generator that yields the significant tokens, as
the tuples ``tokens`` lays out, a batch at a time, so a parser can read
them while the file is still being lexed and no file's token list need
exist in full. Each token notes whether a line break precedes it; every run
of whitespace and comments between two tokens is consumed as one gap and
never becomes a token. Every span indexes the file as written. Minifying is
no second text: the lexer fills the gap table its caller passes in, an
``Edits`` table that replaces each gap with the one separator it needs,
which ``patches.emit`` applies together with the transforms' edits.

Template literals with interpolation are emitted as several
``template-literal`` chunks with the interpolated expressions lexed
normally in between. One regular expression matches every token class,
the most frequent first: words, then the brackets, then the other
punctuators, then numbers. Each branch of the loop tests only what its
class needs.
"""

import re

from .errors import InvalidCharacter, UnsupportedSyntax, UnterminatedString, UnterminatedTemplate
from .tokens import IDENT, KEYWORD, KEYWORDS, LINE_TERMINATORS, NUMBER, PUNCT, REGEX, STRING, TEMPLATE

_PUNCT_4 = frozenset({">>>="})
_PUNCT_3 = frozenset({"===", "!==", "**=", "<<=", ">>=", ">>>", "...", "&&=", "||=", "??="})
_PUNCT_2 = frozenset(
    {
        "==", "!=", "<=", ">=", "&&", "||", "??", "?.", "=>", "**", "++", "--",
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    }
)
_PUNCT_1 = frozenset("{}()[];,<>+-*/%&|^!~?:=.")

# a template chunk's text after its opening ` or `}`, up to its closing `
# or the `${` of an interpolation
_TEMPLATE_BODY = r"(?:[^`\\$]|\\[\s\S]|\$(?!\{))*(?:`|\$\{)"
# every punctuator but `/` and `/=` and the brackets `(){}`, longest first;
# `.` and `?.` before a digit are no punctuator but a number's start or `?`
# and a number (`a?.5:b`)
_OTHER_PUNCT = "|".join(
    [
        re.escape(p) + ("(?![0-9])" if p == "?." else "")
        for p in sorted(_PUNCT_4 | _PUNCT_3 | _PUNCT_2 - {"/="}, key=lambda p: (-len(p), p))
    ]
    + ["[%s]" % re.escape("".join(sorted(_PUNCT_1 - set("/.(){}")))), r"\.(?![0-9])"]
)
# One alternative per token class, the most frequent first; ``lex``
# dispatches on the group number. Every character starts a match, so the
# matches are contiguous.
_TOKEN_RE = re.compile(
    "|".join(
        [
            r"([A-Za-z_$][A-Za-z0-9_$]*)",  # 1: an identifier or keyword
            r"([(){}])",  # 2: a bracket, which heads and templates track
            "(%s)" % _OTHER_PUNCT,  # 3
            # 4: a number; a `_` may stand between two digits
            r"(0[xX]{0}n?|0[bB]{1}n?|0[oO]{2}n?|(?:{3}\.?(?:{3})?|\.{3})(?:[eE][+-]?{3})?n?)".format(
                *(f"[{d}]+(?:_[{d}]+)*" for d in ("0-9a-fA-F", "01", "0-7", "0-9"))
            ),
            # 5: a gap of whitespace and comments
            r"((?:[ \t\v\f\xa0\ufeff{0}]+|//[^{0}]*|/\*[\s\S]*?\*/)+)".format(LINE_TERMINATORS),
            r"(/\*)",  # 6: a block comment that never closes
            # 7: a string; U+2028 and U+2029 may stand in one unescaped
            r"""("(?:[^"\\\n\r]|\\[\s\S])*"|'(?:[^'\\\n\r]|\\[\s\S])*')""",
            r"(/=?)",  # 8: a regular expression when an operator precedes it
            "(`%s)" % _TEMPLATE_BODY,  # 9: a template chunk
            r"([\s\S])",  # 10: any other character, an error
        ]
    )
)
_REGEX_RE = re.compile(
    r"/(?:[^/\\\[{0}]|\\[^{0}]|\[(?:[^\]\\{0}]|\\[^{0}])*\])+/[A-Za-z]*".format(LINE_TERMINATORS)
)
_IDENT_START_RE = re.compile(r"[A-Za-z_$]")
# a hashbang line, at offset 0 only
_HASHBANG_RE = re.compile("#![^%s]*" % LINE_TERMINATORS)
_LINE_TERMINATOR_RE = re.compile("[%s]" % LINE_TERMINATORS)
# the template chunk that resumes at the `}` closing an interpolation
_TEMPLATE_RESUME = re.compile(r"\}" + _TEMPLATE_BODY)

# Keywords after which a `/` starts a regular expression rather than division.
_REGEX_AFTER_KEYWORD = frozenset(
    """
    return typeof instanceof in of new delete void throw case do else yield
    await
    """.split()
)
# `)` `]` end value expressions, except the `)` that closes the head of an
# `if`, `while`, `for` or `with`: a statement starts behind it. `}` is
# treated as ending one too, which is right for object literals but wrong
# after a block: `if (s) {}` and then `/a,b/.test(s)` on the next line is
# refused (ROADMAP item 4).
_NO_REGEX_AFTER_PUNCT = frozenset({")", "]", "}", "++", "--"})
_HEAD_KEYWORDS = frozenset({"if", "while", "for", "with"})

_WORDLIKE = frozenset({IDENT, KEYWORD, NUMBER})

# the last token before the first: a `/` after it starts a regular
# expression, and a `(` after it heads no statement
_START = (PUNCT, ";", 0, 0, False)


# Tokens the lexer yields at once. A consumer that drops what it has read
# holds about one batch: some 130 KB of tokens, against some 30 MB for the
# whole of a 1 MB minified file. A batch this size makes the cost of resuming
# the generator negligible next to lexing its tokens.
BATCH_TOKENS = 1000


def lex(source, gaps, file_id="<input>"):
    """Yield the significant tokens of ``source`` (``tokens`` gives their
    layout) in lists of ``BATCH_TOKENS`` (the last may be shorter), and fill
    the ``Edits`` table ``gaps`` with the gap edits. Each distinct
    identifier is one str object however often it occurs.

    The gap edits minify: applied to ``source``, they drop the comments and
    make each gap between two tokens ``"\\n"`` if it held a line break (so
    automatic semicolon insertion and restricted productions behave as in
    the input), else ``" "`` where ``_needs_space`` asks for one, else
    nothing; the leading and trailing gaps go. ``gaps`` gets a row only for
    a gap that differs from its separator, and none for a gap after a `.`,
    which a property access's edit may span (``a. b`` becomes ``a[v]``);
    the trailing gap's row comes once the last batch is out. The text they
    make re-tokenizes to the same tokens and line breaks. A hashbang line
    at offset 0 is no token and stays as written, and a line break still
    parts it from the first token.

    Raises UnterminatedString / UnterminatedTemplate / InvalidCharacter, or
    UnsupportedSyntax for a private name or a non-ASCII identifier once the
    tokens before it are yielded, with the file id and the offset of the
    problem in ``source``.
    """
    batch = []
    append = batch.append
    keywords = KEYWORDS
    words = {}  # each distinct identifier's one str
    room = BATCH_TOKENS  # tokens the batch has room for
    # Each entry: [`{` nesting depth inside one interpolation, template start]
    template_stack = []
    # one flag per open `(`: whether it opens a statement head
    paren_heads = []
    head_closed = False  # whether the last `)` closed a statement head
    prev = _START  # the last token
    gap = None  # the whitespace and comments before the next token, if any
    # a hashbang line is no token and stays as written
    hashbang = _HASHBANG_RE.match(source)
    # where the next token starts: the matches are contiguous, so this is the
    # end of the last match, and a token's start shares that int object
    pos = hashbang.end() if hashbang else 0
    restart = True
    while restart:
        restart = False
        # a regular expression or a resumed template chunk ends this scan,
        # and the next one starts behind it
        for m in _TOKEN_RE.finditer(source, pos):
            group = m.lastindex
            text = m[0]
            end = m.end()
            if group == 1:
                if text in keywords and prev[1] != ".":  # after a `.`, a property name
                    kind = KEYWORD
                else:
                    kind = IDENT
                    text = words.setdefault(text, text)
            elif group == 3:
                kind = PUNCT
            elif group == 2:
                kind = PUNCT
                if text == "(":
                    paren_heads.append(prev[0] == KEYWORD and prev[1] in _HEAD_KEYWORDS)
                elif text == ")":
                    head_closed = paren_heads.pop() if paren_heads else False
                elif template_stack:
                    top = template_stack[-1]
                    if text == "{":
                        top[0] += 1
                    elif top[0]:
                        top[0] -= 1
                    else:
                        template_stack.pop()
                        m = _TEMPLATE_RESUME.match(source, pos)
                        if m is None:
                            raise UnterminatedTemplate("unterminated template literal", file_id, pos)
                        kind = TEMPLATE
                        text = m[0]
                        end = m.end()
                        if text[-1] == "{":
                            template_stack.append([0, pos])
                        restart = True
            elif group == 4:
                kind = NUMBER
            elif group == 5:
                gap = text
                pos = end
                continue
            elif group == 7:
                kind = STRING
            elif group == 8:
                kind = PUNCT
                if prev[0] == KEYWORD and prev[1] in _REGEX_AFTER_KEYWORD or prev[0] == PUNCT and (
                    prev[1] not in _NO_REGEX_AFTER_PUNCT or head_closed and prev[1] == ")"
                ):
                    m = _REGEX_RE.match(source, pos)
                    if m is not None:
                        kind = REGEX
                        text = m[0]
                        end = m.end()
                        restart = True
            elif group == 9:
                kind = TEMPLATE
                if text[-1] == "{":
                    template_stack.append([0, pos])
            elif group == 6:
                raise InvalidCharacter("unterminated block comment", file_id, pos)
            elif text == '"' or text == "'":
                raise UnterminatedString("unterminated string literal", file_id, pos)
            elif text == "`":
                raise UnterminatedTemplate("unterminated template literal", file_id, pos)
            elif text == "#" and _IDENT_START_RE.match(source, end) or ("_" + text).isidentifier():
                # a private name, or a non-ASCII identifier (the ASCII ones
                # matched group 1); the tokens before it go out first, since a
                # syntax error among them outranks it
                if batch:
                    yield batch
                what = "private names" if text == "#" else "non-ASCII identifiers"
                raise UnsupportedSyntax(f"{what} are not supported", file_id, pos)
            else:
                raise InvalidCharacter(f"unexpected character {text!r}", file_id, pos)
            if gap is None:
                prev = (kind, text, pos, end, False)
            elif gap == " " and prev[0] in _WORDLIKE and (kind in _WORDLIKE or kind == STRING):
                # the most frequent gap: the one space two words keep
                gap = None
                prev = (kind, text, pos, end, False)
            else:
                nl = _LINE_TERMINATOR_RE.search(gap) is not None
                if prev is _START and hashbang is None:
                    sep = ""
                elif nl:
                    sep = "\n"
                elif _needs_space(prev, kind, text):
                    sep = " "
                else:
                    sep = ""
                if gap != sep and prev[1] != ".":
                    gaps.append(pos - len(gap), pos, sep)
                gap = None
                prev = (kind, text, pos, end, nl)
            append(prev)
            pos = end
            room -= 1
            if not room:
                yield batch
                batch = []
                append = batch.append
                room = BATCH_TOKENS
            if restart:
                break

    if template_stack:
        raise UnterminatedTemplate(
            "unterminated template literal", file_id, template_stack[-1][1]
        )
    if batch:
        yield batch
    if gap is not None:
        gaps.append(len(source) - len(gap), len(source), "")


def _needs_space(prev, kind, text):
    """True when dropping all whitespace between the token ``prev`` and the
    next token (``kind``, ``text``) would merge or re-shape tokens on a
    later re-tokenization, or would write `<!--`, a comment in a script. A
    word keeps its space before a string literal too, so that a decoder call
    that replaces the literal needs no other space (``return "x"``)."""
    prev_kind, a = prev[0], prev[1]
    if prev_kind in _WORDLIKE or prev_kind == REGEX:
        if kind in _WORDLIKE or kind == STRING:
            return True
    if prev_kind == NUMBER and text.startswith("."):
        return True
    if a.endswith(".") and (kind == NUMBER or text.startswith(".")):
        return True
    if a.endswith("/") and (text.startswith("/") or text.startswith("*")):
        return True
    if prev_kind == PUNCT and kind in (PUNCT, REGEX):
        if a == "<" and text == "!":
            return True
        joined = a + text
        for size, table in ((4, _PUNCT_4), (3, _PUNCT_3), (2, _PUNCT_2)):
            if len(a) < size <= len(joined) and joined[:size] in table:
                return True
    return False
