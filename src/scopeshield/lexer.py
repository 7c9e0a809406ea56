"""One-pass tokenizer and minifier for the supported JavaScript subset.

``lex`` is the lexer: a generator that appends the significant tokens to a
``TokenList`` a batch at a time, so a parser can read them while the file
is still being lexed and no file's token list need exist in full. It notes
which tokens a line break precedes; every run of whitespace and comments
between two tokens is consumed as one gap and never becomes a token. When
the stream ends the list carries the text its spans index. Without
``minify`` that is the input, where each gap lexes to no token. With
``minify`` the same pass writes the minified text: the input runs between
gaps are copied, each gap becomes one separator, and the spans are shifted
to index that text. Template literals with interpolation are emitted as
several ``template-literal`` chunks with the interpolated expressions lexed
normally in between. ``tokenize`` drains the generator into one list.
"""

import re

from .errors import InvalidCharacter, UnterminatedString, UnterminatedTemplate
from .tokens import (
    IDENT,
    KEYWORD,
    KEYWORDS,
    LINE_TERMINATORS,
    NUMBER,
    PUNCT,
    REGEX,
    STRING,
    TEMPLATE,
    Token,
    TokenList,
)

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
# every punctuator but `/` and `/=`, longest first; `?.` before a digit is
# `?` and a number (`a?.5:b`)
_OTHER_PUNCT = "|".join(
    [
        re.escape(p) + ("(?![0-9])" if p == "?." else "")
        for p in sorted(_PUNCT_4 | _PUNCT_3 | _PUNCT_2 - {"/="}, key=lambda p: (-len(p), p))
    ]
    + ["[%s]" % re.escape("".join(sorted(_PUNCT_1 - {"/"})))]
)
# One alternative per token class; ``tokenize`` dispatches on the group
# number. Every character starts a match, so the matches are contiguous.
_TOKEN_RE = re.compile(
    "|".join(
        [
            # 1: a gap of whitespace and comments
            r"((?:[ \t\v\f\xa0\ufeff{0}]+|//[^{0}]*|/\*[\s\S]*?\*/)+)".format(LINE_TERMINATORS),
            r"(/\*)",  # 2: a block comment that never closes
            r"([A-Za-z_$][A-Za-z0-9_$]*)",  # 3: an identifier or keyword
            r"(0[xX][0-9a-fA-F]+n?|0[bB][01]+n?|0[oO][0-7]+n?"  # 4: a number
            r"|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?n?)",
            # 5: a string; U+2028 and U+2029 may stand in one unescaped
            r"""("(?:[^"\\\n\r]|\\[\s\S])*"|'(?:[^'\\\n\r]|\\[\s\S])*')""",
            r"(/=?)",  # 6: a regular expression when an operator precedes it
            "(%s)" % _OTHER_PUNCT,  # 7
            "(`%s)" % _TEMPLATE_BODY,  # 8: a template chunk
            r"([\s\S])",  # 9: any other character, an error
        ]
    )
)
_REGEX_RE = re.compile(
    r"/(?:[^/\\\[{0}]|\\[^{0}]|\[(?:[^\]\\{0}]|\\[^{0}])*\])+/[A-Za-z]*".format(LINE_TERMINATORS)
)
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
# `)` `]` end value expressions; `}` is treated as ending one too, which is
# right for object literals and harmless for blocks in practice.
_NO_REGEX_AFTER_PUNCT = frozenset({")", "]", "}", "++", "--"})

_WORDLIKE = frozenset({IDENT, KEYWORD, NUMBER})


# Tokens the lexer appends between two yields. A consumer that drops what it
# has read holds about one batch: some 130 KB of tokens, against some 30 MB
# for the whole of a 1 MB minified file. A batch this size makes the cost of
# resuming the generator negligible next to lexing its tokens.
BATCH_TOKENS = 1000


def tokenize(source, file_id="<input>", minify=False):
    """The significant tokens of ``source``, as one TokenList: ``lex``
    drained."""
    tokens = TokenList()
    for _ in lex(tokens, source, file_id, minify):
        pass
    return tokens


def lex(tokens, source, file_id="<input>", minify=False):
    """Append the significant tokens of ``source`` to the TokenList
    ``tokens``, yielding after every ``BATCH_TOKENS`` of them; set
    ``tokens.text`` once the stream ends.

    The consumer may delete tokens from the front of the list between
    batches: ``tokens.nl_before`` holds stream positions (how many tokens
    the stream appended before the one a line break precedes), not list
    indexes. Each distinct word is one str object however often it occurs.

    Without ``minify`` the spans index ``source``. With ``minify``, comments
    are dropped and each gap between two tokens becomes ``"\\n"`` if it held
    a line break (so automatic semicolon insertion and restricted
    productions behave as in the input), else ``" "`` where the two tokens
    would merge or re-shape without one, else nothing; the spans index that
    text, which re-tokenizes to the same tokens and line breaks.

    Raises UnterminatedString / UnterminatedTemplate / InvalidCharacter with
    the file id and the offset of the problem in ``source``.
    """
    tokens.nl_before = nl_before = set()
    append = tokens.append
    keywords = KEYWORDS
    words = {}  # each distinct word's one str
    count = 0  # tokens appended
    batch_end = BATCH_TOKENS
    # Each entry: [`{` nesting depth inside one interpolation, template start]
    template_stack = []
    prev = None  # the last token
    gap = None  # the whitespace and comments before the next token, if any
    nl = False  # a line break in that gap
    delta = 0  # offset in the output text minus offset in ``source``
    parts = []  # minify: the output text so far
    copied = 0  # minify: ``source`` is copied up to here
    # where the next token starts: the matches are contiguous, so this is the
    # end of the last match, and a token's start shares that int object
    pos = 0
    restart = True
    while restart:
        restart = False
        # a regular expression or a resumed template chunk ends this scan,
        # and the next one starts behind it
        for m in _TOKEN_RE.finditer(source, pos):
            group = m.lastindex
            if group == 1:
                gap = m.group()
                nl = _LINE_TERMINATOR_RE.search(gap) is not None
                pos = m.end()
                continue
            text = m.group()
            end = m.end()
            # the most frequent classes first: punctuators, then words
            if group == 7:
                kind = PUNCT
                if template_stack:
                    top = template_stack[-1]
                    if text == "{":
                        top[0] += 1
                    elif text == "}":
                        if top[0]:
                            top[0] -= 1
                        else:
                            template_stack.pop()
                            m = _TEMPLATE_RESUME.match(source, pos)
                            if m is None:
                                raise UnterminatedTemplate(
                                    "unterminated template literal", file_id, pos
                                )
                            kind = TEMPLATE
                            text = m.group()
                            end = m.end()
                            if text[-1] == "{":
                                template_stack.append([0, pos])
                            restart = True
            elif group == 3:
                text = words.setdefault(text, text)
                kind = KEYWORD if text in keywords else IDENT
            elif group == 4:
                kind = NUMBER
            elif group == 5:
                kind = STRING
            elif group == 6:
                kind = PUNCT
                if _regex_allowed(prev):
                    m = _REGEX_RE.match(source, pos)
                    if m is not None:
                        kind = REGEX
                        text = m.group()
                        end = m.end()
                        restart = True
            elif group == 8:
                kind = TEMPLATE
                if text[-1] == "{":
                    template_stack.append([0, pos])
            elif group == 2:
                raise InvalidCharacter("unterminated block comment", file_id, pos)
            elif text == '"' or text == "'":
                raise UnterminatedString("unterminated string literal", file_id, pos)
            elif text == "`":
                raise UnterminatedTemplate("unterminated template literal", file_id, pos)
            else:
                raise InvalidCharacter(f"unexpected character {text!r}", file_id, pos)
            if gap is not None:
                if minify:
                    if prev is None:
                        sep = ""
                    elif nl:
                        sep = "\n"
                    elif _needs_space(prev, kind, text):
                        sep = " "
                    else:
                        sep = ""
                    if gap != sep:  # a minified input needs no copy
                        parts.append(source[copied : pos - len(gap)])
                        parts.append(sep)
                        copied = pos
                        delta += len(sep) - len(gap)
                    nl = sep == "\n"
                if nl:
                    nl_before.add(count)
                    nl = False
                gap = None
            if delta:
                prev = Token(kind, text, pos + delta, end + delta)
            else:  # no new int objects
                prev = Token(kind, text, pos, end)
            append(prev)
            pos = end
            count += 1
            if count == batch_end:
                yield
                batch_end += BATCH_TOKENS
            if restart:
                break

    if template_stack:
        raise UnterminatedTemplate(
            "unterminated template literal", file_id, template_stack[-1][1]
        )
    if minify:
        parts.append(source[copied : len(source) - len(gap or "")])
        tokens.text = "".join(parts)
    else:
        tokens.text = source


def _regex_allowed(prev):
    """Whether a `/` after the token ``prev`` starts a regular expression."""
    if prev is None:
        return True
    if prev.kind == PUNCT:
        return prev.text not in _NO_REGEX_AFTER_PUNCT
    if prev.kind == KEYWORD:
        return prev.text in _REGEX_AFTER_KEYWORD
    return False


def _needs_space(prev, kind, text):
    """True when dropping all whitespace between the token ``prev`` and the
    next token (``kind``, ``text``) would merge or re-shape tokens on a
    later re-tokenization."""
    if prev.kind in _WORDLIKE or prev.kind == REGEX:
        if kind in _WORDLIKE:
            return True
    if prev.kind == NUMBER and text.startswith("."):
        return True
    a = prev.text
    if a.endswith(".") and (kind == NUMBER or text.startswith(".")):
        return True
    if a.endswith("/") and (text.startswith("/") or text.startswith("*")):
        return True
    if prev.kind == PUNCT and kind in (PUNCT, REGEX):
        joined = a + text
        for size, table in ((4, _PUNCT_4), (3, _PUNCT_3), (2, _PUNCT_2)):
            if len(a) < size <= len(joined) and joined[:size] in table:
                return True
    return False
