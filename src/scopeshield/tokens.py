"""Token type and the identifier/keyword tables used across the package."""


class Token:
    """One significant lexical token.

    ``text`` is the exact slice of the file text the spans index: half-open
    offsets into it.
    """

    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind, text, start, end):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.start}, {self.end})"


class TokenList(list):
    """A file's significant tokens, or the part of them not yet read.
    ``text`` is the text their spans index, set once the lexer's stream
    ends, and ``nl_before`` the set of stream positions of the tokens a line
    break precedes: a token's position is its index in the list while
    nothing has been deleted from the list's front.

    The flags live here, not in a fifth Token slot, which would move every
    Token from the 64-byte to the 80-byte allocator size class: peak RSS
    on a 1 MB minified file was 2 MiB higher with the slot.
    """

    __slots__ = ("text", "nl_before")


# JavaScript's LineTerminator characters: LF, CR, LINE SEPARATOR (U+2028) and
# PARAGRAPH SEPARATOR (U+2029)
LINE_TERMINATORS = "\n\r\u2028\u2029"

# Token kinds
IDENT = "identifier"
KEYWORD = "keyword"
STRING = "string-literal"
NUMBER = "numeric-literal"
TEMPLATE = "template-literal"
PUNCT = "punctuator"
REGEX = "regex-literal"

KEYWORDS = frozenset(
    """
    break case catch class const continue debugger default delete do else
    enum export extends false finally for function if import in instanceof
    new null return super switch this throw true try typeof var void while
    with yield let static of async await
    """.split()
)

# Words that must never be emitted as fresh identifiers: every keyword above
# plus strict-mode reserved words and contextual keywords that would make the
# output ambiguous to downstream parsers.
RESERVED_WORDS = KEYWORDS | frozenset(
    "implements interface package private protected public get set as from".split()
)
