"""Token type and the identifier/keyword tables used across the package."""


class Token:
    """One significant lexical token.

    ``text`` is the exact slice of the file that ``start`` and ``end``, its
    half-open offsets into the file as written, name. ``nl`` is whether a
    line break comes before the token.
    """

    __slots__ = ("kind", "text", "start", "end", "nl")

    def __init__(self, kind, text, start, end, nl):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end
        self.nl = nl

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.start}, {self.end})"


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
