"""The token layout, and the identifier/keyword tables used across the package.

A token is a plain tuple ``(kind, text, start, end, nl)``; the lexer and
the parser read its fields by unpacking or by these literal indices:

  0  kind   one of the kinds below
  1  text   the exact slice of the file that ``start`` and ``end`` name
  2  start  its half-open offsets into the file as written
  3  end
  4  nl     whether a line break comes before the token

A tuple costs a fifth of what an object with slots does to build, and a
file has one token per four or five bytes. The parser's stream ends in
``(EOF, "", n, n, True)`` for a file of ``n`` characters: its start is the
offset of an error at the end of input, and its ``nl`` lets a statement end
there.
"""

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
EOF = "end-of-input"

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
