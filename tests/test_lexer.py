import random

import pytest

from scopeshield.errors import (
    InvalidCharacter,
    UnsupportedSyntax,
    UnterminatedString,
    UnterminatedTemplate,
)
from scopeshield.tokens import IDENT, KEYWORD, NUMBER, PUNCT, REGEX, STRING, TEMPLATE

from conftest import gap_table, lex_all, minified, nl_before
from corpusgen import GENERATORS


def kinds(tokens):
    return [t.kind for t in tokens]


def gaps(text, tokens):
    """The text before each token, and after the last one."""
    ends = [0] + [t.end for t in tokens]
    starts = [t.start for t in tokens] + [len(text)]
    return [text[end:start] for end, start in zip(ends, starts)]


def assert_lossless(text, tokens):
    """Every token is the slice of ``text`` its span names, the spans are
    in order, every gap around them lexes to no token, and each row of the
    gap table spans one whole gap; ``nl_before`` names the tokens whose gap
    holds a line break."""
    end = 0
    for tok in tokens:
        assert end <= tok.start < tok.end
        assert text[tok.start : tok.end] == tok.text
        end = tok.end
    between = gaps(text, tokens)
    assert all(lex_all(gap) == [] for gap in between)
    table = gap_table(text)
    assert all(text[start:end] in between for start, end in zip(table.starts, table.ends))
    assert nl_before(tokens) == {
        i for i, gap in enumerate(between[:-1]) if any(c in gap for c in "\n\r\u2028\u2029")
    }


def test_simple_statement_token_kinds():
    tokens = lex_all("var a=1;")
    assert kinds(tokens) == [KEYWORD, IDENT, PUNCT, NUMBER, PUNCT]
    assert [t.text for t in tokens] == ["var", "a", "=", "1", ";"]
    assert [(t.start, t.end) for t in tokens] == [(0, 3), (4, 5), (5, 6), (6, 7), (7, 8)]


def test_empty_input_gives_empty_sequence():
    assert lex_all("") == []
    assert len(gap_table("")) == 0
    assert lex_all("  // only a comment\n") == []
    assert minified("  // only a comment\n") == ""


def test_round_trip_over_generated_corpus():
    rng = random.Random(7)
    for gen in GENERATORS:
        for _ in range(5):
            for text in gen(rng).values():
                assert_lossless(text, lex_all(text))


def test_spans_are_monotonic_and_cover_input():
    src = 'function f(x) { return x + "one" + `t${x}` / 2; } // done'
    tokens = lex_all(src)
    assert_lossless(src, tokens)
    assert set(gaps(src, tokens)) == {"", " ", " // done"}


def test_line_break_flags():
    src = "a\n/* one\n */ b /* two */ c // three\r\n  d\re"
    tokens = lex_all(src)
    assert [t.text for t in tokens] == ["a", "b", "c", "d", "e"]
    assert nl_before(tokens) == {1, 3, 4}
    assert nl_before(lex_all("\n\nx")) == {0}
    assert minified("\n\nx") == "x"


def test_line_and_paragraph_separators_break_lines():
    src = "a\u2028b /* \u2029 */ c // d\u2028e"
    tokens = lex_all(src)
    assert [t.text for t in tokens] == ["a", "b", "c", "e"]
    assert nl_before(tokens) == {1, 2, 3}
    assert_lossless(src, tokens)
    assert minified(src) == "a\nb\nc\ne"
    # a regular expression literal cannot hold one; a string literal can
    assert REGEX not in kinds(lex_all("x = /a\u2028b/"))
    with pytest.raises(InvalidCharacter):
        lex_all("x = /a\\\u2029b/")  # nor after a backslash
    assert REGEX not in kinds(lex_all("x = /[\u2028]/"))
    assert kinds(lex_all('"a\u2028b\u2029c"')) == [STRING]


def test_template_interpolation_is_chunked():
    tokens = lex_all("`a${x}b${y}c`")
    assert kinds(tokens) == [TEMPLATE, IDENT, TEMPLATE, IDENT, TEMPLATE]
    assert tokens[0].text == "`a${"
    assert tokens[2].text == "}b${"
    assert tokens[4].text == "}c`"


def test_template_with_nested_braces():
    src = "`v${ {a: 1}.a }w`"
    tokens = lex_all(src)
    assert tokens[0].kind == TEMPLATE
    assert tokens[-1].kind == TEMPLATE
    assert_lossless(src, tokens)


def test_regex_vs_division():
    assert REGEX not in kinds(lex_all("a = b / c / d;"))
    assert kinds(lex_all("a = /b+/g.test(s);"))[2] == REGEX
    toks = lex_all("return /ab[/]c/;")
    assert kinds(toks)[1] == REGEX and toks[1].text == "/ab[/]c/"
    # a comment between a value and the `/` changes nothing
    assert REGEX not in kinds(lex_all("a /* c */ / b / c"))
    assert kinds(lex_all("x = /* c */ /b/g"))[2] == REGEX


def test_regex_after_a_statement_head():
    # the `)` of an `if`, `while`, `for` or `with` head ends no value
    for src in ("if (s) /a/.test(s);", "while (f(x)) /a/g.exec(s);", "for (;x;) /a/.test(s);",
                "with (o) /a/.test(s);", "if (s) x; else if ((a) / b) /c/.test(s);"):
        assert kinds(lex_all(src)).count(REGEX) == 1, src
    # any other `)` does: a call, a parenthesized value, a method named `if`
    for src in ("f(x) / 2 / g;", "if (s) (a) / b / c;", "if ((a) / b / c) d;",
                "o.if(x) / 2 / g;", "`${(a)}` / b / c;"):
        assert REGEX not in kinds(lex_all(src)), src


def test_comments_and_strings():
    src = "/* block */ 'it\\'s' // tail"
    toks = lex_all(src)
    assert kinds(toks) == [STRING]
    assert (toks[0].text, toks[0].start, nl_before(toks)) == ("'it\\'s'", 12, set())
    assert minified(src) == "'it\\'s'"


def test_unterminated_string_reports_offset():
    with pytest.raises(UnterminatedString) as err:
        lex_all('var a = "oops', file_id="f.js")
    assert err.value.offset == 8
    assert err.value.file_id == "f.js"


def test_unterminated_template_reports_offset():
    with pytest.raises(UnterminatedTemplate) as err:
        lex_all("var t = `broken ${x", file_id="f.js")
    assert err.value.offset == 8  # points at the opening backtick
    with pytest.raises(UnterminatedTemplate):
        lex_all("var t = `no close")


def test_invalid_character():
    with pytest.raises(InvalidCharacter) as err:
        lex_all("var a = 1 # 2", file_id="f.js")
    assert err.value.offset == 10
    # a block comment that never closes is no regular expression either
    for src in ("a /* open", "x = /* open/"):
        with pytest.raises(InvalidCharacter) as err:
            lex_all(src)
        assert err.value.offset == src.index("/*")


def test_non_ascii_identifier_is_unsupported():
    src = "var café = 1; console.log(café);"
    with pytest.raises(UnsupportedSyntax) as err:
        lex_all(src)
    assert err.value.offset == src.index("é")
    with pytest.raises(InvalidCharacter):  # not an identifier character
        lex_all("var a = 1 \u2014 2;")


def test_hashbang_line_is_kept_as_written():
    src = "#!/usr/bin/env node --flag\n\n  // c\nvar a = 1;\n"
    tokens = lex_all(src)
    assert [t.text for t in tokens] == ["var", "a", "=", "1", ";"]
    assert tokens[0].start == src.index("var") and tokens[0].nl
    assert minified(src) == "#!/usr/bin/env node --flag\nvar a=1;"
    assert minified("#!x") == "#!x"
    assert lex_all("#!x\r\n") == [] and minified("#!x\r\n") == "#!x"
    # only at offset 0
    with pytest.raises(InvalidCharacter):
        lex_all(" #!x\n")


def test_numeric_forms():
    src = "1 2.5 .5 1e3 0x1F 0b101 0o17 10n 1.e2"
    toks = [t for t in lex_all(src) if t.kind == NUMBER]
    assert [t.text for t in toks] == ["1", "2.5", ".5", "1e3", "0x1F", "0b101", "0o17", "10n", "1.e2"]


def test_question_dot_before_a_digit_is_a_conditional():
    toks = lex_all("a?.5:b")
    assert [t.text for t in toks] == ["a", "?", ".5", ":", "b"]
    assert [t.text for t in lex_all("a?.b")] == ["a", "?.", "b"]


# ---- every short string over the punctuator characters ----

# the punctuators, written out independently of the lexer's tables
PUNCTUATORS = frozenset(
    """
    { } ( ) [ ] ; , < > + - * / % & | ^ ! ~ ? : = . ... == != === !== <= >=
    && || ?? ?. => ** ++ -- += -= *= /= %= &= |= ^= <<= >>= >>>= **= &&= ||=
    ??= << >> >>>
    """.split()
)
# after these a `/` is division; after any other punctuator, or at the
# start, it starts a regular expression
ENDS_A_VALUE = frozenset({")", "]", "}", "++", "--"})


def reference_tokens(text):
    """The (kind, text, start) tokens of ``text``, a string over the
    punctuator characters, a space, `q` and `7`, by longest match; or the
    (error class, offset) the lexer must raise."""
    tokens = []
    i = 0
    while i < len(text):
        c, rest = text[i], text[i:]
        if c == " ":
            i += 1
            continue
        if rest.startswith("//"):
            break
        if rest.startswith("/*"):
            close = text.find("*/", i + 2)
            if close < 0:
                return InvalidCharacter, i
            i = close + 2
            continue
        if c == "q":
            word = len(rest) - len(rest.lstrip("q7"))
            tokens.append((IDENT, rest[:word], i))
        elif c == "7" or rest[:2] in (".7",):
            digits = len(rest) - len(rest.lstrip("7."))
            number = rest[:digits]
            # one dot at most, and `.` alone is no number
            if number.count(".") > 1:
                number = number[: number.index(".", number.index(".") + 1)]
            tokens.append((NUMBER, number, i))
        elif c == "/" and (not tokens or tokens[-1][0] == PUNCT and tokens[-1][1] not in ENDS_A_VALUE):
            regex = reference_regex(rest)
            if regex:
                tokens.append((REGEX, regex, i))
            else:
                tokens.append((PUNCT, "/=" if rest.startswith("/=") else "/", i))
        else:
            size = max(n for n in range(1, 5) if rest[:n] in PUNCTUATORS)
            if rest[:2] == "?." and rest[2:3] == "7":
                size = 1  # `?` and the number `.7`
            tokens.append((PUNCT, rest[:size], i))
        i += len(tokens[-1][1])
    return tokens


def reference_regex(rest):
    """The regular expression literal ``rest`` starts with, or ''."""
    i, in_class = 1, False
    while i < len(rest):
        c = rest[i]
        if c == "/" and not in_class:
            if i == 1:
                return ""  # an empty body is a comment
            flags = len(rest[i + 1 :]) - len(rest[i + 1 :].lstrip("q"))
            return rest[: i + 1 + flags]
        in_class = (in_class or c == "[") and c != "]"
        i += 1
    return ""


def test_every_short_punctuator_string_lexes_by_longest_match():
    alphabet = "=!<>+-*/%&|^?.:;,[](){}~ q7"
    texts = [""]
    for _length in range(4):
        texts = [text + c for text in texts for c in alphabet]
        for text in texts:
            expected = reference_tokens(text)
            try:
                got = [(t.kind, t.text, t.start) for t in lex_all(text)]
            except InvalidCharacter as exc:
                got = (InvalidCharacter, exc.offset)
            assert got == expected, text
