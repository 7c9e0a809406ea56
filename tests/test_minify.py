import random
import subprocess

import pytest

from hypothesis import example, given, settings, strategies as st

from scopeshield.errors import LexError
from conftest import gap_table, lex_all, minified, run_node
from corpusgen import GENERATORS


def significant(tokens):
    """(kind, text, line break before) per token. A line break before the
    first token separates it from nothing, and minifying drops it."""
    return [(t.kind, t.text, i > 0 and t.nl) for i, t in enumerate(tokens)]


def test_strips_comments_and_indentation():
    src = "function f() {\n    // add\n    return 1 + 2;  /* done */\n}\n"
    out = minified(src)
    assert "//" not in out and "/*" not in out
    assert "    " not in out
    assert significant(lex_all(out)) == significant(lex_all(src))


def test_idempotent():
    src = "var a = 1;\n\n\nvar b = 2;   // x\n"
    once = minified(src)
    assert minified(once) == once


def test_significant_tokens_preserved_across_corpus():
    rng = random.Random(3)
    for gen in GENERATORS:
        for text in gen(rng).values():
            out = minified(text)
            assert significant(lex_all(out)) == significant(lex_all(text))
            assert len(out) <= len(text)


def shifted(tokens, table):
    """(kind, text, start, end) of each token at its offset in the text
    that the gap table ``table`` makes."""
    rows = list(zip(table.starts, table.ends, table.texts))
    delta = index = 0
    spans = []
    for t in tokens:
        while index < len(rows) and rows[index][1] <= t.start:
            start, end, sep = rows[index]
            delta += len(sep) - (end - start)
            index += 1
        spans.append((t.kind, t.text, t.start + delta, t.end + delta))
    return spans


def assert_relexes_alike(text):
    """The minified text lexes to the tokens and line breaks of ``text``,
    each at its offset shifted by the gap edits before it, and minifying it
    again changes nothing."""
    tokens = lex_all(text)
    out = minified(text)
    relexed = lex_all(out)
    assert [(t.kind, t.text, t.start, t.end) for t in relexed] == shifted(tokens, gap_table(text))
    assert significant(relexed) == significant(tokens)
    assert minified(out) == out


def test_minified_text_relexes_to_the_same_tokens():
    rng = random.Random(5)
    for gen in GENERATORS:
        for _ in range(3):
            for text in gen(rng).values():
                assert_relexes_alike(text)
                assert_relexes_alike("#!/usr/bin/env node\n" + text)


# tokens and gaps whose neighbours can merge, re-shape or change the lexical
# context when the whitespace between them goes
FRAGMENTS = [
    "a", "in", "return", "typeof", "1", "1.", ".5", "0x1F", "10n", "'s'", '"d"',
    "/", "/=", "/re/g", "*", "+", "++", "-", "--", "<", "<<", ">", ">>", ">>>", "=",
    "==", "!", "?", "?.", "??", ".", "...", "&", "|", "(", ")", "[", "]", "{", "}",
    ",", ";", ":", "`t`", "`a${", "}b`", " ", "  ", "\n", "\r\n", "\t",
    "/* c */", "/*\n*/", "// c\n",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=12))
@example(["a", "?", " ", ".5", ":", "1"])
@example(["a", ".", " ", "1"])
@example(["a", "?.", " ", "1"])
@example([".", ".", " ", "."])
def test_minify_relexes_alike_on_fragment_soup(fragments):
    text = "".join(fragments)
    try:
        lex_all(text)
    except LexError:
        return
    assert_relexes_alike(text)


def test_newlines_are_kept_for_asi():
    src = "function f() {\n  return\n  1;\n}\nconsole.log(f());\n"
    out = minified(src)
    assert "return\n" in out  # removing this newline would change semantics
    assert run_node(code=src) == run_node(code=out)


def test_keeps_space_between_wordlike_tokens():
    assert minified("var x = typeof   value;") == "var x=typeof value;"


def test_keeps_space_between_hazardous_punctuators():
    src = "a = b + +c - -d;"
    out = minified(src)
    assert "+ +" in out and "- -" in out
    assert significant(lex_all(out)) == significant(lex_all(src))


def test_keeps_space_between_a_word_and_a_string():
    src = 'var s = typeof  "ab", t = typeof"cd"; throw/*c*/"ef";'
    assert minified(src) == 'var s=typeof "ab",t=typeof"cd";throw "ef";'


def test_keeps_space_between_lt_and_bang():
    # `<!--` starts a comment to the end of the line in a script
    src = "function f(a,b){var r = a < ! --b; return [r,b];} console.log(f(1,1));"
    out = minified(src)
    assert "a< !--b" in out
    assert run_node(code=out) == run_node(code=src) == "[ false, 0 ]\n"


def test_number_dot_hazard():
    out = minified("var s = 1 .toString();")
    assert "1 ." in out


def test_template_content_untouched():
    src = "var t = `a  b\n\n c ${ x  +  1 }`;"
    out = minified(src)
    assert "`a  b\n\n c ${" in out


@pytest.mark.parametrize(
    "snippet,expected",
    [
        ("var a = 5 / 1;\nvar b = a / 1;\nconsole.log(a + b);", "10\n"),
        ("var o = {};\nvar n = 3;\nconsole.log(n);", "3\n"),
    ],
)
def test_differential_execution(snippet, expected):
    assert run_node(code=snippet) == expected
    assert run_node(code=minified(snippet)) == expected
