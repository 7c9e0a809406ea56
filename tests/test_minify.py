import random
import subprocess

import pytest

from hypothesis import example, given, settings, strategies as st

from scopeshield.errors import LexError
from scopeshield.lexer import lexed_text

from conftest import lex_all, nl_before, run_node
from corpusgen import GENERATORS


def significant(tokens):
    """(kind, text, line break before) per token. A line break before the
    first token separates it from nothing, and minifying drops it."""
    return [(t.kind, t.text, i > 0 and t.nl) for i, t in enumerate(tokens)]


def test_strips_comments_and_indentation():
    src = "function f() {\n    // add\n    return 1 + 2;  /* done */\n}\n"
    out = lexed_text(src, minify=True)
    assert "//" not in out and "/*" not in out
    assert "    " not in out
    assert significant(lex_all(out)) == significant(lex_all(src))


def test_idempotent():
    src = "var a = 1;\n\n\nvar b = 2;   // x\n"
    once = lexed_text(src, minify=True)
    assert lexed_text(once, minify=True) == once


def test_significant_tokens_preserved_across_corpus():
    rng = random.Random(3)
    for gen in GENERATORS:
        for text in gen(rng).values():
            out = lexed_text(text, minify=True)
            assert significant(lex_all(out)) == significant(lex_all(text))
            assert len(out) <= len(text)


def assert_relexes_alike(text):
    """The minified text lexes to the tokens, spans and line breaks the
    minifying pass gave, and minifying it again changes nothing."""
    minified = lex_all(text, minify=True)
    out = lexed_text(text, minify=True)
    relexed = lex_all(out)
    assert [(t.kind, t.text, t.start, t.end) for t in relexed] == [
        (t.kind, t.text, t.start, t.end) for t in minified
    ]
    assert nl_before(relexed) == nl_before(minified)
    assert lexed_text(out, minify=True) == out
    assert significant(minified) == significant(lex_all(text))


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
    out = lexed_text(src, minify=True)
    assert "return\n" in out  # removing this newline would change semantics
    assert run_node(code=src) == run_node(code=out)


def test_keeps_space_between_wordlike_tokens():
    assert lexed_text("var x = typeof   value;", minify=True) == "var x=typeof value;"


def test_keeps_space_between_hazardous_punctuators():
    src = "a = b + +c - -d;"
    out = lexed_text(src, minify=True)
    assert "+ +" in out and "- -" in out
    assert significant(lex_all(out)) == significant(lex_all(src))


def test_number_dot_hazard():
    out = lexed_text("var s = 1 .toString();", minify=True)
    assert "1 ." in out


def test_template_content_untouched():
    src = "var t = `a  b\n\n c ${ x  +  1 }`;"
    out = lexed_text(src, minify=True)
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
    assert run_node(code=lexed_text(snippet, minify=True)) == expected
