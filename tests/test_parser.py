import json
import random
import subprocess

import pytest

from scopeshield.errors import InvalidCharacter, ParseError, UnsupportedSyntax
from scopeshield.lexer import BATCH_TOKENS, tokenize
from scopeshield.parser import string_value
from scopeshield.pipeline import FILE_FAILURES, front_end
from scopeshield.scopes import FUNCTION
from scopeshield.tokens import PUNCT

from corpusgen import GENERATORS, build_corpus


def parse_src(src, file_id="t.js"):
    """(ScopeTree, Candidates, FileSummary) of ``src`` as written."""
    return front_end(src, file_id, minify=False)[1:]


def dynamic_scopes(src, file_id="t.js"):
    tree, _candidates, _summary = parse_src(src, file_id)
    return [node for node in tree.nodes if node.is_dynamic]


def function_scope_texts(src):
    tree, _candidates, _summary = parse_src(src)
    return [src[node.start : node.end] for node in tree.nodes if node.kind == FUNCTION]


def test_import_export_summary():
    _tree, _candidates, summary = parse_src('import {x} from "./a.js"; export function f(){}')
    assert summary.imports == [("./a.js", ["x"])]
    assert summary.module_syntax


def test_eval_call_is_a_dynamic_site():
    src = "function g(){ eval(s) }"
    (scope,) = dynamic_scopes(src)
    assert scope.kind == "function"
    assert "eval(s)" in src[scope.start:scope.end]


def test_declared_globals_and_free_names():
    # manual scope walk: q is declared at module scope; console resolves
    # nowhere on the chain, so it is the only free name
    _tree, _candidates, summary = parse_src("var q = 1; console.log(q)")
    assert summary.declared_globals == ["q"]
    assert summary.free_names == ["console"]


def test_with_statement_is_dynamic():
    assert [scope.kind for scope in dynamic_scopes("with (o) { x = 1; }")] == ["module"]


def test_function_constructor_is_dynamic():
    assert [scope.kind for scope in dynamic_scopes('var f = new Function("return 1");')] == [
        "module"
    ]


def test_span_containment_over_corpus():
    # every scope lies in its parent, every occurrence in its scope, and the
    # candidates are in pre-order: by start, the wider access first
    rng = random.Random(11)
    for gen in GENERATORS:
        for text in gen(rng).values():
            tree, candidates, _summary = parse_src(text, "c.js")
            assert tree.nodes[tree.root].start == 0 and tree.nodes[tree.root].end == len(text)
            for node in tree.nodes:
                for child in node.children:
                    child = tree.nodes[child]
                    assert child.parent == node.id
                    assert node.start <= child.start <= child.end <= node.end, (
                        f"{child.kind} escapes {node.kind} in {text[:40]!r}"
                    )
            for occ in tree.occurrences:
                scope = tree.nodes[occ.scope_id]
                assert scope.start <= occ.start < occ.end <= scope.end
                assert text[occ.start : occ.end] == occ.name
            for start, end in candidates.strings:
                assert text[start] == text[end - 1] and text[start] in "'\""
            for start, dot, end, name in candidates.accesses:
                assert start < dot < end and text[dot] == "." and text[dot:end].endswith(name)
            starts = [start for start, _end in candidates.strings]
            assert starts == sorted(starts)
            keys = [(start, -end) for start, _dot, end, _name in candidates.accesses]
            assert keys == sorted(keys)


def test_import_forms():
    src = (
        'import def from "./a.js";\n'
        'import * as ns from "./b.js";\n'
        'import {one, two as alias} from "./c.js";\n'
        'import "./side.js";\n'
    )
    _tree, _candidates, summary = parse_src(src)
    assert summary.imports == [
        ("./a.js", ["default"]),
        ("./b.js", ["*"]),
        ("./c.js", ["one", "two"]),
        ("./side.js", []),
    ]


@pytest.mark.parametrize("src", ['import {default} from "./a.js";', 'import {"a-b"} from "./a.js";'])
def test_import_specifier_without_as_must_be_an_identifier(src):
    # the imported name would be the local binding, and neither is one
    with pytest.raises(ParseError) as err:
        parse_src(src)
    assert type(err.value) is ParseError
    assert err.value.offset == src.index("{") + 1


def test_a_method_may_be_named_static():
    src = "class A { static() { return 1; } static static() { return 2; } }"
    assert function_scope_texts(src) == [
        "static() { return 1; }",
        "static static() { return 2; }",
    ]


def test_export_forms():
    src = (
        "export var a = 1, b = 2;\n"
        "export class K {}\n"
        "var inner = 3;\n"
        "export {inner as out};\n"
        "export default function main() { return a; }\n"
    )
    _tree, _candidates, summary = parse_src(src)
    assert summary.module_syntax and summary.imports == []
    assert summary.export_pairs == [("a", "a"), ("b", "b"), ("K", "K"), ("inner", "out")]
    assert all(local != "main" for local, _ in summary.export_pairs)


# a bare `export {…}` reads module bindings, which no reserved word names;
# one with `from` names the other module's exports, which may be any word
EXPORTED_WORDS = [
    ("export {if};", False),
    ("export {default};", False),
    ('export {default} from "./x.js";', True),
    ('export {if as y} from "./x.js";', True),
    ("var x; export {x as default};", True),
]


@pytest.mark.parametrize("src, ok", EXPORTED_WORDS)
def test_a_bare_export_names_no_reserved_word(src, ok, tmp_path, node):
    path = tmp_path / "m.mjs"
    path.write_text(src, encoding="utf-8")
    checked = subprocess.run([node, "--check", str(path)], capture_output=True, text=True)
    assert (checked.returncode == 0) == ok
    if ok:
        parse_src(src)
    else:
        with pytest.raises(ParseError) as err:
            parse_src(src)
        assert type(err.value) is ParseError and err.value.offset == src.index("{") + 1


def test_reexport_counts_as_import_edge():
    _tree, _candidates, summary = parse_src('export {helper} from "./dep.js";')
    assert summary.imports == [("./dep.js", ["helper"])]
    assert summary.module_syntax and summary.export_pairs == []


def test_parse_error_offset_and_fail_safe_contract():
    with pytest.raises(ParseError) as err:
        parse_src("var = 5;", file_id="bad.js")
    assert err.value.file_id == "bad.js"
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "src",
    [
        "loop: for(;;) break loop;",
        "var [a, b] = pair;",
        "async function f() {}",
        "export async function f() {}",
        "function* gen() {}",
        "const p = import('./x.js');",
        "import('./x.js');",
        "function f() { import('./x.js'); }",
        "import.meta.url;",
        "a?.b;",
        "class C { field = 1; }",
    ],
)
def test_unsupported_constructs_raise(src):
    with pytest.raises(UnsupportedSyntax):
        parse_src(src)


def test_shorthand_property_marked():
    tree, _candidates, _summary = parse_src("var x = 1; var o = {x};")
    shorthand = [occ for occ in tree.occurrences if occ.style == "shorthand"]
    assert [(occ.name, occ.start, occ.binding.name) for occ in shorthand] == [("x", 20, "x")]


def test_member_access_patch_span():
    src = "player.score += 1;"
    _tree, candidates, _summary = parse_src(src)
    ((start, dot, end, name),) = candidates.accesses
    assert (start, name) == (0, "score")
    assert src[dot:end] == ".score"


def test_directive_strings_marked():
    src = '"use strict"; var a = "real";'
    _tree, candidates, _summary = parse_src(src)
    assert [src[start:end] for start, end in candidates.strings] == ['"real"']
    assert candidates.preamble_offset == src.index("var")


def test_object_keys_marked():
    src = 'var o = {"key": "value", 2: "two"};'
    _tree, candidates, _summary = parse_src(src)
    assert [src[start:end] for start, end in candidates.strings] == ['"value"', '"two"']


def test_asi_without_semicolons():
    src = "var a = 1\nvar b = 2\nconsole.log(a + b)"
    _tree, _candidates, summary = parse_src(src)
    assert summary.declared_globals == ["a", "b"]


DYNAMIC_SNIPPETS = [
    "function a(){ eval(code); }",
    "var r = eval('1+1');",
    "function b(){ with (obj) { x = 1; } }",
    "with (scope) { y(); }",
    "var fn = new Function('a', 'return a');",
    "var g = Function('return this')();",
    "function outer(){ function inner(){ return eval(s); } return inner; }",
    "class C { m() { return eval(t); } }",
    "var h = () => eval(u);",
    "function p(){ return (eval)(s); }",
    "function q(){ return ((eval))(s); }",
    "for (var i = 0; i < 2; i++) { eval(body); }",
]


def test_every_dynamic_construct_detected():
    # recall must be 100% on the hand-written snippet corpus
    for snippet in DYNAMIC_SNIPPETS:
        assert dynamic_scopes(snippet), f"missed dynamic site in {snippet!r}"


def test_string_value_decoding():
    assert string_value('"a\\nb"') == "a\nb"
    assert string_value("'it\\'s'") == "it's"
    assert string_value('"\\u0041\\u{1F600}"') == "A\U0001f600"
    assert string_value('"\\x41"') == "A"
    with pytest.raises(ValueError):
        string_value('"\\7"')  # legacy octal stays unsupported


# every place a binding name is read; NAME marks it, and the flag says
# whether JS allows a destructuring pattern there
BINDING_SITES = [
    ("var NAME = 1;", True),
    ("let a = 1, NAME = 2;", True),
    ("for (const NAME of xs) {}", True),
    ("function f(NAME) {}", True),
    ("function f(a, ...NAME) {}", True),
    ("var g = (a, NAME = 1) => a;", True),
    ("var o = {m(NAME) {}};", True),
    ("try {} catch (NAME) {}", True),
    ("function NAME() {}", False),
    ("var f = function NAME() {};", False),
    ("class NAME {}", False),
    ("export function NAME() {}", False),
    ("export class NAME {}", False),
    ("import NAME, * as ns from './a.js';", False),
    ("import * as NAME from './a.js';", False),
    ("import {a as NAME} from './a.js';", False),
]


@pytest.mark.parametrize("site, pattern_allowed", BINDING_SITES)
def test_every_binding_position_reads_one_identifier(site, pattern_allowed):
    parse_src(site.replace("NAME", "x"))
    for pattern in ("{a}", "[a]"):
        expected = UnsupportedSyntax if pattern_allowed else ParseError
        with pytest.raises(ParseError) as err:
            parse_src(site.replace("NAME", pattern))
        assert type(err.value) is expected
    for other in ("5", "if", "'s'"):
        with pytest.raises(ParseError) as err:
            parse_src(site.replace("NAME", other))
        assert type(err.value) is ParseError


@pytest.mark.parametrize(
    "src, name, functions",
    [
        ("export default function() { return 1; }", None, 1),
        ("export default function () {}\n(1);", None, 1),
        ("export default class { m() { return 2; } }", None, 1),
        ("export default class extends Base {}", None, 0),
        ("export default function main() {}", "main", 1),
        ("export default class Main {}", "Main", 0),
    ],
)
def test_export_default_function_or_class_may_be_anonymous(src, name, functions):
    tree, _candidates, summary = parse_src(src)
    assert summary.module_syntax and summary.export_pairs == []
    # an anonymous default binds no name; a named one binds its name
    assert summary.declared_globals == ([name] if name else [])
    assert [node.kind for node in tree.nodes].count(FUNCTION) == functions
    if src.endswith("(1);"):
        # `(1)` is a statement of its own, not a call of the function: in
        # its place `(a) = 2` parses, and a call is no assignment target
        parse_src(src.replace("(1);", "(a) = 2;"))


@pytest.mark.parametrize(
    "src",
    [
        "{ export var x = 1; }",
        "function f() { import a from './a.js'; }",
        "if (a) export default 1;",
        "if (a) import './a.js';",
        "while (a) export {a};",
        "switch (a) { case 1: export function f() {} }",
    ],
)
def test_module_items_only_at_top_level(src):
    with pytest.raises(ParseError) as err:
        parse_src(src)
    assert type(err.value) is ParseError
    assert "only allowed at the top level" in str(err.value)


# one comma-list production: a missing comma is a ParseError at the token
# after the item, and only an array may hold an empty item (a hole)
MISSING_COMMAS = [
    "function f(a b){}",
    "f(1 2)",
    "[1 2]",
    "({a:1 b:2})",
    'import {a b} from "./x.js"',
    "export {a b}",
    "new F(1 2)",
    "var g = (a b) => a;",
    "class A { m(a b) {} }",
]


@pytest.mark.parametrize("src", MISSING_COMMAS)
def test_list_items_need_a_comma_between_them(src):
    with pytest.raises(ParseError) as err:
        parse_src(src)
    assert type(err.value) is ParseError
    assert err.value.offset == src.index(" b" if " b" in src else " 2") + 1
    assert "expected ','" in str(err.value)


@pytest.mark.parametrize("src", ["f(a,,b)", "function f(a,,) {}", "({a:1,,})", "f(,)"])
def test_an_empty_list_item_is_an_error_outside_arrays(src):
    with pytest.raises(ParseError):
        parse_src(src)


@pytest.mark.parametrize(
    "src",
    [
        "function f(...a, b) {}",
        "function f(...a,) {}",
        "var g = (...a, b) => 1;",
        "function f(...a = 1) {}",
    ],
)
def test_a_rest_parameter_comes_last(src):
    with pytest.raises(ParseError, match="rest parameter must be the last"):
        parse_src(src)


def facts(src):
    """The scopes (kind, start, end) and the occurrences (name, start,
    style, declaring scope) of ``src``."""
    tree, _candidates, _summary = parse_src(src)
    scopes = [(node.kind, node.start, node.end) for node in tree.nodes]
    occurrences = [
        (occ.name, occ.start, occ.style, occ.binding.scope_id) for occ in tree.occurrences
    ]
    return scopes, occurrences


@pytest.mark.parametrize(
    "src, expected",
    [
        ("f(a,)", ([("module", 0, 5)], [("f", 0, None, -1), ("a", 2, None, -1)])),
        ("[,1,,]", ([("module", 0, 6)], [])),
        ("[,]", ([("module", 0, 3)], [])),
        ("[...a,]", ([("module", 0, 7)], [("a", 4, None, -1)])),
        ("({a:1,})", ([("module", 0, 8)], [])),
        (
            "(function (a, b = 1,) {})",
            (
                [("module", 0, 25), ("function", 1, 24)],
                [("a", 11, "decl", 1), ("b", 14, "decl", 1)],
            ),
        ),
    ],
)
def test_trailing_commas_and_holes(src, expected):
    assert facts(src) == expected


def test_trailing_commas_in_module_specifier_lists():
    _tree, _candidates, summary = parse_src('import {a, b as c,} from "./x.js";\nvar d;\nexport {d, c as e,};')
    assert summary.imports == [("./x.js", ["a", "b"])]
    assert summary.export_pairs == [("d", "d"), ("c", "e")]


def test_get_and_set_prefix_one_rule_for_objects_and_classes():
    # a method's scope starts at its name, or at the `[` of a computed one;
    # `get: 1` is a property and `get` alone a shorthand reference
    src = "var o = {get [k]() { return 1; }, set [k](v) {}, get x() {}, get: 1, set() {}, get};"
    assert function_scope_texts(src) == [
        "[k]() { return 1; }", "[k](v) {}", "x() {}", "set() {}",
    ]
    _scopes, occurrences = facts(src)
    assert [(name, style) for name, _start, style, _scope in occurrences] == [
        ("o", "decl"), ("k", None), ("k", None), ("v", "decl"), ("get", "shorthand"),
    ]
    # a class member's scope starts at its first token, modifiers included
    src = "class A { get() {} set(v) {} get x() {} static set y(v) {} }"
    assert function_scope_texts(src) == [
        "get() {}", "set(v) {}", "get x() {}", "static set y(v) {}",
    ]
    with pytest.raises(UnsupportedSyntax, match="computed method names"):
        parse_src("class A { get [k]() {} }")
    with pytest.raises(ParseError):
        parse_src("({get [k]: 1})")  # an accessor needs its parameter list


def test_line_continuations_join_the_lines():
    for terminator in ("\n", "\r", "\r\n", "\u2028", "\u2029"):
        assert string_value(f'"ab\\{terminator}cd"') == "abcd"
    # unescaped, U+2028 and U+2029 are part of the string
    assert string_value('"a\u2028b\u2029c"') == "a\u2028b\u2029c"
    src = 'var s = "a\u2028b";'
    _tree, candidates, _summary = parse_src(src)
    assert candidates.strings == [(8, len(src) - 1)]


# compiles each source of the JSON list on stdin as a script; prints whether each compiled
_NODE_COMPILES = (
    'const vm = require("vm");'
    'const sources = JSON.parse(require("fs").readFileSync(0, "utf8"));'
    "process.stdout.write(JSON.stringify(sources.map((s) => {"
    "  try { new vm.Script(s); return true; } catch (e) { return false; } })));"
)


def node_compiles(node, sources):
    proc = subprocess.run(
        [node, "-e", _NODE_COMPILES], input=json.dumps(sources), capture_output=True, text=True
    )
    return json.loads(proc.stdout)


ACCESSORS = [
    "({get a(b) {}})",
    "({set a() {}})",
    "class A { set a(x, y) {} }",
    "({set a(...x) {}})",
    "({get [k](x) {}})",
    "class A { static get a(x) {} }",
    "({set a(x = 1) {}})",
    "({get a() {}, set a(v) {}})",
    "class A { static get a() {} set b(v) {} get(x, y) {} set(...z) {} }",
]


def test_accessor_arity_checked_where_node_checks_it(node):
    node_accepts = node_compiles(node, ACCESSORS)
    assert node_accepts.count(False) == 6
    for src, ok in zip(ACCESSORS, node_accepts):
        if ok:
            front_end(src, "a.js", minify=True)
            continue
        with pytest.raises(ParseError) as err:
            front_end(src, "a.js", minify=True)
        assert type(err.value) is ParseError
        assert "takes" in str(err.value)
        # at the parameter list: the `(` after the accessor's name
        assert src[err.value.offset] == "(" and src[err.value.offset - 1] in "a]"


def test_comma_deletions_rejected_exactly_where_node_rejects_them(tmp_path, node):
    # every script of a small corpus with one `,` token deleted
    build_corpus(tmp_path, count=60)
    mutants = []
    for path in sorted(tmp_path.rglob("*.js")):
        text = path.read_text(encoding="utf-8")
        if front_end(text, "m.js", minify=False)[3].module_syntax:
            continue  # vm.Script compiles scripts only
        for tok in tokenize(text):
            if tok.kind == PUNCT and tok.text == ",":
                mutants.append(text[: tok.start] + text[tok.end :])
    node_accepts = node_compiles(node, mutants)

    def accepts(text):
        try:
            front_end(text, "m.js", minify=True)
        except FILE_FAILURES:
            return False
        return True

    assert len(mutants) > 300 and node_accepts.count(False) > 300
    wrong = [text for text, ok in zip(mutants, node_accepts) if accepts(text) != ok]
    assert wrong == []


PAREN_TARGETS = ["(1) = 2;", "(a + b) = 1;", "(a) = 1;", "((a)) = 1;", "(a.b) = 1;"]


def test_a_parenthesized_expression_is_a_target_only_if_its_inside_is(node):
    node_accepts = node_compiles(node, PAREN_TARGETS)
    assert node_accepts == [False, False, True, True, True]
    for src, ok in zip(PAREN_TARGETS, node_accepts):
        if ok:
            parse_src(src)
            continue
        with pytest.raises(ParseError, match="invalid assignment target"):
            parse_src(src)


SUPER_USES = [
    "var y = super;",
    "function f(){ return super.x; }",
    "class A { m(){ return (super).x; } }",
    "class A { m(){ super(); } }",
    "class A extends B { m(){ function g(){ return super.x; } } }",
    "class A extends B { constructor(){ new super(); } }",
    "class A extends B { static constructor(){ super(); } }",
    "({ constructor(){ super(); } })",
    "class A { m(){ return super`x`; } }",
    "({ m(){ return super.x; } })",
    "class A extends B { m(){ var f = () => super.x; } }",
    "class A extends B { constructor(){ super(); } }",
    "class A extends B { 'constructor'(a = super()){ var f = () => super(); } }",
    "class A extends B { m(a = super[0]){ class C extends super.x {} } }",
    "({ get a(){ return super.x; } })",
]


def test_super_only_where_node_allows_it(node):
    node_accepts = node_compiles(node, SUPER_USES)
    assert node_accepts == [False] * 9 + [True] * 6
    for src, ok in zip(SUPER_USES, node_accepts):
        if ok:
            parse_src(src)
            continue
        with pytest.raises(ParseError) as err:
            parse_src(src)
        assert type(err.value) is ParseError
        assert "'super' keyword unexpected here" in str(err.value)
        assert src.startswith("super", err.value.offset)


# ---- the parser reads the tokens as the lexer streams them ----


def filler(tokens):
    """``tokens`` tokens of `x=1;` statements, one character each."""
    assert tokens % 4 == 0
    return "x=1;" * (tokens // 4)


def test_arrow_head_closing_past_a_batch_boundary():
    # the `(` is read in the first batch, its `)` and `=>` in the second
    for before in (BATCH_TOKENS - 4, BATCH_TOKENS - 8):
        params = ",".join(f"p{i}" for i in range(10))
        src = filler(before) + f"var f = ({params}) => p0 + p9; var g = (x) + 1;"
        tree, _candidates, summary = parse_src(src)
        assert summary.declared_globals == ["f", "g"]
        (arrow,) = [node for node in tree.nodes if node.kind == FUNCTION]
        assert src[arrow.start : arrow.end] == f"({params}) => p0 + p9"
        assert sorted(arrow.declarations) == sorted(f"p{i}" for i in range(10))


@pytest.mark.parametrize("at", [BATCH_TOKENS - 1, BATCH_TOKENS, BATCH_TOKENS + 1])
def test_a_line_break_at_a_batch_boundary_ends_a_statement(at):
    # `x = 1 \n y = 2` needs the line break for semicolon insertion; the
    # token after it, at stream position ``at``, is the last of a batch,
    # the first of the next, or the one after that
    src = filler(BATCH_TOKENS - 8) + ";" * (at - BATCH_TOKENS + 5) + "x=1\ny=2;"
    assert tokenize(src).nl_before == {at}
    for minify in (False, True):
        _tree, _candidates, summary = front_end(src, "m.js", minify)[1:]
        assert summary.free_names == ["x", "y"]
    with pytest.raises(ParseError, match="expected ';'"):
        parse_src(src.replace("\n", " "))


@pytest.mark.parametrize("minify", [False, True])
def test_a_lexical_error_after_a_syntax_error_is_reported(minify):
    # the syntax error is read batches before the lexer reaches the `#`
    src = "var a = ;\n" + filler(3 * BATCH_TOKENS) + "var b = 1 # 2;\n"
    with pytest.raises(InvalidCharacter) as err:
        front_end(src, "m.js", minify)
    assert err.value.offset == src.index("#")
    with pytest.raises(UnsupportedSyntax):  # without the `#`, the syntax error
        front_end(src.replace("#", "+").replace("var a = ;", "l: ;"), "m.js", minify)


@pytest.mark.parametrize("size", [0, 4, BATCH_TOKENS - 4, BATCH_TOKENS, 2 * BATCH_TOKENS])
def test_an_error_at_end_of_input_keeps_its_offset(size):
    # the end offset is known only once the stream has ended
    src = filler(size) + "if (a) { f(); } else  "
    for minify in (False, True):
        with pytest.raises(ParseError, match="unexpected end of input") as err:
            front_end(src, "m.js", minify)
        assert err.value.offset == len(src)
    tree, _candidates, _summary = parse_src(filler(size) + " ")
    assert tree.nodes[tree.root].end == size + 1
