import gc
import json
import random
import subprocess
import weakref

import pytest

import scopeshield.parser as parser_module
from scopeshield import pipeline
from scopeshield.errors import InvalidCharacter, LexError, ParseError, UnsupportedSyntax, UnterminatedString
from scopeshield.lexer import BATCH_TOKENS
from scopeshield.parser import parse, string_value
from scopeshield.pipeline import FILE_FAILURES, ObfuscationConfig, front_end, obfuscate_project
from scopeshield.scopes import DECL, FUNCTION, GLOBAL_SCOPE, KIND_NAMES, MODULE, REF, SHORTHAND
from scopeshield.tokens import PUNCT

from arrowgen import arrow_snippets
from conftest import edit_rows, lex_all, module_names, nl_before, occurrence_names, run_node, scope_views
from corpusgen import GENERATORS, build_corpus
from scalegen import synth_module


def parse_src(src, file_id="t.js"):
    """(ScopeTree, Candidates, FileSummary) of ``src`` as written."""
    return front_end(src, file_id)[1:]


_STYLE_NAMES = {REF: None, DECL: "decl", SHORTHAND: "shorthand"}


def occurrence_rows(tree):
    """The (name, start, style name, binding id) of each occurrence of
    ``tree``; the style name is None for a reference."""
    occurrences = tree.occurrences
    styles = [_STYLE_NAMES[style] for style in occurrences.styles]
    return list(zip(occurrence_names(tree), occurrences.starts, styles, occurrences.bindings))


def dynamic_scopes(src, file_id="t.js"):
    tree, _candidates, _summary = parse_src(src, file_id)
    return [node for node in scope_views(tree) if node.dynamic]


def function_scope_texts(src):
    tree, _candidates, _summary = parse_src(src)
    return [src[node.start : node.end] for node in scope_views(tree) if node.kind == FUNCTION]


def test_import_export_summary():
    _tree, _candidates, summary = parse_src('import {x} from "./a.js"; export function f(){}')
    assert summary.imports == ["./a.js"]
    assert summary.export_locals == ["f"]
    assert summary.kind == "esm"


def test_eval_call_is_a_dynamic_site():
    src = "function g(){ eval(s) }"
    (scope,) = dynamic_scopes(src)
    assert scope.kind == FUNCTION
    assert "eval(s)" in src[scope.start:scope.end]


def test_declared_globals_and_free_names():
    # manual scope walk: q is declared at module scope; console resolves
    # nowhere on the chain, so it is the only free name
    tree, _candidates, _summary = parse_src("var q = 1; console.log(q)")
    assert module_names(tree) == ["q"]
    assert sorted(tree.globals) == ["console"]


def test_with_statement_is_dynamic():
    assert [scope.kind for scope in dynamic_scopes("with (o) { x = 1; }")] == [MODULE]


def test_function_constructor_is_dynamic():
    assert [scope.kind for scope in dynamic_scopes('var f = new Function("return 1");')] == [MODULE]


def test_span_containment_over_corpus():
    # every scope lies in its parent, every occurrence in its scope, and the
    # candidates are in source order: the accesses by their `.`
    rng = random.Random(11)
    for gen in GENERATORS:
        for text in gen(rng).values():
            tree, candidates, _summary = parse_src(text, "c.js")
            scopes = scope_views(tree)
            assert scopes[tree.root].start == 0 and scopes[tree.root].end == len(text)
            for node in scopes:
                for child in node.children:
                    child = scopes[child]
                    assert child.parent == node.id
                    assert node.start <= child.start <= child.end <= node.end, (
                        f"{child.kind} escapes {node.kind} in {text[:40]!r}"
                    )
            occurrences = tree.occurrences
            names = occurrence_names(tree)
            for name, start, sid in zip(names, occurrences.starts, occurrences.scope_ids):
                scope = scopes[sid]
                assert scope.start <= start < start + len(name) <= scope.end
                assert text[start : start + len(name)] == name
            for start, end in candidates.strings:
                assert text[start] == text[end - 1] and text[start] in "'\""
            for dot, end, name in edit_rows(candidates.accesses):
                assert dot < end and text[dot] == "." and text[dot:end].endswith(name)
            starts = [start for start, _end in candidates.strings]
            assert starts == sorted(starts)
            dots = candidates.accesses.starts
            assert all(a < b for a, b in zip(dots, dots[1:]))


def test_import_forms():
    src = (
        'import def from "./a.js";\n'
        'import * as ns from "./b.js";\n'
        'import {one, two as alias} from "./c.js";\n'
        'import "./side.js";\n'
    )
    tree, _candidates, summary = parse_src(src)
    assert summary.imports == ["./a.js", "./b.js", "./c.js", "./side.js"]
    assert sorted(tree.declarations[tree.root]) == ["alias", "def", "ns", "one"]


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
    assert summary.kind == "esm" and summary.imports == []
    assert summary.export_locals == ["a", "b", "K", "inner"]


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
    assert summary.imports == ["./dep.js"]
    assert summary.kind == "esm" and summary.export_locals == []


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
    shorthand = [
        (name, start, tree.bindings.names[bid])
        for name, start, style, bid in occurrence_rows(tree)
        if style == "shorthand"
    ]
    assert shorthand == [("x", 20, "x")]


def test_member_access_patch_span():
    src = "player.score += 1;"
    _tree, candidates, _summary = parse_src(src)
    ((dot, end, name),) = edit_rows(candidates.accesses)
    assert name == "score" and src[dot:end] == ".score"


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
    tree, _candidates, _summary = parse_src(src)
    assert module_names(tree) == ["a", "b"]


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
    for pattern in ("{a}", "[a]", "{a = 1}"):
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
    assert summary.kind == "esm" and summary.export_locals == []
    # an anonymous default binds no name; a named one binds its name
    assert module_names(tree) == ([name] if name else [])
    assert list(tree.kinds).count(FUNCTION) == functions
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
    scopes = [(KIND_NAMES[kind], start, end) for kind, start, end in zip(tree.kinds, tree.starts, tree.ends)]
    home = tree.bindings.scope_ids
    occurrences = [(name, start, style, home[bid]) for name, start, style, bid in occurrence_rows(tree)]
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
                # a parameter default gives the body a scope of its own
                [("module", 0, 25), ("function", 1, 24), ("body", 22, 24)],
                [("a", 11, "decl", 1), ("b", 14, "decl", 1)],
            ),
        ),
    ],
)
def test_trailing_commas_and_holes(src, expected):
    assert facts(src) == expected


def test_trailing_commas_in_module_specifier_lists():
    tree, _candidates, summary = parse_src('import {a, b as c,} from "./x.js";\nvar d;\nexport {d, c as e,};')
    assert summary.imports == ["./x.js"]
    assert sorted(tree.declarations[tree.root]) == ["a", "c", "d"]
    assert summary.export_locals == ["d", "c"]


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
    assert list(candidates.strings) == [(8, len(src) - 1)]


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
            front_end(src, "a.js")
            continue
        with pytest.raises(ParseError) as err:
            front_end(src, "a.js")
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
        if front_end(text, "m.js")[3].kind == "esm":
            continue  # vm.Script compiles scripts only
        for tok in lex_all(text):
            if tok.kind == PUNCT and tok.text == ",":
                mutants.append(text[: tok.start] + text[tok.end :])
    node_accepts = node_compiles(node, mutants)

    def accepts(text):
        try:
            front_end(text, "m.js")
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


# (source, whether node compiles it). Node compiles a call as the target
# of `=`, of an arithmetic compound assignment, of `++` and `--` and of a
# for-in head (running it throws), but not of a logical assignment; nor
# anything but a simple target as the operand of `++` and `--` or the
# target of a for-in or for-of head.
CALL_TARGETS_AND_UPDATE_OPERANDS = [
    ("f() = 1;", True),
    ("f() += 1;", True),
    ("f() **= 1;", True),
    ("(f()) = 1;", True),
    ("a.b() = 1;", True),
    ("f()++;", True),
    ("++f();", True),
    ("for (f() in o);", True),
    ("++x; y--; ++(z); --a.b; a[0]++;", True),
    ("f() &&= 1;", False),
    ("f() ??= 1;", False),
    ("new f() = 1;", False),
    ("f()`x` = 1;", False),
    ("++x++;", False),
    ("x = ++y--;", False),
    ("1++;", False),
    ("++(a + b);", False),
    ("++this;", False),
    ("for (1 in o);", False),
    ("for (a + b of o);", False),
    ("for ((a) in o); for (a.b of o); for ([a, b] of o);", True),
]


def node_checks(node, path, text):
    """Whether ``node --check`` compiles ``text`` as the file ``path``."""
    path.write_text(text, encoding="utf-8")
    return subprocess.run([node, "--check", str(path)], capture_output=True).returncode == 0


@pytest.mark.parametrize("src, ok", CALL_TARGETS_AND_UPDATE_OPERANDS)
def test_call_targets_and_update_operands_as_node_reads_them(src, ok, tmp_path, node):
    # a script, a strict script and a module alike
    assert node_checks(node, tmp_path / "s.js", src) == ok
    assert node_checks(node, tmp_path / "strict.js", '"use strict";' + src) == ok
    assert node_checks(node, tmp_path / "m.mjs", src) == ok
    if ok:
        parse_src(src)
    else:
        with pytest.raises(ParseError) as err:
            parse_src(src)
        assert type(err.value) is ParseError


def test_call_targets_and_update_operands_are_transformed(tmp_path, node):
    src = "".join(f"function t{i}(f, a, o, x, y, z) {{ {text} }}\n" for i, (text, ok) in enumerate(
        CALL_TARGETS_AND_UPDATE_OPERANDS) if ok)
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "c.js").write_text(src, encoding="utf-8")
    config = ObfuscationConfig(input_root=str(tmp_path / "in"), output_root=str(tmp_path / "out"))
    assert obfuscate_project(config)["files_transformed"] == 1
    out = (tmp_path / "out" / "c.js").read_text(encoding="utf-8")
    assert out != src and "f()=1" not in out and node_checks(node, tmp_path / "check.js", out)


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


DUPLICATE_PARAMS = [
    "(a, a) => 0",
    "({m(a, a) {}})",
    "class A { m(a, a) {} }",
    "function f(a, a = 1) {}",
    "(function(a, ...a){})",
    "var g = (b, a, c = 1, a) => 0;",
    "function f(a, a) {}",
    "(function(a, b, a){})",
]


def test_duplicate_parameters_rejected_where_node_rejects_them(node):
    # arrows, methods and lists with a default or a rest parameter; a
    # sloppy function's list of plain names may repeat one
    node_accepts = node_compiles(node, DUPLICATE_PARAMS)
    assert node_accepts == [False] * 6 + [True] * 2
    for src, ok in zip(DUPLICATE_PARAMS, node_accepts):
        if ok:
            parse_src(src)
            continue
        with pytest.raises(ParseError, match="duplicate parameter name 'a'") as err:
            parse_src(src)
        assert type(err.value) is ParseError and err.value.offset == src.rindex("a")


CONTEXTUAL_NAMES = [
    "var of = 1;",
    "function async(x) {}",
    "var let = 1;",
    "let = 1;",
    "let;",
    "of + 1;",
    "static;",
    "var f = (a, of) => a;",
    "var yield = 1;",
    "var await = 1;",
]


def test_a_contextual_word_as_a_name_is_unsupported(node):
    # valid JS that the lexer's keywords keep out of the subset: the file is
    # copied as unsupported, not reported as invalid
    assert node_compiles(node, CONTEXTUAL_NAMES) == [True] * len(CONTEXTUAL_NAMES)
    for src in CONTEXTUAL_NAMES:
        with pytest.raises(UnsupportedSyntax, match="is not supported") as err:
            parse_src(src)
        assert src[err.value.offset :].startswith(("of", "async", "let", "static", "yield", "await"))


# valid syntax outside the subset, each checked as a module
OUT_OF_SUBSET = [
    ("({async m(){}})", "async methods"),
    ("({*m(){}})", "generator methods"),
    ("({async *m(){}})", "async methods"),
    ("for await (const x of xs) {}", "for await"),
    ("class A { static {} }", "static blocks"),
    ("class A { #p = 1 }", "private names"),
    ("class A { async m(){} }", "async methods"),
    ("({async})", "'async' is not supported"),
]


@pytest.mark.parametrize("src, message", OUT_OF_SUBSET)
def test_valid_syntax_outside_the_subset_is_unsupported(src, message, tmp_path, node):
    path = tmp_path / "m.mjs"
    path.write_text(src, encoding="utf-8")
    assert subprocess.run([node, "--check", str(path)], capture_output=True).returncode == 0
    with pytest.raises(UnsupportedSyntax, match=message):
        front_end(src, "m.js")


def test_a_numeric_separator_is_one_number(tmp_path, node):
    src = "var n = 1_000, h = 0xf_f, e = 1_0.5e1_0; console.log(n + 1, h, e);\n"
    assert [t.text for t in lex_all(src) if t.kind == "numeric-literal"] == ["1_000", "0xf_f", "1_0.5e1_0", "1"]
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "n.js").write_text(src, encoding="utf-8")
    out = tmp_path / "out"
    report = obfuscate_project(ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(out)))
    assert report["files_transformed"] == 1
    assert run_node(path=out / "n.js") == run_node(code=src) == "1001 255 105000000000\n"


def test_a_valid_module_builds_no_parse_error(monkeypatch):
    # the first item of a `(` that heads no arrow and is no parameter keeps
    # its tokens; a ParseError is built only at a `=>`
    built = []
    init = ParseError.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ParseError, "__init__", counting)
    # the module in the common bundle shape
    front_end("(function(){" + synth_module(3, 64 * 1024) + "})();", "m.js")
    assert built == []
    with pytest.raises(ParseError, match="expected parameter name"):
        front_end("(a, 1) => a", "m.js")
    assert [args[0] for args in built] == ["expected parameter name"]


KEYWORD_PROPERTIES_DIVIDED = ["var o = {return: 12}; o.return / 2 / 3;", "var a = {}; a.delete / 2;"]


def test_a_slash_after_a_keyword_property_name_divides(node):
    assert node_compiles(node, KEYWORD_PROPERTIES_DIVIDED) == [True, True]
    for src in KEYWORD_PROPERTIES_DIVIDED:
        tokens = lex_all(src)
        assert [t.text for t in tokens if t.kind == PUNCT and t.text == "/"] == ["/"] * src.count("/")
        parse_src(src)


DESTRUCTURING_ASSIGNMENTS = [
    ("[a, b] = [b, a];", UnsupportedSyntax),
    ("({a} = o);", UnsupportedSyntax),
    ("x = [a] = y;", UnsupportedSyntax),
    ("[a] += 1;", ParseError),
    ("({a}) = 1;", ParseError),
    ("[a].b = 1;", None),
]


def test_destructuring_assignment_is_unsupported(node):
    # a pattern where node takes one; other literal targets stay invalid
    node_accepts = node_compiles(node, [src for src, _exc in DESTRUCTURING_ASSIGNMENTS])
    assert node_accepts == [exc is not ParseError for _src, exc in DESTRUCTURING_ASSIGNMENTS]
    for src, exc in DESTRUCTURING_ASSIGNMENTS:
        if exc is None:
            parse_src(src)
            continue
        with pytest.raises(ParseError) as err:
            parse_src(src)
        assert type(err.value) is exc
        if exc is UnsupportedSyntax:
            assert "destructuring assignment is not supported" in str(err.value)
        else:
            assert "invalid assignment target" in str(err.value)


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
        tree, _candidates, _summary = parse_src(src)
        assert module_names(tree) == ["f", "g"]
        (arrow,) = [node for node in scope_views(tree) if node.kind == FUNCTION]
        assert src[arrow.start : arrow.end] == f"({params}) => p0 + p9"
        assert sorted(arrow.declarations) == sorted(f"p{i}" for i in range(10))


# invalid arrow heads: the source, and the class, place and message of its
# error
INVALID_HEADS = [
    ("(i <= n) => 0", ParseError, "<=", "expected ',' or ')'"),
    ("(1 + 2) => 0", ParseError, "1", "expected parameter name"),
    ("({a}, b.c) => 0", UnsupportedSyntax, "{", "destructuring parameters"),
    ("(x?.y) => 1", UnsupportedSyntax, "?.", "optional chaining"),
    ("var f = (a + async) => 1;", UnsupportedSyntax, "async", "'async' is not supported"),
    ("(a + b c) => 1", ParseError, "c", "expected ',' or ')'"),
    ("((x?.y)) => 1", UnsupportedSyntax, "?.", "optional chaining"),
    ("(a + (b + (c?.d))) => 1", UnsupportedSyntax, "?.", "optional chaining"),
    ("(a + (b c)) => 1", ParseError, "c", "expected ',' or ')'"),
    ("((a + b) => 1) => 2", ParseError, "+", "expected ',' or ')'"),
    ("(a = b?.c, d + 1) => 1", UnsupportedSyntax, "?.", "optional chaining"),
    ("(a = super.x, b + 1) => 1", ParseError, "super", "'super' keyword unexpected"),
    ("class A { m() { (a = super.x, b + 1) => 1; } }", ParseError, "+", "expected ',' or ')'"),
]


@pytest.mark.parametrize("src, exc, at, message", INVALID_HEADS)
def test_an_arrow_head_the_scan_stops_in_raises_the_parameter_error(src, exc, at, message):
    # a head is read once, as expressions, so an error inside it comes
    # first, as in node; where the head reads without one, the `=>` raises
    # the parameter list's error at the first item that is no parameter:
    # of nested heads, the first to reach its `=>`
    with pytest.raises(ParseError) as err:
        parse_src(src)
    assert type(err.value) is exc and err.value.offset == src.index(at)
    assert message in str(err.value)


def test_node_rejects_every_invalid_arrow_head(node):
    assert node_compiles(node, [src for src, *_error in INVALID_HEADS]) == [False] * len(INVALID_HEADS)


LINE_BREAK_ARROWS = ["var f = (a)\n=> 1;", "var g = a\n=> 1;"]


def test_a_line_break_before_the_arrow_is_a_syntax_error(node):
    # ArrowParameters [no LineTerminator here] `=>`
    assert node_compiles(node, LINE_BREAK_ARROWS) == [False, False]
    for src in LINE_BREAK_ARROWS:
        with pytest.raises(ParseError, match="unexpected token '=>'") as err:
            front_end(src, "m.js")
        assert type(err.value) is ParseError and err.value.offset == src.index("=>")
        assert module_names(parse_src(src.replace("\n", " "))[0]) == [src[4]]


def test_generated_heads_are_accepted_and_rejected_as_node_does(node):
    # a snippet the front end accepts compiles under node, and one it
    # rejects as invalid (not as unsupported) node rejects too
    snippets = arrow_snippets(1200)
    compiles = node_compiles(node, snippets)
    invalid = 0
    for src, ok in zip(snippets, compiles):
        try:
            front_end(src, "a.js")
        except UnsupportedSyntax:
            continue
        except ParseError as exc:
            assert type(exc) is ParseError and not ok, src
            invalid += 1
            continue
        assert ok, src
    assert 200 < invalid < 900 and compiles.count(True) > 200


def scope_facts(src):
    """Per scope its (kind, parent, dynamic flag); per occurrence its (name,
    style, declaring scope); and the texts of the string and access
    candidates."""
    tree, candidates, _summary = parse_src(src)
    return (
        [
            (KIND_NAMES[kind], None if parent == GLOBAL_SCOPE else parent, bool(dynamic))
            for kind, parent, dynamic in zip(tree.kinds, tree.parents, tree.dynamic)
        ],
        [(name, style, tree.bindings.scope_ids[bid]) for name, _start, style, bid in occurrence_rows(tree)],
        [src[start:end] for start, end in candidates.strings],
        [src[dot:end] for dot, end, _name in edit_rows(candidates.accesses)],
    )


MODULE_SCOPE = ("module", None, False)


@pytest.mark.parametrize(
    "src, expected",
    [
        # a function in a default sits in the arrow, and reads its parameter
        (
            "var f = (a = function(){ return b; }, b) => a;",
            (
                [MODULE_SCOPE, ("function", 0, False), ("function", 1, False)],
                [("f", "decl", 0), ("a", "decl", 1), ("b", None, 1), ("b", "decl", 1), ("a", None, 1)],
                [],
                [],
            ),
        ),
        # a dynamic site in a default makes the arrow dynamic
        (
            '(a = eval("b")) => a',
            ([MODULE_SCOPE, ("function", 0, True)], [("a", "decl", 1), ("eval", None, -1), ("a", None, 1)], [], []),
        ),
        # the candidates a default reads are kept
        (
            '(a = "s", b = o.p) => a + b',
            (
                [MODULE_SCOPE, ("function", 0, False)],
                [("a", "decl", 1), ("b", "decl", 1), ("o", None, -1), ("a", None, 1), ("b", None, 1)],
                ['"s"'],
                [".p"],
            ),
        ),
        # with no `=>`, what the parentheses hold stays where they are
        (
            "(b = function(){}, eval(c));",
            (
                [("module", None, True), ("function", 0, False)],
                [("b", None, -1), ("eval", None, -1), ("c", None, -1)],
                [],
                [],
            ),
        ),
        ("(b = function(){})", ([MODULE_SCOPE, ("function", 0, False)], [("b", None, -1)], [], [])),
    ],
)
def test_an_arrow_takes_over_what_its_head_read(src, expected):
    assert scope_facts(src) == expected


@pytest.mark.parametrize(
    "src",
    ["(a = `${b, 1}`) => a", "(a = `${x, y + 1}`) => a", "(a = `x${1}y${`${b, c}`, d}`, e) => a + e"],
)
def test_a_comma_in_a_default_value_interpolation_ends_no_parameter(src):
    tree, _candidates, _summary = parse_src(src)
    (arrow,) = [node for node in scope_views(tree) if node.kind == FUNCTION]
    assert src[arrow.start : arrow.end] == src


@pytest.mark.parametrize("at", [BATCH_TOKENS - 1, BATCH_TOKENS, BATCH_TOKENS + 1])
def test_a_line_break_at_a_batch_boundary_ends_a_statement(at):
    # `x = 1 \n y = 2` needs the line break for semicolon insertion; the
    # token after it, at stream position ``at``, is the last of a batch,
    # the first of the next, or the one after that
    src = filler(BATCH_TOKENS - 8) + ";" * (at - BATCH_TOKENS + 5) + "x=1\ny=2;"
    assert nl_before(lex_all(src)) == {at}
    assert sorted(parse_src(src)[0].globals) == ["x", "y"]
    with pytest.raises(ParseError, match="expected ';'"):
        parse_src(src.replace("\n", " "))


@pytest.mark.parametrize("minify", [False, True])
def test_a_lexical_error_after_a_syntax_error_is_reported(minify, tmp_path):
    # the syntax error is read batches before the lexer reaches the `#`;
    # the file task reports it alike whether or not it minifies
    src = "var a = ;\n" + filler(3 * BATCH_TOKENS) + "var b = 1 # 2;\n"
    with pytest.raises(InvalidCharacter) as err:
        front_end(src, "m.js")
    assert err.value.offset == src.index("#")
    unsupported = src.replace("#", "+").replace("var a = ;", "l: ;")
    with pytest.raises(UnsupportedSyntax) as syntax:  # without the `#`, the syntax error
        front_end(unsupported, "m.js")
    config = ObfuscationConfig(input_root=str(tmp_path), minify=minify)
    for text, status, exc in [(src, "error", err.value), (unsupported, "unsupported", syntax.value)]:
        (tmp_path / "m.js").write_text(text, encoding="utf-8")
        result = pipeline.process_file(config, frozenset(), "m.js")
        assert (result["status"], result["error"]) == (status, str(exc))


def test_a_failed_parse_is_freed_before_the_lexer_drains(monkeypatch):
    # the string is unterminated batches after the syntax error: no parser
    # of the file may be alive when the lexer reaches it, and the lexical
    # error may not carry the syntax error, and its frames, as its context
    src = "var a = ;\n" + "var b = 1;\n" * 3000 + 'var c = "unterminated\n'
    parsers = weakref.WeakSet()
    alive = []
    init, lex = parser_module._Parser.__init__, parser_module.lex

    def recording_init(self, *args):
        parsers.add(self)
        init(self, *args)

    def watched_lex(*args):
        try:
            return (yield from lex(*args))
        except LexError:
            alive.append(len(parsers))
            raise

    monkeypatch.setattr(parser_module._Parser, "__init__", recording_init)
    monkeypatch.setattr(parser_module, "lex", watched_lex)
    enabled = gc.isenabled()
    gc.disable()  # as in a file task: only reference counting frees it
    try:
        with pytest.raises(UnterminatedString) as err:
            parse(src, "m.js")
    finally:
        if enabled:
            gc.enable()
    offset = src.index('"unterminated')
    assert (str(err.value), err.value.offset) == (f"m.js:{offset}: unterminated string literal", offset)
    assert err.value.__context__ is None
    assert alive == [0]


# files that fail after gaps minifying would change: (error class, file, the
# text at the error's offset); the last fails only once the whole file has
# parsed, and the lexical error comes batches after the syntax error
FAILING_FILES = [
    (ParseError, "/* c */\n  var a = 1;\n\n  f(a  2);\n", "2);"),
    (UnsupportedSyntax, "// a comment\nvar a = 1;\n  /* c */ loop: for (;;) { break loop; }\n", "loop:"),
    (UnsupportedSyntax, "try {}  // c\n  catch (e) {\n    var e = 1;\n}\n", "e = 1"),
    (InvalidCharacter, "var a =  ;\n" + filler(3 * BATCH_TOKENS) + "var b = 1  # 2;\n", "#"),
]


@pytest.mark.parametrize("error, src, at", FAILING_FILES)
def test_a_failing_file_is_parsed_once_at_offsets_as_written(error, src, at, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(pipeline, "parse", counting)
    with pytest.raises(error) as err:
        front_end(src, "m.js")
    assert type(err.value) is error and err.value.offset == src.index(at)
    assert len(calls) == 1


@pytest.mark.parametrize("size", [0, 4, BATCH_TOKENS - 4, BATCH_TOKENS, 2 * BATCH_TOKENS])
def test_an_error_at_end_of_input_keeps_its_offset(size):
    # the end offset is known only once the stream has ended
    src = filler(size) + "if (a) { f(); } else  "
    with pytest.raises(ParseError, match="unexpected end of input") as err:
        front_end(src, "m.js")
    assert err.value.offset == len(src)
    tree, _candidates, _summary = parse_src(filler(size) + " ")
    assert tree.ends[tree.root] == size + 1
