import random

import pytest

from scopeshield.errors import ParseError, UnsupportedSyntax
from scopeshield.lexer import tokenize
from scopeshield.nodes import walk
from scopeshield.parser import parse_ast, _string_value
from scopeshield.pipeline import front_end
from scopeshield.scopes import build_scope_tree

from corpusgen import GENERATORS


def parse_src(src, file_id="t.js"):
    _text, root, _tree, summary = front_end(src, file_id, minify=False)
    return root, summary


def dynamic_scopes(src, file_id="t.js"):
    root, _summary = parse_ast(tokenize(src, file_id), file_id)
    return [node for node in build_scope_tree(root, file_id).nodes if node.is_dynamic]


def test_import_export_summary():
    _ast, summary = parse_src('import {x} from "./a.js"; export function f(){}')
    assert summary.imports == [("./a.js", ["x"])]
    assert summary.exports == ["f"]


def test_eval_call_is_a_dynamic_site():
    src = "function g(){ eval(s) }"
    (scope,) = dynamic_scopes(src)
    assert scope.kind == "function"
    assert "eval(s)" in src[scope.start:scope.end]


def test_declared_globals_and_free_names():
    # manual scope walk: q is declared at module scope; console resolves
    # nowhere on the chain, so it is the only free name
    _ast, summary = parse_src("var q = 1; console.log(q)")
    assert summary.declared_globals == ["q"]
    assert summary.free_names == ["console"]


def test_with_statement_is_dynamic():
    assert [scope.kind for scope in dynamic_scopes("with (o) { x = 1; }")] == ["module"]


def test_function_constructor_is_dynamic():
    assert [scope.kind for scope in dynamic_scopes('var f = new Function("return 1");')] == [
        "module"
    ]


def test_span_containment_over_corpus():
    rng = random.Random(11)
    for gen in GENERATORS:
        for text in gen(rng).values():
            root, _ = parse_ast(tokenize(text), "c.js")
            stack = [root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    assert node.start <= child.start <= child.end <= node.end, (
                        f"{child.kind} escapes {node.kind} in {text[:40]!r}"
                    )
                    stack.append(child)


def test_import_forms():
    src = (
        'import def from "./a.js";\n'
        'import * as ns from "./b.js";\n'
        'import {one, two as alias} from "./c.js";\n'
        'import "./side.js";\n'
    )
    _ast, summary = parse_src(src)
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
    root, _summary = parse_src(src)
    methods = [node for node in walk(root) if node.kind == "method"]
    assert [(m.name, src[m.start : m.end]) for m in methods] == [
        ("static", "static() { return 1; }"),
        ("static", "static static() { return 2; }"),
    ]


def test_export_forms():
    src = (
        "export var a = 1, b = 2;\n"
        "export class K {}\n"
        "var inner = 3;\n"
        "export {inner as out};\n"
        "export default function main() { return a; }\n"
    )
    _ast, summary = parse_src(src)
    assert summary.exports == ["a", "b", "K", "out", "default"]
    assert ("inner", "out") in summary.export_pairs
    assert all(local != "main" for local, _ in summary.export_pairs)


def test_reexport_counts_as_import_edge():
    _ast, summary = parse_src('export {helper} from "./dep.js";')
    assert summary.imports == [("./dep.js", ["helper"])]
    assert summary.exports == ["helper"]
    assert summary.export_pairs == []


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
    ast, _ = parse_src("var x = 1; var o = {x};")
    shorthand = [n for n in walk(ast) if n.kind == "identifier-ref" and n.aux == "shorthand"]
    assert len(shorthand) == 1


def test_member_access_patch_span():
    src = "player.score += 1;"
    ast, _ = parse_src(src)
    member = next(n for n in walk(ast) if n.kind == "member-access")
    assert member.name == "score"
    assert src[member.value[0] : member.value[1]] == ".score"


def test_directive_strings_marked():
    ast, _ = parse_src('"use strict"; var a = "real";')
    strings = [n for n in walk(ast) if n.kind == "string-lit"]
    assert [n.aux for n in strings] == ["directive", None]


def test_object_keys_marked():
    ast, _ = parse_src('var o = {"key": "value", 2: "two"};')
    strings = [n for n in walk(ast) if n.kind == "string-lit"]
    assert sorted(str(n.aux) for n in strings) == ["None", "None", "key"]


def test_asi_without_semicolons():
    src = "var a = 1\nvar b = 2\nconsole.log(a + b)"
    _ast, summary = parse_src(src)
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
    "for (var i = 0; i < 2; i++) { eval(body); }",
]


def test_every_dynamic_construct_detected():
    # recall must be 100% on the hand-written snippet corpus
    for snippet in DYNAMIC_SNIPPETS:
        assert dynamic_scopes(snippet), f"missed dynamic site in {snippet!r}"


def test_string_value_decoding():
    assert _string_value('"a\\nb"') == "a\nb"
    assert _string_value("'it\\'s'") == "it's"
    assert _string_value('"\\u0041\\u{1F600}"') == "A\U0001f600"
    assert _string_value('"\\x41"') == "A"
    with pytest.raises(ValueError):
        _string_value('"\\7"')  # legacy octal stays unsupported


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
    "src, kind",
    [
        ("export default function() { return 1; }", "function-expr"),
        ("export default function () {}\n(1);", "function-expr"),
        ("export default class { m() { return 2; } }", "class-expr"),
        ("export default class extends Base {}", "class-expr"),
        ("export default function main() {}", "function-decl"),
        ("export default class Main {}", "class"),
    ],
)
def test_export_default_function_or_class_may_be_anonymous(src, kind):
    ast, summary = parse_src(src)
    inner = ast.children[0].children[0]
    assert inner.kind == kind
    assert summary.exports == ["default"] and summary.export_pairs == []
    # an anonymous default binds no name; a named one binds its name
    assert summary.declared_globals == ([inner.name] if inner.name else [])
    if src.endswith("(1);"):
        assert [stmt.kind for stmt in ast.children] == ["export-decl", "expr-stmt"]


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
