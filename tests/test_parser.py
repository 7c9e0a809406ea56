import json
import random
import subprocess

import pytest

from scopeshield.errors import ParseError, UnsupportedSyntax
from scopeshield.lexer import tokenize
from scopeshield.nodes import walk
from scopeshield.parser import parse_ast, _string_value
from scopeshield.pipeline import FILE_FAILURES, front_end
from scopeshield.scopes import build_scope_tree
from scopeshield.tokens import PUNCT

from corpusgen import GENERATORS, build_corpus


def parse_src(src, file_id="t.js"):
    _text, root, _tree, summary = front_end(src, file_id, minify=False)
    return root, summary


def dynamic_scopes(src, file_id="t.js"):
    root, _summary = parse_ast(tokenize(src, file_id), file_id)
    return [node for node in build_scope_tree(root, file_id).nodes if node.is_dynamic]


def test_import_export_summary():
    _ast, summary = parse_src('import {x} from "./a.js"; export function f(){}')
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
    assert summary.module_syntax and summary.imports == []
    assert summary.export_pairs == [("a", "a"), ("b", "b"), ("K", "K"), ("inner", "out")]
    assert all(local != "main" for local, _ in summary.export_pairs)


def test_reexport_counts_as_import_edge():
    _ast, summary = parse_src('export {helper} from "./dep.js";')
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
    assert summary.module_syntax and summary.export_pairs == []
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


def shape(node):
    return (node.kind, node.start, node.end, [shape(child) for child in node.children])


@pytest.mark.parametrize(
    "src, expected",
    [
        ("f(a,)", ("call", 0, 5, [("identifier-ref", 0, 1, []), ("identifier-ref", 2, 3, [])])),
        (
            "[,1,,]",
            ("array", 0, 6, [("empty", 1, 1, []), ("num-lit", 2, 3, []), ("empty", 4, 4, [])]),
        ),
        ("[,]", ("array", 0, 3, [("empty", 1, 1, [])])),
        ("[...a,]", ("array", 0, 7, [("spread", 1, 5, [("identifier-ref", 4, 5, [])])])),
        (
            "({a:1,})",
            ("paren", 0, 8, [("object", 1, 7, [("property", 2, 5, [("num-lit", 4, 5, [])])])]),
        ),
        (
            "(function (a, b = 1,) {})",
            (
                "paren", 0, 25,
                [("function-expr", 1, 24, [
                    ("param", 11, 12, []),
                    ("param", 14, 19, [("num-lit", 18, 19, [])]),
                    ("block", 22, 24, []),
                ])],
            ),
        ),
    ],
)
def test_trailing_commas_and_holes(src, expected):
    ast, _summary = parse_src(src)
    assert shape(ast.children[0].children[0]) == expected


def test_trailing_commas_in_module_specifier_lists():
    _ast, summary = parse_src('import {a, b as c,} from "./x.js";\nvar d;\nexport {d, c as e,};')
    assert summary.imports == [("./x.js", ["a", "b"])]
    assert summary.export_pairs == [("d", "d"), ("c", "e")]


def test_get_and_set_prefix_one_rule_for_objects_and_classes():
    ast, _summary = parse_src(
        "var o = {get [k]() { return 1; }, set [k](v) {}, get x() {}, get: 1, set() {}, get};"
    )
    props = [node for node in walk(ast) if node.kind == "property"]
    assert [(p.name, p.aux, p.children[-1].kind, p.children[-1].aux) for p in props] == [
        (None, "computed", "method", "get"),
        (None, "computed", "method", "set"),
        ("x", "get", "method", "get"),
        ("get", "init", "num-lit", None),
        ("set", "method", "method", "method"),
        ("get", "shorthand", "identifier-ref", "shorthand"),
    ]
    ast, _summary = parse_src("class A { get() {} set(v) {} get x() {} static set y(v) {} }")
    assert [(m.name, m.aux) for m in walk(ast) if m.kind == "method"] == [
        ("get", "method"), ("set", "method"), ("x", "get"), ("y", "set"),
    ]
    with pytest.raises(UnsupportedSyntax, match="computed method names"):
        parse_src("class A { get [k]() {} }")
    with pytest.raises(ParseError):
        parse_src("({get [k]: 1})")  # an accessor needs its parameter list


def test_line_continuations_join_the_lines():
    for terminator in ("\n", "\r", "\r\n", "\u2028", "\u2029"):
        assert _string_value(f'"ab\\{terminator}cd"') == "abcd"
    # unescaped, U+2028 and U+2029 are part of the string
    assert _string_value('"a\u2028b\u2029c"') == "a\u2028b\u2029c"
    root, _summary = parse_src('var s = "a\u2028b";')
    assert [node.kind for node in walk(root)][-1] == "string-lit"


# compiles each source of the JSON list on stdin as a script; prints whether each compiled
_NODE_COMPILES = (
    'const vm = require("vm");'
    'const sources = JSON.parse(require("fs").readFileSync(0, "utf8"));'
    "process.stdout.write(JSON.stringify(sources.map((s) => {"
    "  try { new vm.Script(s); return true; } catch (e) { return false; } })));"
)


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
    proc = subprocess.run(
        [node, "-e", _NODE_COMPILES], input=json.dumps(mutants), capture_output=True, text=True
    )
    node_accepts = json.loads(proc.stdout)

    def accepts(text):
        try:
            front_end(text, "m.js", minify=True)
        except FILE_FAILURES:
            return False
        return True

    assert len(mutants) > 300 and node_accepts.count(False) > 300
    wrong = [text for text, ok in zip(mutants, node_accepts) if accepts(text) != ok]
    assert wrong == []
