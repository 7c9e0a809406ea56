import random

import pytest

from scopeshield.errors import UnknownScope
from scopeshield.pipeline import front_end
from scopeshield.renamer import frozen_bindings
from scopeshield.scopes import (
    BLOCK,
    BODY,
    FUNCTION,
    FUNCTION_DECL,
    GLOBAL_SCOPE,
    MODULE,
    RANKS,
    VAR,
)


from corpusgen import GENERATORS, build_corpus
from conftest import edit_rows, occurrence_names, scope_views
from treegen import random_scope_tree


def tree_of(src, file_id="t.js"):
    return front_end(src, file_id)[1]


def ranked(tree, bindings):
    """The (name, category) of ``bindings``, ids, in renaming order."""
    b = tree.bindings
    order = sorted(bindings, key=lambda bid: (RANKS[b.categories[bid]], bid))
    return [(b.names[bid], b.categories[bid]) for bid in order]


def test_nested_function_and_block_scopes():
    tree = tree_of("function f(){ let x; { let y; } }")
    assert list(tree.kinds) == [MODULE, FUNCTION, BLOCK]
    module, fn, block = scope_views(tree)
    assert "f" in module.declarations
    assert "x" in fn.declarations and "y" not in fn.declarations
    assert "y" in block.declarations
    assert block.parent == fn.id and fn.parent == module.id


def test_a_parameter_default_gives_the_body_its_own_scope():
    # FunctionDeclarationInstantiation: the body's vars and functions bind
    # below the parameters, where a default's closure cannot see them; a
    # body var named like a parameter is that parameter
    for src in (
        "function f(a, b = () => x) { var a, x; function g() {} }",
        "({m(a, b = () => x) { var a, x; function g() {} }})",
        "(a, b = () => x) => { var a, x; function g() {} }",
    ):
        tree = tree_of(src)
        body = tree.kinds.index(BODY)
        params = tree.parents[body]
        assert tree.kinds[params] == FUNCTION and list(tree.kinds).count(BODY) == 1
        assert sorted(tree.declarations[params]) == ["a", "b"]
        assert sorted(tree.declarations[body]) == ["g", "x"]
        names, bindings = occurrence_names(tree), tree.occurrences.bindings
        homes = {(name, tree.bindings.scope_ids[bid]) for name, bid in zip(names, bindings)}
        assert {("a", params), ("x", body)} <= homes and ("a", body) not in homes
        # the default's `x` reads the global, not the body's var
        assert ("x", GLOBAL_SCOPE) in homes
    # without a default, one scope holds the parameters and the body's names
    tree = tree_of("function f(a, b) { var a, x; }")
    assert list(tree.kinds) == [MODULE, FUNCTION] and sorted(tree.declarations[1]) == ["a", "b", "x"]


def test_block_scope_only_for_direct_lexical_declarations():
    # a block is a scope only if a let/const/class/function statement is
    # directly in it; a declaration nested deeper binds in the scope around
    tree = tree_of("{ if (a) function f(){} }")
    assert list(tree.kinds) == [MODULE, FUNCTION]
    assert tree.bindings.categories[tree.declarations[0]["f"]] == FUNCTION_DECL
    tree = tree_of("{ if (a) function f(){} let q; }")
    assert list(tree.kinds) == [MODULE, BLOCK, FUNCTION]
    assert sorted(tree.declarations[1]) == ["f", "q"]
    tree = tree_of("{ { let a; } b(); }")
    assert list(zip(tree.kinds, tree.parents)) == [(MODULE, GLOBAL_SCOPE), (BLOCK, 0)]
    assert list(zip(occurrence_names(tree), tree.occurrences.scope_ids)) == [("a", 1), ("b", 0)]
    # the first declaration of a name in source order makes its binding
    tree = tree_of("function g(){ { if (a) function f(){} var f; } f(); var h; }")
    assert list(tree.kinds) == [MODULE, FUNCTION, FUNCTION]
    assert ranked(tree, tree.declarations[1].values()) == [("f", FUNCTION_DECL), ("h", VAR)]
    # binding ids follow declaration order
    assert tree.declarations[0]["g"] == 0


def test_file_without_functions_has_single_module_scope():
    tree = tree_of("var a = 1; let b = 2; const c = a + b;")
    assert len(tree) == 1
    assert sorted(tree.declarations[0]) == ["a", "b", "c"]


def test_eval_marks_the_containing_scope_dynamic():
    tree = tree_of("function f(){ eval(s) }")
    assert tree.kinds[1] == FUNCTION and tree.dynamic[1]
    assert not tree.dynamic[tree.root]  # direct presence only
    # the module's f is visible at the eval, so it keeps its name
    assert frozen_bindings(tree)[tree.declarations[tree.root]["f"]]


def test_var_hoists_to_function_scope():
    tree = tree_of("function f(){ { var hoisted = 1; let kept = 2; } }")
    fn, block = tree.declarations[1], tree.declarations[2]
    assert "hoisted" in fn
    assert "kept" in block and "hoisted" not in block
    # the var's declaring occurrence stands in the block, which therefore
    # forbids the var's output name
    assert list(zip(occurrence_names(tree), tree.occurrences.scope_ids)) == [
        ("f", 0), ("hoisted", 2), ("kept", 2),
    ]
    assert tree.occurrences.bindings[1] == fn["hoisted"]


def test_switch_case_block_is_a_scope_only_for_lexical_declarations():
    tree = tree_of("function f(k){ switch (k) { case 1: g(); break; default: var v; } }")
    assert list(tree.kinds) == [MODULE, FUNCTION]
    assert sorted(tree.declarations[1]) == ["k", "v"]
    tree = tree_of("function f(k){ switch (k) { case 1: let y = k; g(y); } return y; }")
    assert list(tree.kinds) == [MODULE, FUNCTION, BLOCK]
    case_block = tree.declarations[2]
    assert list(case_block) == ["y"]
    ys = [b for name, b in zip(occurrence_names(tree), tree.occurrences.bindings) if name == "y"]
    # the declaration and `g(y)` read the case block's y; `return y` a global
    assert ys[0] == ys[1] == case_block["y"]
    assert tree.bindings.scope_ids[ys[2]] == GLOBAL_SCOPE


def test_catch_and_for_let_scopes():
    tree = tree_of("try { f(); } catch (e) { e; } for (let i = 0; i < 2; i++) { g(i); }")
    assert list(tree.kinds).count(BLOCK) == 2
    catch_scope, loop_scope = tree.declarations[1:]
    assert "e" in catch_scope
    assert "i" in loop_scope


def test_resolve_in_own_scope():
    tree = tree_of("function f(){ var x; x; }")
    binding = tree.resolve("x", 1)
    assert tree.bindings.scope_ids[binding] == 1 and tree.bindings.names[binding] == "x"


def test_resolve_falls_through_to_global():
    tree = tree_of("function f(){ missing; }")
    binding = tree.resolve("missing", 1)
    assert tree.bindings.scope_ids[binding] == GLOBAL_SCOPE
    assert tree.globals == {"missing": binding}


def test_resolve_picks_nearest_declaration():
    # x declared at module scope and in f; a query from the block inside f
    # must reach f's x. Oracle: walk the parent chain by hand.
    src = "var x = 1; function f(){ var x = 2; { let y = x; } }"
    tree = tree_of(src)
    scopes = scope_views(tree)
    block = next(n for n in scopes if n.kind == BLOCK)
    binding = tree.resolve("x", block.id)
    chain = [block.id]
    sid = block.parent
    while sid != GLOBAL_SCOPE:
        chain.append(sid)
        sid = scopes[sid].parent
    first_declaring = next(s for s in chain if "x" in scopes[s].declarations)
    assert tree.bindings.scope_ids[binding] == first_declaring
    assert tree.kinds[first_declaring] == FUNCTION


def test_unknown_scope_raises():
    tree = tree_of("var a;")
    with pytest.raises(UnknownScope):
        tree.resolve("a", 99)


def test_usage_counts_match_occurrences():
    tree = tree_of("function f(a){ a; a; return a + 1; } var z = 0;")
    uses = list(tree.occurrences.bindings)
    # 3 references + the declaration site itself
    assert uses.count(tree.declarations[1]["a"]) == 4
    assert uses.count(tree.declarations[tree.root]["z"]) == 1


def test_function_expression_name_binds_in_own_scope():
    tree = tree_of("var p = function self(n){ return n > 0 ? self(n - 1) : 0; };")
    fn = next(n for n in scope_views(tree) if n.kind == FUNCTION)
    assert "self" in fn.declarations
    assert "self" not in tree.declarations[tree.root]


def test_candidate_in_function_below_an_eval_scope_is_dropped():
    src = 'function f(){ eval(s); function inner(){ var q = "deep"; return q.length; } } var k = "kept";'
    tree, strings, accesses = candidates_of(src)
    inner = next(n for n in scope_views(tree) if "q" in n.declarations)
    assert not inner.dynamic and tree.dynamic[inner.parent]
    assert strings == ['"kept"'] and accesses == []


def test_var_redeclaring_catch_param_is_rejected():
    # `var e` inside catch(e) writes the catch binding; renaming the pair
    # apart would change behavior, so the file must take the verbatim path
    from scopeshield.errors import UnsupportedSyntax

    with pytest.raises(UnsupportedSyntax):
        tree_of("try { f(); } catch (e) { var e = 1; }")
    tree_of("try { f(); } catch (e) { var other = 1; }")  # benign form is fine


# ---- candidates a dynamic site can see are dropped by the parser ----

def candidates_of(src, file_id="t.js"):
    """The tree of ``src`` and the text of its string and access candidates."""
    _text, tree, candidates, _summary = front_end(src, file_id)
    strings = [src[start:end] for start, end in candidates.strings]
    accesses = [src[dot:end] for dot, end, _name in edit_rows(candidates.accesses)]
    return tree, strings, accesses


def test_candidate_in_an_elided_block_before_a_later_eval_is_dropped():
    # the block holds no lexical declaration, so it is no scope; its
    # candidates were read before the eval that makes f dynamic
    src = 'function f(){ if (a) { x.y = "in-block"; } eval(s); } var k = "kept", n = k.length;'
    tree, strings, accesses = candidates_of(src)
    assert list(tree.kinds) == [MODULE, FUNCTION] and tree.dynamic[1]
    assert strings == ['"kept"'] and accesses == [".length"]
    # an elided block holding the eval makes its parent dynamic, and with it
    # a kept block read before it
    src = 'function f(){ { let q; o.p = "a-b"; } { eval(s); } } o.r = "c-d";'
    tree, strings, accesses = candidates_of(src)
    assert list(tree.kinds) == [MODULE, FUNCTION, BLOCK]
    assert strings == ['"c-d"'] and accesses == [".r"]


def test_candidates_in_a_with_scope_are_dropped():
    src = 'function g(o){ o.a = "before"; with (o) { o.k = "in-with"; } } var t = "out", u = t.length;'
    _tree, strings, accesses = candidates_of(src)
    assert strings == ['"out"'] and accesses == [".length"]


def test_module_root_eval_drops_every_candidate():
    # the module (eval) and the function at offset 0 (with) are both dynamic
    # and start together; the literals after the function lie only in the
    # module's extent
    src = 'function f(o){with(o){o.k="in-with"}}eval("1");var s="after",t=s.length;'
    tree, strings, accesses = candidates_of(src, "shared.js")
    assert tree.dynamic[tree.root] and tree.dynamic[1]
    assert strings == [] and accesses == []
    src = (
        'function f(){eval("a");function g(o){with(o){o.h="x"}}return "y".length}'
        'var z="out",w=z.length;'
    )
    _tree, strings, accesses = candidates_of(src, "nested.js")
    assert strings == ['"out"'] and accesses == [".length"]


def test_candidates_read_outside_the_dynamic_scope_holding_them_are_kept():
    # a computed method key is read before the method's scope starts, and a
    # member access on a function expression after it ends
    _tree, strings, accesses = candidates_of('var o = {["k-1"]() { return eval(s); }};')
    assert strings == ['"k-1"']
    _tree, _strings, accesses = candidates_of("var r = function () { return eval(s); }.call(o);")
    assert accesses == [".call"]


# Same-length spellings that parse alike but are no dynamic site: `with (o)`
# becomes `if   (o)`, and eval and Function other names.
NEUTRAL = ((r"\bwith\b", "if  "), (r"\beval\b", "evax"), (r"\bFunction\b", "Functiox"))

DYNAMIC_PROGRAMS = (
    'function f(o){with(o){o.k="in-with"}}eval("1");var s="after",t=s.length;',
    'function f(){eval("a");function g(o){with(o){o.h="x"}}return "y".length}var z="out",w=z.length;',
    'function f(){ if (a) { x.y = "in-block"; } eval(s); } var k = "kept", n = k.length;',
    'var m = new Function("a", "return a"); function h(){ return "body".length; }',
    'function h(){ var g = Function("return 1"); { let b = "blk"; o.p = b; } } var c = "top".length;',
    'var p = (x = "dflt") => { with (x) { return x.v; } }; for (let i of "abc") o.w = i.length;',
)


def under_dynamic_scope(tree, pos):
    """Span oracle: whether the innermost scope whose span holds ``pos``, or
    an ancestor of it, is dynamic."""
    scopes = scope_views(tree)
    sid = tree.root
    while not scopes[sid].dynamic:
        inner = [c for c in scopes[sid].children if scopes[c].start <= pos < scopes[c].end]
        if not inner:
            return False
        sid = inner[0]
    return True


def test_kept_candidates_match_a_span_oracle_on_programs():
    # every candidate of the program with its dynamic sites neutralized,
    # except those under a dynamic scope's span; the programs hold neither
    # shape whose candidate is read outside the span holding it
    import re

    rng = random.Random(41)
    programs = [(f"dyn{i}.js", src) for i, src in enumerate(DYNAMIC_PROGRAMS)]
    for _ in range(3):
        for gen in GENERATORS:
            programs.extend(gen(rng).items())
    dropped = 0
    for file_id, src in programs:
        tree, candidates = front_end(src, file_id)[1:3]
        neutral = src
        for pattern, spelling in NEUTRAL:
            neutral = re.sub(pattern, spelling, neutral)
        every = front_end(neutral, file_id)[2]
        strings = [c for c in every.strings if not under_dynamic_scope(tree, c[0])]
        accesses = [c for c in edit_rows(every.accesses) if not under_dynamic_scope(tree, c[0])]
        assert list(candidates.strings) == strings, file_id
        assert edit_rows(candidates.accesses) == accesses, file_id
        dropped += len(every.strings) + len(every.accesses) - len(strings) - len(accesses)
    assert dropped >= 20


# ---- each occurrence is resolved once, when the tree is built ----

def assert_stored_bindings_match_resolve(tree):
    occurrences = tree.occurrences
    assert len(occurrences)
    for name, start, sid, binding in zip(
        occurrence_names(tree), occurrences.starts, occurrences.scope_ids, occurrences.bindings
    ):
        assert binding == tree.resolve(name, sid), (tree.file_id, name, start)


def test_stored_binding_matches_resolve_on_corpus_programs(tmp_path):
    build_corpus(tmp_path, count=200)
    paths = sorted(tmp_path.rglob("*.js"))
    assert len(paths) >= 200
    for path in paths:
        rel = path.relative_to(tmp_path).as_posix()
        assert_stored_bindings_match_resolve(tree_of(path.read_text(encoding="utf-8"), rel))


def test_occurrence_starts_are_in_source_order_on_corpus_programs(tmp_path):
    # the emit writes renames in table order, so it needs this order
    build_corpus(tmp_path, count=200)
    for path in sorted(tmp_path.rglob("*.js")):
        starts = tree_of(path.read_text(encoding="utf-8"), path.name).occurrences.starts
        assert list(starts) == sorted(starts), path.name


def test_stored_binding_matches_resolve_on_random_trees():
    rng = random.Random(0xB1D)
    for _ in range(300):
        assert_stored_bindings_match_resolve(random_scope_tree(rng, max_depth=6, max_bindings=20))


def test_each_declaration_is_one_binding_that_resolve_returns():
    src = "var x = 1; function f(x){ var y = x; { let x = y; x; } return console.log(x); } f(x);"
    tree = tree_of(src, "one.js")
    declared = [bid for node in scope_views(tree) for bid in node.declarations.values()]
    assert sorted(declared) == list(range(5))  # ids in declaration order
    names, scope_ids = tree.bindings.names, tree.bindings.scope_ids
    for node in scope_views(tree):
        for name, bid in node.declarations.items():
            assert (scope_ids[bid], names[bid]) == (node.id, name)
            assert tree.resolve(name, node.id) == bid
            for child in node.children:
                if name not in (tree.declarations[child] or ()):
                    assert tree.resolve(name, child) == bid
    # a name read free resolves to the tree's one global binding, wherever it is read
    console = tree.resolve("console", 0)
    assert scope_ids[console] == GLOBAL_SCOPE and console == tree.resolve("console", 1)
    assert tree.globals == {"console": console} and console == len(tree.bindings) - 1
