import random

import pytest

from scopeshield.errors import UnknownScope
from scopeshield.pipeline import front_end
from scopeshield.scopes import (
    BLOCK,
    FUNCTION,
    GLOBAL_SCOPE,
    MODULE,
    Binding,
)


from corpusgen import GENERATORS, build_corpus
from conftest import access_rows
from treegen import random_scope_tree


def tree_of(src, file_id="t.js"):
    return front_end(src, file_id, minify=False)[1]


def test_nested_function_and_block_scopes():
    tree = tree_of("function f(){ let x; { let y; } }")
    kinds = [n.kind for n in tree.nodes]
    assert kinds == [MODULE, FUNCTION, BLOCK]
    module, fn, block = tree.nodes
    assert "f" in module.declarations
    assert "x" in fn.declarations and "y" not in fn.declarations
    assert "y" in block.declarations
    assert block.parent == fn.id and fn.parent == module.id


def test_block_scope_only_for_direct_lexical_declarations():
    # a block is a scope only if a let/const/class/function statement is
    # directly in it; a declaration nested deeper binds in the scope around
    tree = tree_of("{ if (a) function f(){} }")
    assert [n.kind for n in tree.nodes] == [MODULE, FUNCTION]
    assert tree.nodes[0].declarations["f"].category == "function"
    tree = tree_of("{ if (a) function f(){} let q; }")
    assert [n.kind for n in tree.nodes] == [MODULE, BLOCK, FUNCTION]
    assert sorted(tree.nodes[1].declarations) == ["f", "q"]
    tree = tree_of("{ { let a; } b(); }")
    assert [(n.kind, n.parent) for n in tree.nodes] == [(MODULE, None), (BLOCK, 0)]
    occurrences = tree.occurrences
    assert list(zip(occurrences.names, occurrences.scope_ids)) == [("a", 1), ("b", 0)]
    # the first declaration of a name in source order makes its binding
    tree = tree_of("function g(){ { if (a) function f(){} var f; } f(); var h; }")
    fn = tree.nodes[1]
    assert [n.kind for n in tree.nodes] == [MODULE, FUNCTION, FUNCTION]
    assert [(b.name, b.category) for b in sorted(fn.declarations.values(), key=Binding.rank)] == [
        ("f", "function"), ("h", "var"),
    ]
    assert tree.nodes[0].declarations["g"].order == 1


def test_file_without_functions_has_single_module_scope():
    tree = tree_of("var a = 1; let b = 2; const c = a + b;")
    assert len(tree.nodes) == 1
    assert sorted(tree.nodes[0].declarations) == ["a", "b", "c"]


def test_eval_marks_the_containing_scope_dynamic():
    tree = tree_of("function f(){ eval(s) }")
    fn = tree.nodes[1]
    assert fn.kind == FUNCTION and fn.is_dynamic
    assert not tree.nodes[tree.root].is_dynamic  # direct presence only
    assert tree.root in tree.scopes_with_dynamic_inside()


def test_var_hoists_to_function_scope():
    tree = tree_of("function f(){ { var hoisted = 1; let kept = 2; } }")
    fn = tree.nodes[1]
    assert "hoisted" in fn.declarations
    block = tree.nodes[2]
    assert "kept" in block.declarations and "hoisted" not in block.declarations
    # the var's declaring occurrence stands in the block, which therefore
    # forbids the var's output name
    occurrences = tree.occurrences
    assert list(zip(occurrences.names, occurrences.scope_ids)) == [
        ("f", 0), ("hoisted", 2), ("kept", 2),
    ]
    assert occurrences.bindings[1] is fn.declarations["hoisted"]


def test_switch_case_block_is_a_scope_only_for_lexical_declarations():
    tree = tree_of("function f(k){ switch (k) { case 1: g(); break; default: var v; } }")
    assert [n.kind for n in tree.nodes] == [MODULE, FUNCTION]
    assert sorted(tree.nodes[1].declarations) == ["k", "v"]
    tree = tree_of("function f(k){ switch (k) { case 1: let y = k; g(y); } return y; }")
    assert [n.kind for n in tree.nodes] == [MODULE, FUNCTION, BLOCK]
    case_block = tree.nodes[2]
    assert list(case_block.declarations) == ["y"]
    ys = [b for name, b in zip(tree.occurrences.names, tree.occurrences.bindings) if name == "y"]
    # the declaration and `g(y)` read the case block's y; `return y` a global
    assert ys[0] is ys[1] is case_block.declarations["y"] and ys[2].is_global()


def test_catch_and_for_let_scopes():
    tree = tree_of("try { f(); } catch (e) { e; } for (let i = 0; i < 2; i++) { g(i); }")
    kinds = [n.kind for n in tree.nodes]
    assert kinds.count(BLOCK) == 2
    catch_scope = tree.nodes[1]
    assert "e" in catch_scope.declarations
    loop_scope = tree.nodes[2]
    assert "i" in loop_scope.declarations


def test_resolve_in_own_scope():
    tree = tree_of("function f(){ var x; x; }")
    fn = tree.nodes[1]
    binding = tree.resolve("x", fn.id)
    assert binding.scope_id == fn.id and binding.name == "x"


def test_resolve_falls_through_to_global():
    tree = tree_of("function f(){ missing; }")
    binding = tree.resolve("missing", 1)
    assert binding.is_global()
    assert binding.scope_id == GLOBAL_SCOPE


def test_resolve_picks_nearest_declaration():
    # x declared at module scope and in f; a query from the block inside f
    # must reach f's x. Oracle: walk the parent chain by hand.
    src = "var x = 1; function f(){ var x = 2; { let y = x; } }"
    tree = tree_of(src)
    block = next(n for n in tree.nodes if n.kind == BLOCK)
    binding = tree.resolve("x", block.id)
    chain = [block.id]
    sid = block.parent
    while sid is not None:
        chain.append(sid)
        sid = tree.nodes[sid].parent
    first_declaring = next(s for s in chain if "x" in tree.nodes[s].declarations)
    assert binding.scope_id == first_declaring
    assert tree.nodes[binding.scope_id].kind == FUNCTION


def test_unknown_scope_raises():
    tree = tree_of("var a;")
    with pytest.raises(UnknownScope):
        tree.resolve("a", 99)


def test_usage_counts_match_occurrences():
    tree = tree_of("function f(a){ a; a; return a + 1; } var z = 0;")
    fn = tree.nodes[1]
    uses = tree.occurrences.bindings
    # 3 references + the declaration site itself
    assert sum(b is fn.declarations["a"] for b in uses) == 4
    assert sum(b is tree.nodes[tree.root].declarations["z"] for b in uses) == 1


def test_function_expression_name_binds_in_own_scope():
    tree = tree_of("var p = function self(n){ return n > 0 ? self(n - 1) : 0; };")
    fn = next(n for n in tree.nodes if n.kind == FUNCTION)
    assert "self" in fn.declarations
    assert "self" not in tree.nodes[tree.root].declarations


def test_candidate_in_function_below_an_eval_scope_is_dropped():
    src = 'function f(){ eval(s); function inner(){ var q = "deep"; return q.length; } } var k = "kept";'
    tree, strings, accesses = candidates_of(src)
    inner = next(n for n in tree.nodes if "q" in n.declarations)
    assert not inner.is_dynamic and tree.nodes[inner.parent].is_dynamic
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
    _text, tree, candidates, _summary = front_end(src, file_id, minify=False)
    strings = [src[start:end] for start, end in candidates.strings]
    accesses = [src[dot:end] for dot, end in zip(candidates.accesses.dots, candidates.accesses.ends)]
    return tree, strings, accesses


def test_candidate_in_an_elided_block_before_a_later_eval_is_dropped():
    # the block holds no lexical declaration, so it is no scope; its
    # candidates were read before the eval that makes f dynamic
    src = 'function f(){ if (a) { x.y = "in-block"; } eval(s); } var k = "kept", n = k.length;'
    tree, strings, accesses = candidates_of(src)
    assert [n.kind for n in tree.nodes] == [MODULE, FUNCTION] and tree.nodes[1].is_dynamic
    assert strings == ['"kept"'] and accesses == [".length"]
    # an elided block holding the eval makes its parent dynamic, and with it
    # a kept block read before it
    src = 'function f(){ { let q; o.p = "a-b"; } { eval(s); } } o.r = "c-d";'
    tree, strings, accesses = candidates_of(src)
    assert [n.kind for n in tree.nodes] == [MODULE, FUNCTION, BLOCK]
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
    assert tree.nodes[tree.root].is_dynamic and tree.nodes[1].is_dynamic
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
    sid = tree.root
    while not tree.nodes[sid].is_dynamic:
        inner = [c for c in tree.nodes[sid].children if tree.nodes[c].start <= pos < tree.nodes[c].end]
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
        tree, candidates = front_end(src, file_id, minify=False)[1:3]
        neutral = src
        for pattern, spelling in NEUTRAL:
            neutral = re.sub(pattern, spelling, neutral)
        every = front_end(neutral, file_id, minify=False)[2]
        strings = [c for c in every.strings if not under_dynamic_scope(tree, c[0])]
        accesses = [c for c in access_rows(every.accesses) if not under_dynamic_scope(tree, c[0])]
        assert candidates.strings == strings, file_id
        assert access_rows(candidates.accesses) == accesses, file_id
        dropped += len(every.strings) + len(every.accesses) - len(strings) - len(accesses)
    assert dropped >= 20


# ---- each occurrence is resolved once, when the tree is built ----

def assert_stored_bindings_match_resolve(tree):
    occurrences = tree.occurrences
    assert len(occurrences)
    for name, start, sid, binding in zip(
        occurrences.names, occurrences.starts, occurrences.scope_ids, occurrences.bindings
    ):
        assert binding is tree.resolve(name, sid), (tree.file_id, name, start)


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
    declared = [b for node in tree.nodes for b in node.declarations.values()]
    assert len(declared) == len({id(b) for b in declared}) == 5
    for node in tree.nodes:
        for name, binding in node.declarations.items():
            assert isinstance(binding, Binding)
            assert (binding.scope_id, binding.name) == (node.id, name)
            assert tree.resolve(name, node.id) is binding
            for child in node.children:
                if name not in tree.nodes[child].declarations:
                    assert tree.resolve(name, child) is binding
    # a name read free resolves to the tree's one global Binding, wherever it is read
    console = tree.resolve("console", 0)
    assert console.is_global() and console is tree.resolve("console", 1)
    assert tree.globals == {"console": console}
    # bindings compare by identity, not by their (scope, name) pair
    copy = Binding(0, "x")
    assert copy != tree.nodes[0].declarations["x"]
    assert len({copy, tree.nodes[0].declarations["x"]}) == 2
