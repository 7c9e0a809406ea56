import gc
import random
import tracemalloc
from array import array
from itertools import islice, product

import pytest

from scopeshield.errors import OrderViolation
from scopeshield.patches import emit
from scopeshield.pipeline import front_end
from scopeshield.renamer import (
    ALPHABET,
    ancestor_references,
    check_safety,
    dump_lines,
    forbidden_set,
    frozen_names,
    name_sequence,
    rename_tree,
)
from scopeshield.scopes import GLOBAL_SCOPE, IMPORT
from scopeshield.tokens import RESERVED_WORDS

from conftest import declared_bindings, minified, rename_cost, run_node
from scalegen import synth_module
from treegen import random_scope_tree


def tree_of(src, file_id="t.js"):
    return front_end(src, file_id)[1]


def declared(tree, scope_id, name):
    """The id of the binding scope ``scope_id`` holds for ``name``."""
    return tree.declarations[scope_id][name]


def outputs_of(tree, renamed):
    """Output names: the ``renamed`` {binding id: name}, every other binding
    unrenamed (None) or, for a global, its name."""
    outputs = [None] * len(tree.bindings)
    for name, bid in tree.globals.items():
        outputs[bid] = name
    for bid, name in renamed.items():
        outputs[bid] = name
    return outputs


def identity(tree, renamed=()):
    """Output names: each binding's own, but for the ``renamed`` {binding
    id: name}."""
    outputs = list(tree.bindings.names)
    for bid, name in dict(renamed).items():
        outputs[bid] = name
    return outputs


# ---- name pool ----

def pool_names(size, excluded=frozenset(), alphabet=ALPHABET):
    """The first ``size`` names of the filtered pool."""
    return list(islice(name_sequence(excluded, alphabet), size))


def test_pool_first_name():
    assert pool_names(1) == ["a"]


def test_pool_rolls_to_two_letters():
    assert pool_names(27)[25:] == ["z", "aa"]


def test_pool_skips_reserved_words():
    seq = name_sequence()
    first_1000 = [next(seq) for _ in range(1000)]
    assert not set(first_1000) & {"do", "if", "in", "for", "new", "var", "let", "try"}
    assert not set(first_1000) & RESERVED_WORDS
    assert len(set(first_1000)) == 1000


def test_pool_lengths_non_decreasing():
    seq = name_sequence()
    lengths = [len(next(seq)) for _ in range(800)]
    assert lengths == sorted(lengths)


def test_pool_respects_excluded():
    assert pool_names(1, excluded={"a", "b"}) == ["c"]


# ---- forbidden sets ----

def test_forbidden_empty_for_root_without_markers():
    tree = tree_of("var a = 1;")
    assert forbidden_set(tree.root, outputs_of(tree, {}), ancestor_references(tree)) == set()


def test_forbidden_contains_renamed_ancestor_referenced_inside():
    tree = tree_of("var outer = 1; function f(){ return outer; }")
    outputs = outputs_of(tree, {declared(tree, 0, "outer"): "a", declared(tree, 0, "f"): "b"})
    fn_scope = 1
    assert "a" in forbidden_set(fn_scope, outputs, ancestor_references(tree))


def test_unreferenced_ancestor_name_is_reusable():
    src = "var outer = 1; function f(){ var mine = 2; return mine; } outer = f();"
    tree = tree_of(src)
    rmap = rename_tree(tree)
    # neither module binding is referenced inside f, so f restarts at "a"
    # even though a module binding already took it
    assert rmap[declared(tree, 1, "mine")] == "a"
    assert "a" in {rmap[declared(tree, 0, "f")], rmap[declared(tree, 0, "outer")]}
    assert check_safety(tree, rmap) == []


def test_order_violation_when_ancestor_unrenamed():
    tree = tree_of("var outer = 1; function f(){ return outer; }")
    with pytest.raises(OrderViolation):
        forbidden_set(1, outputs_of(tree, {}), ancestor_references(tree))


# ---- renaming ----

def test_params_then_vars_get_shortest_names():
    tree = tree_of("function f(alpha){var beta=alpha; return beta}")
    rmap = rename_tree(tree)
    assert rmap[declared(tree, 1, "alpha")] == "a"
    assert rmap[declared(tree, 1, "beta")] == "b"
    assert rmap[declared(tree, 0, "f")] == "a"  # module level, not exported
    assert check_safety(tree, rmap) == []


def test_sibling_functions_reuse_the_same_short_name():
    tree = tree_of("function f(){ var one; } function g(){ var two; }")
    rmap = rename_tree(tree)
    assert rmap[declared(tree, 1, "one")] == "a"
    assert rmap[declared(tree, 2, "two")] == "a"


def test_dynamic_scope_keeps_names():
    tree = tree_of("function f(){ var secret = 1; return eval('secret'); }")
    rmap = rename_tree(tree)
    assert rmap[declared(tree, 1, "secret")] == "secret"
    assert rmap[declared(tree, 0, "f")] == "f"  # visible at the eval


def test_frozen_module_names_and_allowlist():
    tree = tree_of("var keep = 1; var ren = 2; console.log(keep + ren);")
    rmap = rename_tree(tree, frozen_module_names={"keep"}, allowlist={"console"})
    assert rmap[declared(tree, 0, "keep")] == "keep"
    assert rmap[declared(tree, 0, "ren")] == "a"
    assert check_safety(tree, rmap) == []


# (file, source, its frozen names): a script keeps every module-level
# declaration, a module its export locals; a name read free is no
# declaration, and allowlisted names are no exception
FROZEN_NAMES = [
    pytest.param(
        "s.js", "var counter = 1; function helper() {}",
        {"counter": "script global", "helper": "script global"}, id="script-declarations",
    ),
    pytest.param(
        "r.js", "GameGlobal.level = 1; console.log(GameGlobal, Shared);", {}, id="script-reading-free-names",
    ),
    pytest.param(
        "w.js", "var Math = 1; var console = 2;",
        {"Math": "script global", "console": "script global"}, id="script-declaring-allowlisted-names",
    ),
    pytest.param(
        "e.js", "export var api = 1; var Registry = {}; export function tool() {}",
        {"api": "export", "tool": "export"}, id="module-export-locals",
    ),
    pytest.param("b.js", "var impl = 1;\nexport {impl as api};", {"impl": "export"}, id="export-under-local-name"),
    pytest.param(
        "i.js", 'import {api} from "./e.js";\nvar local = api;\nconsole.log(local);', {}, id="module-without-exports",
    ),
]


@pytest.mark.parametrize("file_id, src, frozen", FROZEN_NAMES)
def test_frozen_names_follow_from_the_file_alone(file_id, src, frozen):
    _gaps, tree, _candidates, summary = front_end(src, file_id)
    assert frozen_names(tree, summary) == frozen
    # the renamer keeps exactly these module-level names and the imports
    outputs = rename_tree(tree, frozen_module_names=frozen_names(tree, summary), allowlist={"console"})
    root = tree.declarations[tree.root] or {}
    kept = {name for name, bid in root.items() if outputs[bid] == name}
    imports = {name for name, bid in root.items() if tree.bindings.categories[bid] == IMPORT}
    assert kept == set(frozen) | imports
    assert check_safety(tree, outputs) == []


def test_a_body_declaration_takes_no_parameter_name():
    # p is not read in the body, yet v may not take its name: a body var of
    # a parameter's output name would start from the parameter's value
    tree = tree_of("function f(p, q = 1) { var v; return v + q; }")
    params, body = tree.declarations[1], tree.declarations[2]
    outputs = rename_tree(tree)
    assert outputs[body["v"]] not in {outputs[bid] for bid in params.values()}
    assert check_safety(tree, outputs) == []
    bad = list(outputs)
    bad[body["v"]] = outputs[params["p"]]
    assert [v.reason for v in check_safety(tree, bad)] == [f"two declarations map to {outputs[params['p']]!r}"]


def test_deterministic():
    src = "function f(a1){var b1; function g(){let c1; return a1;} return g()+b1;}"
    tree1, tree2 = tree_of(src), tree_of(src)
    m1 = rename_tree(tree1)
    m2 = rename_tree(tree2)
    assert dump_lines(tree1, m1) == dump_lines(tree2, m2)
    assert dump_lines(tree1, m1)[:2] == ["t.js#0\tf\ta", "t.js#1\ta1\ta"]


# ---- safety oracle ----

def test_identity_map_is_safe():
    tree = tree_of("var a = 1; function f(b){ return a + b; }")
    assert check_safety(tree, identity(tree)) == []


def test_capture_is_flagged():
    # outer x renamed to "a" while the inner scope declares "a" and still
    # references x: the reference now resolves to the inner declaration
    tree = tree_of("var x = 1; function f(){ var y = 2; return x + y; }")
    bad = identity(tree, {declared(tree, 0, "x"): "a", declared(tree, 1, "y"): "a"})
    violations = check_safety(tree, bad)
    assert violations and any("captured" in v.reason for v in violations)


def test_non_injective_scope_is_flagged():
    tree = tree_of("var p = 1; var q = 2; console.log(p + q);")
    bad = identity(tree, {declared(tree, 0, "p"): "a", declared(tree, 0, "q"): "a"})
    violations = check_safety(tree, bad)
    assert any("two declarations" in v.reason for v in violations)


def test_safety_verdicts_do_not_depend_on_occurrence_order():
    # the oracle keeps maps only for the open scope chain; occurrences out
    # of source order make it leave scopes and meet them again
    rng = random.Random(23)
    for _ in range(200):
        tree = random_scope_tree(rng)
        bad = rename_tree(tree)
        for bid in rng.sample(range(len(bad)), min(3, len(bad))):
            if tree.bindings.scope_ids[bid] != GLOBAL_SCOPE:
                bad[bid] = rng.choice("abc")
        expected = sorted(map(repr, check_safety(tree, bad)))
        occ = tree.occurrences
        rows = list(zip(occ.starts, occ.scope_ids, occ.bindings))
        rng.shuffle(rows)
        occ.starts, occ.scope_ids, occ.bindings = (array("i", column) for column in zip(*rows))
        assert sorted(map(repr, check_safety(tree, bad))) == expected


def test_safety_check_memory_follows_nesting_not_bindings():
    # check_safety's own traced peak on a 256 KB minified module: 1.04 B
    # per input byte with every binding indexed by output name, 0.16 with
    # maps for the open scope chain only
    text = minified(synth_module(5, 256 * 1024))
    _gaps, tree, _candidates, summary = front_end(text, "m.js")
    outputs = rename_tree(tree, frozen_module_names=frozen_names(tree, summary))
    gc.collect()
    tracemalloc.start()
    try:
        violations = check_safety(tree, outputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == [] and peak / len(text) < 0.4


def test_naive_visibility_rule_creates_capture_caught_by_oracle():
    # the classic shadow-capture gap: f itself never references outer, only
    # the nested g does, so the naive rule lets f's local take outer's name
    src = (
        "var outer = 1;\n"
        "function f() { var local = 2; function g() { return outer; } return g() + local; }\n"
        "console.log(f());\n"
    )
    tree = tree_of(src)
    naive = rename_tree(tree, subtree_refs=False)
    violations = check_safety(tree, naive)
    assert violations, "oracle must flag the capture the naive rule produces"
    tight = rename_tree(tree, subtree_refs=True)
    assert check_safety(tree, tight) == []
    # and the damage is real: the naive output computes a different value
    out_naive = run_node(code=emit(src, [], tree.occurrences, tree.bindings.names, naive))
    out_tight = run_node(code=emit(src, [], tree.occurrences, tree.bindings.names, tight))
    original = run_node(code=src)
    assert out_tight == original
    assert out_naive != original


def test_renamer_output_safe_on_random_trees():
    rng = random.Random(4242)
    for _ in range(300):
        tree = random_scope_tree(rng)
        rmap = rename_tree(tree)
        assert check_safety(tree, rmap) == []


# ---- greedy optimality ----

def brute_force_min_cost(tree, alphabet="ab", pool_size=8):
    """Enumerate every safe assignment from a finite pool; independent of the
    greedy path."""
    bindings = declared_bindings(tree)
    pool = pool_names(pool_size, alphabet=alphabet)
    candidate = list(tree.bindings.names)
    best = None
    for combo in product(pool, repeat=len(bindings)):
        for bid, name in zip(bindings, combo):
            candidate[bid] = name
        if check_safety(tree, candidate):
            continue
        total = rename_cost(tree, candidate)
        if best is None or total < best:
            best = total
    return best


def test_greedy_matches_brute_force_on_small_trees():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        tree = random_scope_tree(rng, max_depth=3, max_bindings=4)
        n_bindings = len(declared_bindings(tree))
        if not 1 <= n_bindings <= 4:
            continue
        greedy = rename_tree(tree, alphabet="ab")
        assert check_safety(tree, greedy) == []
        greedy_cost = rename_cost(tree, greedy)
        oracle = brute_force_min_cost(tree)
        assert oracle is not None
        assert greedy_cost == oracle, f"greedy {greedy_cost} != brute force {oracle}"
        checked += 1
