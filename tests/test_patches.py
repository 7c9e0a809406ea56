import random

import pytest

from scopeshield.errors import OverlappingPatches
from scopeshield.patches import Patch, emit
from scopeshield.scopes import DECL, REF, SHORTHAND, Binding, Occurrences

from conftest import patched


def naive_apply(source, patches):
    """Independent oracle: apply patches one at a time, end to start."""
    for patch in sorted(patches, key=lambda p: p.start, reverse=True):
        source = source[: patch.start] + patch.replacement + source[patch.end :]
    return source


def test_single_substitution():
    assert patched("var alpha;", [Patch(4, 9, "a")]) == "var a;"


def test_empty_patch_list_is_identity():
    src = "function f() { return 1; }"
    assert patched(src, []) == src


def test_adjacent_patches_match_sequential_oracle():
    src = "abcdef"
    patches = [Patch(0, 2, "X"), Patch(2, 4, "YY")]
    assert patched(src, patches) == naive_apply(src, patches) == "XYYef"


def test_random_patch_sets_match_naive_oracle():
    rng = random.Random(99)
    for _ in range(200):
        src = "".join(rng.choice("abcdefgh ;,()") for _ in range(rng.randrange(5, 60)))
        cuts = sorted(rng.sample(range(len(src) + 1), rng.randrange(2, min(8, len(src)))))
        patches = []
        for lo, hi in zip(cuts, cuts[1:]):
            if rng.random() < 0.5:
                span_hi = rng.randrange(lo, hi + 1)
                patches.append(Patch(lo, span_hi, rng.choice(["", "Z", "QQ"])))
        rng.shuffle(patches)
        assert patched(src, patches) == naive_apply(src, patches)


def test_insertion_patch():
    assert patched("ab", [Patch(1, 1, "X")]) == "aXb"


def test_insertion_before_replacement_at_same_offset():
    assert patched("ab", [Patch(1, 2, "Y"), Patch(1, 1, "X")]) == "aXY"


def test_overlapping_patches_rejected():
    with pytest.raises(OverlappingPatches):
        patched("abcdef", [Patch(0, 3, "x"), Patch(2, 4, "y")])


def test_out_of_range_patch_rejected():
    with pytest.raises(OverlappingPatches):
        patched("ab", [Patch(1, 5, "x")])


# ---- renames read from an occurrence table ----

def occurrence_table(source, rows):
    """An Occurrences table of the (name, start, style, binding) ``rows``."""
    table = Occurrences()
    for name, start, style, binding in rows:
        assert source[start : start + len(name)] == name
        table.add(name, start, 0, style)
        table.bindings.append(binding)
    return table


def rename_as_patches(table, rename_map):
    """Oracle: the renames as one Patch per renamed occurrence."""
    patches = []
    for name, start, style, binding in zip(table.names, table.starts, table.styles, table.bindings):
        new_name = rename_map.get(binding, binding.name)
        if new_name != name:
            text = f"{name}: {new_name}" if style == SHORTHAND else new_name
            patches.append(Patch(start, start + len(name), text))
    return patches


def test_renames_and_shorthands_from_the_occurrence_table():
    src = "var total = 1; var o = {total}; keep(total);"
    total, keep = Binding(0, "total"), Binding(-1, "keep")
    table = occurrence_table(
        src,
        [("total", 4, DECL, total), ("total", 24, SHORTHAND, total),
         ("keep", 32, REF, keep), ("total", 37, REF, total)],
    )
    out = emit(src, [], table, {total: "a"})
    assert out == "var a = 1; var o = {total: a}; keep(a);"


def test_an_insertion_at_an_identifier_start_goes_before_it():
    src = "alpha(beta);"
    alpha, beta = Binding(0, "alpha"), Binding(0, "beta")
    table = occurrence_table(src, [("alpha", 0, REF, alpha), ("beta", 6, REF, beta)])
    rename_map = {alpha: "a", beta: "b"}
    patches = [Patch(6, 6, "["), Patch(0, 0, "var p;\n")]
    assert emit(src, patches, table, rename_map) == "var p;\na([b);"


@pytest.mark.parametrize("span", [(0, 3), (2, 7), (0, 5), (4, 9)])
def test_a_patch_overlapping_a_rename_is_rejected(span):
    src = "alpha.beta;"
    alpha = Binding(0, "alpha")
    table = occurrence_table(src, [("alpha", 0, REF, alpha)])
    with pytest.raises(OverlappingPatches):
        emit(src, [Patch(*span, "x")], table, {alpha: "a"})
    # an occurrence that keeps its name is no edit
    assert emit(src, [Patch(*span, "x")], table, {}) == naive_apply(src, [Patch(*span, "x")])


def test_a_rename_out_of_start_order_is_rejected():
    src = "alpha(beta);"
    alpha, beta = Binding(0, "alpha"), Binding(0, "beta")
    table = occurrence_table(src, [("beta", 6, REF, beta), ("alpha", 0, REF, alpha)])
    with pytest.raises(OverlappingPatches):
        emit(src, [], table, {alpha: "a", beta: "b"})
    # occurrences that keep their names are no edits, in any order
    assert emit(src, [], table, {alpha: "a"}) == "a(beta);"


def test_renames_and_patches_match_the_patch_oracle_on_tables_in_start_order():
    rng = random.Random(7)
    bindings = [Binding(0, name) for name in ("ab", "cd", "efg", "h")]
    for _ in range(200):
        words = [rng.choice(bindings).name for _ in range(rng.randrange(1, 12))]
        src = " ".join(words)
        rows, start = [], 0
        for word in words:
            binding = next(b for b in bindings if b.name == word)
            rows.append((word, start, rng.choice((REF, DECL, SHORTHAND)), binding))
            start += len(word) + 1
        table = occurrence_table(src, rows)
        rename_map = {b: rng.choice(["x", b.name, "yy"]) for b in bindings}
        # insertions at word starts and ends
        edges = sorted({at for name, start, *_ in rows for at in (start, start + len(name))})
        patches = [Patch(at, at, "+") for at in rng.sample(edges, min(3, len(edges)))]
        expected = naive_apply(src, rename_as_patches(table, rename_map) + patches)
        assert emit(src, list(patches), table, rename_map) == expected
