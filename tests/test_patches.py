import random

import pytest

from scopeshield.errors import OverlappingPatches
from scopeshield.patches import emit
from scopeshield.scopes import DECL, REF, SHORTHAND, Occurrences

from conftest import edits, patched


def naive_apply(source, rows):
    """Independent oracle: apply (start, end, text) rows one at a time, end
    to start."""
    for start, end, text in sorted(rows, key=lambda row: row[0], reverse=True):
        source = source[:start] + text + source[end:]
    return source


def test_single_substitution():
    assert patched("var alpha;", [(4, 9, "a")]) == "var a;"


def test_empty_patch_list_is_identity():
    src = "function f() { return 1; }"
    assert patched(src, []) == src


def test_adjacent_patches_match_sequential_oracle():
    src = "abcdef"
    rows = [(0, 2, "X"), (2, 4, "YY")]
    assert patched(src, rows) == naive_apply(src, rows) == "XYYef"


def test_random_patch_sets_match_naive_oracle():
    rng = random.Random(99)
    for _ in range(200):
        src = "".join(rng.choice("abcdefgh ;,()") for _ in range(rng.randrange(5, 60)))
        cuts = sorted(rng.sample(range(len(src) + 1), rng.randrange(2, min(8, len(src)))))
        rows = []
        for lo, hi in zip(cuts, cuts[1:]):
            if rng.random() < 0.5:
                span_hi = rng.randrange(lo, hi + 1)
                rows.append((lo, span_hi, rng.choice(["", "Z", "QQ"])))
        rng.shuffle(rows)
        assert patched(src, rows) == naive_apply(src, rows)


def test_edit_tables_are_merged_in_start_order():
    # each table in start order, the tables interleaved in the text
    rng = random.Random(5)
    for _ in range(100):
        src = "".join(rng.choice("abc;") for _ in range(40))
        spans = sorted(rng.sample(range(40), 12))
        rows = [(at, at + 1, rng.choice(["", "X", "YY"])) for at in spans]
        tables = [[], [], []]
        for row in rows:
            rng.choice(tables).append(row)
        out = emit(src, [edits(*table) for table in tables], Occurrences(), [], [])
        assert out == naive_apply(src, rows)


def test_insertion_patch():
    assert patched("ab", [(1, 1, "X")]) == "aXb"


def test_insertion_before_replacement_at_same_offset():
    assert patched("ab", [(1, 2, "Y"), (1, 1, "X")]) == "aXY"


def test_overlapping_patches_rejected():
    with pytest.raises(OverlappingPatches):
        patched("abcdef", [(0, 3, "x"), (2, 4, "y")])


def test_a_table_out_of_start_order_is_rejected():
    with pytest.raises(OverlappingPatches):
        emit("abcdef", [edits((3, 4, "x"), (0, 1, "y"))], Occurrences(), [], [])


def test_out_of_range_patch_rejected():
    with pytest.raises(OverlappingPatches):
        patched("ab", [(1, 5, "x")])


# ---- renames read from an occurrence table ----

def occurrence_table(source, rows):
    """An Occurrences table of the (name, start, style, binding id) ``rows``,
    and the name of each binding id."""
    table = Occurrences()
    names = {}
    for name, start, style, binding in rows:
        assert source[start : start + len(name)] == name
        assert names.setdefault(binding, name) == name
        table.add(start, 0, style)
        table.bindings.append(binding)
    return table, [names.get(binding) for binding in range(max(names, default=-1) + 1)]


def rename_rows(table, names, outputs):
    """Oracle: the renames as one (start, end, text) row per renamed
    occurrence."""
    rows = []
    for start, style, binding in zip(table.starts, table.styles, table.bindings):
        name, new_name = names[binding], outputs[binding]
        if new_name != name:
            text = f"{name}: {new_name}" if style == SHORTHAND else new_name
            rows.append((start, start + len(name), text))
    return rows


def test_renames_and_shorthands_from_the_occurrence_table():
    src = "var total = 1; var o = {total}; keep(total);"
    total, keep = 0, 1  # binding ids
    table, names = occurrence_table(
        src,
        [("total", 4, DECL, total), ("total", 24, SHORTHAND, total),
         ("keep", 32, REF, keep), ("total", 37, REF, total)],
    )
    out = emit(src, [], table, names, ["a", "keep"])
    assert out == "var a = 1; var o = {total: a}; keep(a);"


def test_an_insertion_at_an_identifier_start_goes_before_it():
    src = "alpha(beta);"
    alpha, beta = 0, 1
    table, names = occurrence_table(src, [("alpha", 0, REF, alpha), ("beta", 6, REF, beta)])
    rows = [(6, 6, "["), (0, 0, "var p;\n")]
    assert emit(src, [edits(row) for row in rows], table, names, ["a", "b"]) == "var p;\na([b);"


@pytest.mark.parametrize("span", [(0, 3), (2, 7), (0, 5), (4, 9)])
def test_a_patch_overlapping_a_rename_is_rejected(span):
    src = "alpha.beta;"
    table, names = occurrence_table(src, [("alpha", 0, REF, 0)])
    row = (*span, "x")
    with pytest.raises(OverlappingPatches):
        emit(src, [edits(row)], table, names, ["a"])
    # an occurrence that keeps its name is no edit
    assert emit(src, [edits(row)], table, names, ["alpha"]) == naive_apply(src, [row])


def test_a_rename_out_of_start_order_is_rejected():
    src = "alpha(beta);"
    alpha, beta = 0, 1
    table, names = occurrence_table(src, [("beta", 6, REF, beta), ("alpha", 0, REF, alpha)])
    with pytest.raises(OverlappingPatches):
        emit(src, [], table, names, ["a", "b"])
    # occurrences that keep their names are no edits, in any order
    assert emit(src, [], table, names, ["a", "beta"]) == "a(beta);"


def test_renames_and_patches_match_the_patch_oracle_on_tables_in_start_order():
    rng = random.Random(7)
    names = ("ab", "cd", "efg", "h")  # the name of each binding id
    for _ in range(200):
        words = [rng.choice(names) for _ in range(rng.randrange(1, 12))]
        src = " ".join(words)
        rows, start = [], 0
        for word in words:
            rows.append((word, start, rng.choice((REF, DECL, SHORTHAND)), names.index(word)))
            start += len(word) + 1
        table, _names = occurrence_table(src, rows)
        outputs = [rng.choice(["x", name, "yy"]) for name in names]
        # insertions at word starts and ends
        edges = sorted({at for name, start, *_ in rows for at in (start, start + len(name))})
        insertions = [(at, at, "+") for at in sorted(rng.sample(edges, min(3, len(edges))))]
        expected = naive_apply(src, rename_rows(table, names, outputs) + insertions)
        assert emit(src, [edits(*insertions)], table, names, outputs) == expected
