import os
import random
import zlib

import pytest

from scopeshield.errors import ZeroInput
from scopeshield.metrics import (
    cyclomatic_complexity,
    measure_tree_pair,
    nid,
    size_inflation,
)
from scopeshield.pipeline import front_end
from scopeshield.scopes import FUNCTION

from conftest import module_names, patched


def test_inflation_basic():
    assert size_inflation(100, 120) == pytest.approx(20.0)


def test_inflation_identity_is_zero():
    src = "var a = 1;"
    assert size_inflation(len(src), len(patched(src, []))) == 0.0


def test_inflation_zero_input_rejected():
    with pytest.raises(ZeroInput):
        size_inflation(0, 10)


def test_inflation_two_decimal_exactness():
    assert round(size_inflation(300, 371), 2) == 23.67


# ---- cyclomatic complexity ----

def complexity_of_function(src):
    """The McCabe number of the one function ``src`` declares: the
    program's number less the 1 of the module body."""
    _text, tree, _candidates, _summary = front_end(src, "t.js")
    assert module_names(tree) == ["f"]
    assert list(tree.kinds).count(FUNCTION) == 1
    return cyclomatic_complexity(src) - 1


def test_straight_line_function_is_one():
    assert complexity_of_function("function f(){ var a = 1; return a + 2; }") == 1


def test_if_else_is_two_paths():
    # oracle: enumerate the paths of the two-armed function by hand
    src = "function f(x){ if (x > 0) { return 1; } else { return 2; } }"
    paths = 2
    assert complexity_of_function(src) == paths


def test_decision_point_kinds_counted():
    src = (
        "function f(a, b){\n"
        "  for (var i = 0; i < a; i++) { b += i; }\n"
        "  while (b > 10) { b -= 1; }\n"
        "  try { b = a ? b : -b; } catch (e) { b = 0; }\n"
        "  switch (b) { case 1: return 1; case 2: return 2; default: return a && b || 0; }\n"
        "}"
    )
    # 1 base + for + while + catch + ternary + 2 cases + && + ||
    assert complexity_of_function(src) == 1 + 1 + 1 + 1 + 1 + 2 + 1 + 1


def test_program_value_sums_functions_and_module_body():
    src = "if (flag) { run(); }\nfunction f(){ if (x) y(); }\nfunction g(){}"
    assert cyclomatic_complexity(src) == (1 + 1) + (1 + 1) + 1


def test_complexity_invariant_under_renaming():
    src = "function walker(tree){ if (tree.left) { return walker(tree.left); } return tree; }"
    renamed = src.replace("walker", "a").replace("tree", "b")
    assert cyclomatic_complexity(src) == cyclomatic_complexity(renamed)


# ---- NID ----

def test_nid_worked_formula_example():
    sizes = {}

    def fake_compressor(data):
        return b"\0" * sizes[data]

    x, y = b"x-bytes", b"y-bytes"
    sizes[x] = 100
    sizes[y] = 120
    sizes[x + y] = 180
    assert nid(x, y, fake_compressor) == pytest.approx((180 - 100) / 120)
    assert round(nid(x, y, fake_compressor), 4) == 0.6667


def test_nid_identical_inputs_near_zero():
    from scalegen import synth_module

    text = synth_module(3, 8192).encode()
    assert len(text) >= 4096
    assert nid(text, text) <= 0.1


def test_nid_independent_random_blobs_near_one():
    rng = random.Random(4)
    x = bytes(rng.randrange(256) for _ in range(65536))
    y = bytes(rng.randrange(256) for _ in range(65536))
    assert nid(x, y) >= 0.95


def test_nid_roughly_symmetric():
    rng = random.Random(17)
    x = ("var alpha = 1;\n" * 400).encode()
    y = bytes(rng.randrange(256) for _ in range(3000)) + x[:2000]
    assert abs(nid(x, y) - nid(y, x)) <= 0.05


def test_report_records_the_compressor_it_used(tmp_path):
    for side, text in (("orig", "var alpha = 1;"), ("obf", "var a=1;")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "a.js").write_text(text)
    pair = (tmp_path / "orig", tmp_path / "obf")
    assert measure_tree_pair(*pair).aggregate()["compressor"] == "lzma"

    def zlib_compressor(data):
        return zlib.compress(data, 9)

    report = measure_tree_pair(*pair, compressor=zlib_compressor)
    assert report.aggregate()["compressor"] == "zlib"
    assert "aggregate NID (zlib)" in report.to_table()
