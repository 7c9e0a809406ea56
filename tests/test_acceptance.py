"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy shared artifacts (corpora, obfuscated trees) are built once per
session. Criterion 5's absolute-speedup half needs real multicore hardware
and is skipped, with the measured core count in the reason, when the host
cannot provide it; its scaling-ratio half runs everywhere.
"""

import os
import random
import shutil
import time
from itertools import islice, product
from pathlib import Path

import pytest

from scopeshield.equivalence import TestCase, run_differential
from scopeshield.metrics import lzma_compressor, measure_tree_pair, nid
from scopeshield.patches import emit
from scopeshield.pipeline import ObfuscationConfig, front_end, obfuscate_project
from scopeshield.renamer import check_safety, name_sequence, rename_tree

from conftest import COUNT_FROM_CHAR_CODE, declared_bindings, minified, rename_cost, run_node
from corpusgen import build_corpus
from scalegen import generate_scaling_corpus, synth_module
from treegen import random_scope_tree

CORES = len(os.sched_getaffinity(0))


def report(line):
    print(f"\n[acceptance] {line}")


# ---- shared corpora ----

@pytest.fixture(scope="session")
def equiv_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("equiv")
    src = root / "orig"
    cases = build_corpus(src, count=200)
    obf = root / "obf"
    obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(obf), workers=2)
    )
    return src, obf, [TestCase(entry=c["entry"]) for c in cases]


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory):
    """Minified inputs spanning 50 KB to 5 MB."""
    root = tmp_path_factory.mktemp("desk")
    src = root / "orig"
    src.mkdir()
    for idx, size in enumerate((50 * 1024, 150 * 1024, 600 * 1024, 5 * 1024 * 1024)):
        text = minified(synth_module(7000 + idx, size))
        (src / f"app_{idx}.js").write_text(text, encoding="utf-8")
    obf = root / "obf"
    obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(obf), workers=2)
    )
    return src, obf


@pytest.fixture(scope="session")
def desk_metrics(desk_corpus):
    src, obf = desk_corpus
    return measure_tree_pair(src, obf, with_complexity=False)


# ---- criterion 1: semantic equivalence ----

def test_c1_semantic_equivalence(equiv_corpus, node):
    src, obf, cases = equiv_corpus
    assert len(cases) >= 200
    started = time.perf_counter()
    verdicts, summary = run_differential(src, obf, cases, workers=max(CORES, 4))
    elapsed = time.perf_counter() - started
    failures = [v for v in verdicts if v["status"] != "equivalent"]
    assert failures == [], f"non-equivalent cases: {failures[:5]}"
    assert summary["equivalence_rate"] == 1.0
    report(
        f"criterion 1 (semantic equivalence): PASS - {summary['equivalent']}/"
        f"{summary['cases']} equivalent in {elapsed:.0f}s"
    )


# ---- criterion 2: renaming safety oracle ----

def test_c2_safety_over_random_scope_trees():
    rng = random.Random(0xC0FFEE)
    trees = 10_000
    for index in range(trees):
        tree = random_scope_tree(rng, max_depth=6, max_bindings=30)
        rename_map = rename_tree(tree)
        violations = check_safety(tree, rename_map)
        assert violations == [], f"tree #{index}: {violations[:3]}"
    report(f"criterion 2 (safety oracle): PASS - {trees} random trees, zero violations")


def test_c2_oracle_flags_capture_when_tightening_disabled(node):
    src = (
        "var outer = 1;\n"
        "function f() { var local = 2; function g() { return outer; } return g() + local; }\n"
        "console.log(f());\n"
    )
    tree = front_end(src, "cap.js")[1]
    naive = rename_tree(tree, subtree_refs=False)
    violations = check_safety(tree, naive)
    assert violations, "check_safety must flag the hand-built capture"
    assert run_node(code=emit(src, [], tree.occurrences, tree.bindings.names, naive)) != run_node(code=src)
    tightened = rename_tree(tree, subtree_refs=True)
    assert check_safety(tree, tightened) == []
    report(
        "criterion 2 (oracle sensitivity): PASS - capture counterexample "
        f"flagged ({len(violations)} violation(s)) with tightening disabled"
    )


# ---- criterion 3: greedy cost optimality at small scale ----

def brute_force_min_cost(tree, alphabet="ab", pool_size=6):
    bindings = declared_bindings(tree)
    pool = list(islice(name_sequence(alphabet=alphabet), pool_size))
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


def test_c3_greedy_matches_brute_force_minimum():
    rng = random.Random(31337)
    checked = 0
    while checked < 150:
        tree = random_scope_tree(rng, max_depth=3, max_bindings=4)
        bindings = len(declared_bindings(tree))
        if not 1 <= bindings <= 4:
            continue
        greedy = rename_tree(tree, alphabet="ab")
        assert check_safety(tree, greedy) == []
        minimum = brute_force_min_cost(tree)
        assert rename_cost(tree, greedy) == minimum, (
            f"greedy cost {rename_cost(tree, greedy)} != brute-force minimum {minimum} "
            f"on {bindings} bindings"
        )
        checked += 1
    report(f"criterion 3 (greedy optimality): PASS - {checked} programs, zero violations")


# ---- criterion 4: code size inflation ----

def test_c4_inflation_bounds(desk_corpus, desk_metrics, tmp_path_factory):
    src, obf = desk_corpus
    aggregate = desk_metrics.aggregate()
    assert aggregate["inflation_percent"] <= 100.0, desk_metrics.to_table()

    rename_only_out = tmp_path_factory.mktemp("desk_rename") / "obf"
    obfuscate_project(
        ObfuscationConfig(
            input_root=str(src),
            output_root=str(rename_only_out),
            workers=2,
            encode_strings=False,
            rewrite_properties=False,
        )
    )
    for path in sorted(Path(src).glob("*.js")):
        renamed = (rename_only_out / path.name).stat().st_size
        original = path.stat().st_size
        assert renamed <= original, f"{path.name}: rename-only grew {original} -> {renamed}"
    report(
        "criterion 4 (inflation): PASS - all-transforms aggregate "
        f"{aggregate['inflation_percent']:.2f}% <= 100%, rename-only never grows"
    )


# ---- criterion 5: parallel scaling ----

@pytest.fixture(scope="session")
def scaling_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("scaling")
    base = root / "base"
    written = generate_scaling_corpus(base, 10 * 1024 * 1024, seed=5)
    assert written >= 10 * 1024 * 1024
    return root, base


def _timed_run(src, out, workers):
    started = time.perf_counter()
    obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
    )
    return time.perf_counter() - started


@pytest.mark.skipif(
    CORES < 8,
    reason=f"speedup>=3x at 8 workers requires an 8-core host; this host has {CORES} core(s)",
)
def test_c5_speedup_on_eight_cores(scaling_corpus):
    root, base = scaling_corpus
    t1 = _timed_run(base, root / "w1", 1)
    t8 = _timed_run(base, root / "w8", 8)
    speedup = t1 / t8
    assert speedup >= 3.0, f"speedup {speedup:.2f}x below 3x (t1={t1:.1f}s t8={t8:.1f}s)"
    report(f"criterion 5a (8-worker speedup): PASS - {speedup:.2f}x (t1={t1:.1f}s, t8={t8:.1f}s)")


def test_c5_near_linear_growth(scaling_corpus, tmp_path_factory):
    root, base = scaling_corpus
    big = tmp_path_factory.mktemp("scaling4x") / "corpus"
    generate_scaling_corpus(big, 40 * 1024 * 1024, seed=5)
    workers = min(8, max(CORES, 1))
    # the sizes alternate, twice each, and the fastest run of each counts,
    # so a load that comes and goes on the host weighs on both sizes alike
    times = {base: [], big: []}
    for src in (base, big, base, big):
        out = root / "ratio_out"
        shutil.rmtree(out, ignore_errors=True)
        times[src].append(_timed_run(src, out, workers))
    t_base, t_big = min(times[base]), min(times[big])
    ratio = t_big / t_base
    assert ratio <= 6.0, f"time(4x)/time(1x) = {ratio:.2f} exceeds 6"
    report(
        f"criterion 5b (near-linear growth): PASS - 4x corpus took {ratio:.2f}x "
        f"({t_base:.1f}s -> {t_big:.1f}s at {workers} workers)"
    )


# ---- criterion 6: determinism ----

def test_c6_outputs_identical_across_worker_counts(equiv_corpus, tmp_path_factory):
    src, reference_out, _cases = equiv_corpus
    reference = {
        p.relative_to(reference_out).as_posix(): p.read_bytes()
        for p in sorted(Path(reference_out).rglob("*"))
        if p.is_file()
    }
    diffs = 0
    for workers in (1, 4, 8):
        out = tmp_path_factory.mktemp(f"det{workers}") / "obf"
        obfuscate_project(
            ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
        )
        tree = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(Path(out).rglob("*"))
            if p.is_file()
        }
        assert tree == reference, f"workers={workers} produced different bytes"
        diffs += sum(1 for k in tree if tree[k] != reference[k])
    assert diffs == 0
    report("criterion 6 (determinism): PASS - worker counts 1,2,4,8 byte-identical, zero diffs")


# ---- criterion 7: memoization ----

def test_c7_decode_runs_exactly_once(tmp_path, node):
    src_root = tmp_path / "src"
    src_root.mkdir()
    (src_root / "loop.js").write_text(
        'function banner() { return "memoized-payload"; }\n'
        "var sink = 0;\n"
        "for (var i = 0; i < 1000; i++) { sink += banner().length; }\n"
        "console.log(sink);\n"
    )
    out = tmp_path / "obf"
    obfuscate_project(ObfuscationConfig(input_root=str(src_root), output_root=str(out), workers=1))
    # the decoder makes one String.fromCharCode call per character it
    # decodes: one decode of the table is 16 calls, one per call site 16,000
    run = tmp_path / "run.js"
    run.write_text(COUNT_FROM_CHAR_CODE + (out / "loop.js").read_text(), encoding="utf-8")
    sink, calls = run_node(path=run).split()
    assert sink == str(1000 * len("memoized-payload"))
    assert calls == str(len("memoized-payload")), f"{calls} fromCharCode calls for 1000 call sites"
    report("criterion 7 (memoization): PASS - 1000-iteration loop, exactly 1 table decode")


# ---- criterion 8: NID ----

def test_c8_nid_values(desk_corpus, desk_metrics):
    src, _obf = desk_corpus
    aggregate = desk_metrics.aggregate()
    assert aggregate["nid"] >= 0.75, desk_metrics.to_table()

    for path in sorted(Path(src).glob("*.js")):
        data = path.read_bytes()
        if len(data) >= 4096:
            self_distance = nid(data, data, lzma_compressor)
            assert self_distance <= 0.1, f"nid(x,x) = {self_distance:.3f} for {path.name}"

    sizes = {b"x": 100, b"y": 120, b"xy": 180}

    def fake_compressor(data):
        return b"\0" * sizes[data]

    worked = nid(b"x", b"y", fake_compressor)
    assert round(worked, 4) == 0.6667
    report(
        f"criterion 8 (NID): PASS - aggregate {aggregate['nid']:.3f} >= 0.75, "
        "self-distance <= 0.1, worked example 0.6667 exact"
    )


# ---- criterion 9: exclusions ----

def test_c9_out_of_scope_items_documented():
    """13-hour baseline comparisons, 22 GB memory envelopes, LLM prediction
    accuracy and hybrid symbolic-execution coverage are full-scale
    experiments excluded by design; suites 1-8 substitute at desk scale."""
    report("criterion 9 (exclusions): PASS - full-scale-only experiments excluded by design")
