"""The benchmark's workloads at a twentieth of their size: each obfuscates
with no JS file copied, to the same bytes at workers 1 and 2, and its entry
prints under node what the original prints. These are the checks the
benchmark makes on every run, so a change that breaks them fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

from scopeshield.pipeline import ObfuscationConfig, obfuscate_project

from conftest import run_node

GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
SCALE = 0.05
SEED = 1


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_gen()


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_a_small_workload_obfuscates_and_runs_the_same(tmp_path, node, workload):
    src = tmp_path / "src"
    info = gen.GENERATORS[workload](src, SEED, SCALE)
    trees = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        report = obfuscate_project(ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers))
        assert report["errors"] == [] and report["warnings"] == []
        assert report["files_transformed"] == len(info["js_files"])
        trees.append(_tree(out))
    assert trees[0] == trees[1]
    expected = run_node(path=src / info["entry"], cwd=src)
    assert expected
    assert run_node(path=tmp_path / "out1" / info["entry"], cwd=tmp_path / "out1") == expected
