import json
from pathlib import Path

import pytest

from scopeshield.equivalence import (
    TestCase,
    lint_determinism,
    load_cases,
    run_differential,
    save_cases,
    write_verdicts,
)
from scopeshield.errors import EngineNotFound
from scopeshield.pipeline import ObfuscationConfig, obfuscate_project


def project(root, files):
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def test_rename_only_arithmetic_equivalent(tmp_path, node):
    project(tmp_path / "orig", {"m.js": "var sum = 1 + 1;\nconsole.log(sum);"})
    obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "orig"), output_root=str(tmp_path / "obf"))
    )
    verdicts, summary = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")]
    )
    assert summary["equivalence_rate"] == 1.0
    assert verdicts[0]["status"] == "equivalent"


def test_divergence_detected_with_first_diff(tmp_path, node):
    project(tmp_path / "orig", {"m.js": 'console.log("line1");\nconsole.log("same");'})
    project(tmp_path / "obf", {"m.js": 'console.log("line-changed");\nconsole.log("same");'})
    verdicts, summary = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")],
        rename_dump_root=tmp_path / "obf.dumps",
    )
    assert summary["divergent"] == 1
    verdict = verdicts[0]
    assert verdict["status"] == "divergent"
    assert "line 1" in verdict["detail"]
    assert "rename_dump" not in verdict  # no dump was written
    dump = tmp_path / "obf.dumps" / "renames" / "m.js.tsv"
    dump.parent.mkdir(parents=True)
    dump.write_text("m.js#0\tx\ta\n")
    verdicts, _summary = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")],
        rename_dump_root=tmp_path / "obf.dumps",
    )
    assert verdicts[0]["rename_dump"] == str(dump)


def test_capture_bug_detected(tmp_path, node):
    # deliberately broken renaming: inner declaration captures the outer name
    src = (
        "var outer = 1;\n"
        "function f() { var local = 2; function g() { return outer; } return g() + local; }\n"
        "console.log(f());\n"
    )
    broken = (
        "var b = 1;\n"
        "function a() { var b = 2; function c() { return b; } return c() + b; }\n"
        "console.log(a());\n"
    )
    project(tmp_path / "orig", {"m.js": src})
    project(tmp_path / "obf", {"m.js": broken})
    _verdicts, summary = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")]
    )
    assert summary["divergent"] == 1


def test_error_side_reported(tmp_path, node):
    project(tmp_path / "orig", {"m.js": "console.log(1);"})
    project(tmp_path / "obf", {"m.js": "throw new Error('boom');"})
    verdicts, summary = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")]
    )
    assert summary["errors"] == 1
    assert verdicts[0]["detail"].startswith("obfuscated:")


def test_blank_stderr_reports_the_exit_code(tmp_path, node):
    project(tmp_path / "orig", {"m.js": "console.log(1);"})
    project(tmp_path / "obf", {"m.js": 'process.stderr.write("\\n"); process.exitCode = 1;'})
    verdicts, summary = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")]
    )
    assert summary["errors"] == 1
    assert verdicts[0]["detail"] == "obfuscated: exit 1"


def test_timeout_verdict(tmp_path, node):
    project(tmp_path / "orig", {"m.js": "for(;;){}"})
    project(tmp_path / "obf", {"m.js": "for(;;){}"})
    verdicts, _ = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js", timeout_s=1.0)]
    )
    assert verdicts[0]["status"] == "timeout"


def test_normalized_mode_ignores_trailing_whitespace(tmp_path, node):
    project(tmp_path / "orig", {"m.js": 'console.log("a  ");'})
    project(tmp_path / "obf", {"m.js": 'console.log("a");'})
    _v, exact = run_differential(tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")])
    assert exact["divergent"] == 1
    _v, relaxed = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js", mode="normalized")]
    )
    assert relaxed["equivalent"] == 1


def test_relative_roots_resolve_against_invocation_cwd(tmp_path, node, monkeypatch):
    project(tmp_path / "orig", {"m.js": "console.log(7);"})
    project(tmp_path / "obf", {"m.js": "console.log(7);"})
    monkeypatch.chdir(tmp_path)
    _verdicts, summary = run_differential("orig", "obf", [TestCase(entry="m.js")])
    assert summary["equivalence_rate"] == 1.0


def test_determinism_lint():
    assert lint_determinism("var t = Date.now();")
    assert lint_determinism("var r = Math.random();")
    assert lint_determinism("var d = new Date();")
    assert not lint_determinism("var x = 1 + 2;")
    # a visible seed shim makes the primitive acceptable
    shimmed = "Math.random = function(){ return 0.5; };\nvar r = Math.random();"
    assert not lint_determinism(shimmed)


def test_lint_blocks_case_in_harness(tmp_path, node):
    project(tmp_path / "orig", {"m.js": "console.log(Math.random());"})
    project(tmp_path / "obf", {"m.js": "console.log(Math.random());"})
    verdicts, summary = run_differential(
        tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")]
    )
    assert summary["errors"] == 1
    assert "seed shim" in verdicts[0]["detail"]


def test_engine_not_found(tmp_path):
    project(tmp_path / "orig", {"m.js": "1;"})
    project(tmp_path / "obf", {"m.js": "1;"})
    with pytest.raises(EngineNotFound):
        run_differential(
            tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")],
            engine="definitely-not-an-engine {file}",
        )


def test_engine_template_requires_placeholder(tmp_path, node):
    project(tmp_path / "orig", {"m.js": "1;"})
    project(tmp_path / "obf", {"m.js": "1;"})
    with pytest.raises(EngineNotFound):
        run_differential(
            tmp_path / "orig", tmp_path / "obf", [TestCase(entry="m.js")], engine="node"
        )


def test_case_manifest_round_trip(tmp_path):
    cases = [TestCase(entry="a/main.js", args=["1"], stdin="x", mode="normalized", timeout_s=5.0)]
    path = tmp_path / "cases.json"
    save_cases(cases, path)
    loaded = load_cases(path)
    assert loaded == cases


def test_verdicts_jsonl(tmp_path):
    out = write_verdicts(
        [{"entry": "a.js", "status": "equivalent", "detail": ""}], tmp_path / "v.jsonl"
    )
    lines = Path(out).read_text().strip().splitlines()
    assert json.loads(lines[0])["status"] == "equivalent"
