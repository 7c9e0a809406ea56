import gc
import json
import subprocess
import time
from pathlib import Path

import pytest

import scopeshield.pipeline as pipeline
from scopeshield.bench import synth_module
from scopeshield.errors import FatalConfigError
from scopeshield.lexer import tokenize
from scopeshield.minify import minify
from scopeshield.parser import parse_ast
from scopeshield.pipeline import (
    ObfuscationConfig,
    dump_dir_for,
    obfuscate_project,
    preamble_offset,
    write_report,
)

from conftest import run_node
from corpusgen import build_corpus


def write_project(root, files):
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def read_tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def test_rename_only_local_var(tmp_path):
    write_project(tmp_path / "src", {"one.js": "var x=1;\nconsole.log(x);"})
    cfg = ObfuscationConfig(
        input_root=str(tmp_path / "src"),
        output_root=str(tmp_path / "out"),
        encode_strings=False,
        rewrite_properties=False,
    )
    report = obfuscate_project(cfg)
    out = (tmp_path / "out" / "one.js").read_text()
    assert out == "var a=1;\nconsole.log(a);"
    assert report["files_transformed"] == 1
    assert run_node(path=tmp_path / "out" / "one.js") == "1\n"


def test_exported_names_survive(tmp_path):
    write_project(
        tmp_path / "src",
        {
            "lib.js": "export function api(input){ var inner = input * 2; return inner; }",
            "app.js": 'import {api} from "./lib.js";\nconsole.log(api(21));',
        },
    )
    cfg = ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    obfuscate_project(cfg)
    lib = (tmp_path / "out" / "lib.js").read_text()
    app = (tmp_path / "out" / "app.js").read_text()
    assert "function api(" in lib
    assert "inner" not in lib
    assert "{api}" in app.replace(" ", "")


def test_output_identical_across_worker_counts(tmp_path):
    build_corpus(tmp_path / "src", count=10)
    trees = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        obfuscate_project(
            ObfuscationConfig(
                input_root=str(tmp_path / "src"), output_root=str(out), workers=workers
            )
        )
        trees.append(read_tree(out))
    assert trees[0] == trees[1]


def test_broken_file_copied_verbatim_and_reported(tmp_path):
    bad = "var = broken syntax here ((("
    write_project(
        tmp_path / "src",
        {"bad.js": bad, "good.js": "var fine = 1;\nconsole.log(fine);"},
    )
    cfg = ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    report = obfuscate_project(cfg)
    assert (tmp_path / "out" / "bad.js").read_text() == bad
    assert (tmp_path / "out" / "good.js").read_text() != ""
    assert report["files_copied"] == 1
    assert report["errors"] and report["errors"][0]["file"] == "bad.js"


def test_unsupported_file_is_warning_not_error(tmp_path):
    labeled = "outer: for(;;) { break outer; }"
    write_project(tmp_path / "src", {"weird.js": labeled})
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    )
    assert (tmp_path / "out" / "weird.js").read_text() == labeled
    assert report["errors"] == []
    assert any("not supported" in w for w in report["warnings"])


def test_non_js_files_copied(tmp_path):
    write_project(
        tmp_path / "src",
        {"data.json": '{"k": 1}', "app.js": "var a = 1;"},
    )
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    )
    assert (tmp_path / "out" / "data.json").read_text() == '{"k": 1}'
    assert report["files_copied"] == 1
    assert report["files_total"] == 2


def test_report_schema_and_write(tmp_path):
    write_project(tmp_path / "src", {"a.js": "var a = 1;"})
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    )
    for key in (
        "files_total",
        "files_transformed",
        "files_copied",
        "cut_weight",
        "phase_times_ms",
        "peak_memory_bytes",
        "output_bytes",
        "input_bytes",
    ):
        assert key in report
    for phase in ("parse", "pasa", "rename", "transform", "emit"):
        assert phase in report["phase_times_ms"]
    assert report["peak_memory_bytes"] > 0
    path = write_report(report, tmp_path / "out")
    assert json.loads(path.read_text())["files_total"] == 1


def test_fatal_config_errors(tmp_path):
    with pytest.raises(FatalConfigError):
        obfuscate_project(ObfuscationConfig(input_root=str(tmp_path / "nope"), output_root="x"))
    (tmp_path / "src").mkdir()
    with pytest.raises(FatalConfigError):
        obfuscate_project(ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=""))
    with pytest.raises(FatalConfigError):
        obfuscate_project(
            ObfuscationConfig(input_root=str(tmp_path / "src"), output_root="x", workers=0)
        )


def test_config_file_round_trip_and_unknown_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"workers": 3, "minify": False}))
    cfg = ObfuscationConfig.from_file(cfg_path)
    assert cfg.workers == 3 and cfg.minify is False
    merged = cfg.merged({"workers": 5, "minify": None})
    assert merged.workers == 5 and merged.minify is False
    cfg_path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(FatalConfigError):
        ObfuscationConfig.from_file(cfg_path)
    # a config written for per-unit planning is refused, not silently ignored
    cfg_path.write_text(json.dumps({"min_unit_bytes": 4096}))
    with pytest.raises(FatalConfigError):
        ObfuscationConfig.from_file(cfg_path)


def test_rename_dump_written(tmp_path):
    write_project(tmp_path / "src", {"a.js": "function f(x){ return x; }"})
    out = tmp_path / "out"
    obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(out), dump_renames=True)
    )
    dump = dump_dir_for(out) / "renames" / "a.js.tsv"
    assert dump.is_file()
    parsed = [line.split("\t") for line in dump.read_text().strip().splitlines()]
    assert any(orig == "x" and new == "a" for _sid, orig, new in parsed)


def test_phase_merge_invariant_across_partition_counts(tmp_path):
    """Per-file resolution plus markers gives the same outcome whether the
    program is analyzed as one partition or several: the emitted bytes and
    the boundary decisions must be identical for k=1 and k=4."""
    files = {
        "a.js": 'import {f} from "./b.js";\nGameHub.total = f(2);\nconsole.log(GameHub.total);',
        "b.js": "export function f(x){ var local = x + 1; return local; }",
        "c.js": "globalThis.GameHub = {total: 0};\nvar private1 = 7;",
        "d.js": "function standalone(){ var own = 3; return own; }\nstandalone();",
    }
    write_project(tmp_path / "src", files)
    outputs = []
    reports = []
    for workers in (1, 4):
        out = tmp_path / f"k{workers}"
        reports.append(
            obfuscate_project(
                ObfuscationConfig(
                    input_root=str(tmp_path / "src"), output_root=str(out), workers=workers
                )
            )
        )
        outputs.append(read_tree(out))
    assert outputs[0] == outputs[1]
    assert reports[0]["boundary_markers"] == reports[1]["boundary_markers"]


def test_scope_dump_written(tmp_path):
    write_project(tmp_path / "src", {"a.js": "function f(){ var x; }"})
    out = tmp_path / "out"
    obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(out), dump_scopes=True)
    )
    dump = dump_dir_for(out) / "scopes" / "a.js.txt"
    assert dump.is_file()
    assert "module#0" in dump.read_text()


@pytest.mark.slow
def test_memory_grows_sublinearly_with_corpus_size(tmp_path):
    """Streaming invariant: peak RSS for a doubled corpus stays below 1.8x.

    Each run happens in a fresh subprocess because ru_maxrss is a high-water
    mark for the whole process lifetime.
    """
    import subprocess
    import sys

    from scopeshield.bench import generate_scaling_corpus

    peaks = {}
    for label, files in (("n", 24), ("2n", 48)):
        src = tmp_path / f"src_{label}"
        generate_scaling_corpus(src, files * 65536, file_bytes=65536)
        out = tmp_path / f"out_{label}"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "scopeshield",
                "obfuscate",
                "--in", str(src),
                "--out", str(out),
                "--threads", "1",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / f"out_{label}.report.json").read_text())
        peaks[label] = report["peak_memory_bytes"]
    assert peaks["2n"] < 1.8 * peaks["n"], peaks


def test_output_tree_mirrors_input(tmp_path):
    write_project(
        tmp_path / "src",
        {
            "a.js": "var a=1;",
            "lib/nested/deep.js": "var d=2;",
            "assets/logo.txt": "not js",
        },
    )
    obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    )
    src_files = {p.relative_to(tmp_path / "src").as_posix() for p in (tmp_path / "src").rglob("*") if p.is_file()}
    out_files = {p.relative_to(tmp_path / "out").as_posix() for p in (tmp_path / "out").rglob("*") if p.is_file()}
    assert src_files == out_files


# ---- per-file faults never abort the run ----

@pytest.mark.parametrize("workers", [1, 2])
def test_invalid_utf8_file_copied_verbatim_and_reported(tmp_path, workers):
    src = tmp_path / "src"
    write_project(src, {"good.js": "var fine = 1;\nconsole.log(fine);"})
    latin1 = "var caf\u00e9 = 'cr\u00e8me';\n".encode("latin-1")
    (src / "latin1.js").write_bytes(latin1)
    out = tmp_path / "out"
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
    )
    assert (out / "latin1.js").read_bytes() == latin1
    assert report["files_transformed"] == 1 and report["files_copied"] == 1
    assert [e["file"] for e in report["errors"]] == ["latin1.js"]
    assert "UTF-8" in report["errors"][0]["error"]
    assert run_node(path=out / "good.js") == "1\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_too_deep_nesting_copied_verbatim_as_unsupported(tmp_path, workers):
    deep = "var x=" + "(" * 3000 + "1" + ")" * 3000 + ";\n"
    src = tmp_path / "src"
    write_project(src, {"deep.js": deep, "good.js": "var fine = 1;\nconsole.log(fine);"})
    out = tmp_path / "out"
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
    )
    assert (out / "deep.js").read_text() == deep
    assert report["errors"] == []
    assert report["files_transformed"] == 1 and report["files_copied"] == 1
    assert any("deep.js" in w and "not supported" in w for w in report["warnings"])


# ---- one preamble per file ----

def test_preamble_offset_skips_directives():
    def offset(src):
        root, _ = parse_ast(tokenize(src, "t.js"), "t.js")
        return preamble_offset(root)

    src = '"use strict";\n"use asm";\nvar x = 1;'
    assert offset(src) == src.index("var")
    assert offset("var x = 1;") == 0


def test_one_decoder_and_slot_map_per_file(tmp_path):
    text = minify(synth_module(11, 40 * 1024))
    write_project(tmp_path / "src", {"app.js": '"use strict";' + text})
    out = tmp_path / "out"
    obfuscate_project(ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(out)))
    result = (out / "app.js").read_text()
    assert result.startswith('"use strict";var ')
    assert result.count("String.fromCharCode(55296") == 1  # one decoder body
    assert result.count('="length"') == 1  # one slot per property name


def test_empty_file_gets_no_preamble(tmp_path):
    write_project(tmp_path / "src", {"empty.js": "", "blank.js": "\n\n"})
    out = tmp_path / "out"
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(out))
    )
    assert report["files_transformed"] == 2 and report["errors"] == []
    assert (out / "empty.js").read_text() == ""
    assert "var " not in (out / "blank.js").read_text()


# ---- cyclic GC is paused per file and restored ----

@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored_and_paused_during_files(tmp_path, monkeypatch, enabled):
    write_project(tmp_path / "src", {"a.js": "var a = 1;", "b.js": "var b = 'two';"})
    seen = []
    original = pipeline.tokenize

    def recording_tokenize(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "tokenize", recording_tokenize)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        obfuscate_project(
            ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
        )
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert seen and not any(seen)


# ---- per-file time is linear in file size ----

@pytest.mark.slow
def test_per_file_time_grows_linearly(tmp_path):
    """Quadrupling one minified file's size at workers=1 costs at most 6x."""
    times = {}
    for label, size in (("256k", 256 * 1024), ("1m", 1024 * 1024)):
        src = tmp_path / f"src_{label}"
        write_project(src, {"app.js": minify(synth_module(4242, size))})
        runs = []
        for rep in range(2):
            started = time.perf_counter()
            obfuscate_project(
                ObfuscationConfig(
                    input_root=str(src), output_root=str(tmp_path / f"out_{label}_{rep}")
                )
            )
            runs.append(time.perf_counter() - started)
        times[label] = min(runs)
    ratio = times["1m"] / times["256k"]
    assert ratio <= 6.0, f"time(1 MB)/time(256 KB) = {ratio:.2f} exceeds 6 ({times})"
