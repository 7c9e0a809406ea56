import gc
import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import scopeshield.cli as cli
import scopeshield.pipeline as pipeline
from scopeshield.errors import FatalConfigError, ParseError, UnsupportedSyntax
from scopeshield.externals import load_allowlist
from scopeshield.renamer import frozen_names
from scopeshield.scopes import ScopeTree
from scopeshield.pipeline import (
    ObfuscationConfig,
    dump_dir_for,
    front_end,
    obfuscate_project,
    unresolved_imports,
    write_report,
)

from conftest import NODE, edit_rows, minified, module_names, phase_peaks, run_node
from corpusgen import GENERATORS, build_corpus
from scalegen import synth_module


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
    write_project(tmp_path / "src", {"one.js": "function f(){var x=1;\nconsole.log(x);}\nf();"})
    cfg = ObfuscationConfig(
        input_root=str(tmp_path / "src"),
        output_root=str(tmp_path / "out"),
        encode_strings=False,
        rewrite_properties=False,
    )
    report = obfuscate_project(cfg)
    out = (tmp_path / "out" / "one.js").read_text()
    assert out == "function f(){var a=1;\nconsole.log(a);}\nf();"
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


@pytest.mark.parametrize("workers", [1, 2])
def test_export_async_function_is_a_warning_not_an_error(tmp_path, workers):
    exported = "export async function f() {}\n"
    write_project(tmp_path / "src", {"a.js": exported, "b.js": "var b = 1;\n"})
    report = obfuscate_project(
        ObfuscationConfig(
            input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"), workers=workers
        )
    )
    assert (tmp_path / "out" / "a.js").read_text() == exported
    assert report["errors"] == [] and report["files_copied"] == 1
    assert report["warnings"] == ["copied verbatim: a.js:7: 'async' is not supported"]


def test_import_specifier_without_as_is_an_error(tmp_path):
    files = {
        "default.js": 'import {default} from "./a.js";\n',
        "string.js": 'import {"a-b"} from "./a.js";\n',
    }
    write_project(tmp_path / "src", {**files, "a.js": "export default 1;\n"})
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    )
    assert [(e["file"], e["error"]) for e in report["errors"]] == [
        ("default.js", "default.js:8: expected 'as' after import specifier"),
        ("string.js", "string.js:8: expected 'as' after import specifier"),
    ]
    for rel, text in files.items():
        assert (tmp_path / "out" / rel).read_text() == text


def test_method_named_static_runs_the_same(tmp_path):
    src = (
        "class A { static() { return 1; } static static() { return 2; } }\n"
        "console.log(new A().static(), A.static());\n"
    )
    write_project(tmp_path / "src", {"a.js": src})
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    )
    assert report["errors"] == [] and report["files_transformed"] == 1
    out = (tmp_path / "out" / "a.js").read_text()
    assert out != src
    assert run_node(code=out) == run_node(code=src) == "1 2\n"


def test_parenthesized_eval_is_a_direct_eval(tmp_path):
    # `(eval)(s)` reads the caller's scope like `eval(s)`, so `secret` keeps its name
    src = 'function f(){ var secret = 41; return (eval)("secret + 1"); }\nconsole.log(f());\n'
    write_project(tmp_path / "src", {"a.js": src})
    obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    )
    out = (tmp_path / "out" / "a.js").read_text()
    assert "var secret" in out
    assert run_node(code=out) == run_node(code=src) == "42\n"


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
        "wall_ms",
        "worker_ms",
        "peak_memory_bytes",
        "peak_worker_memory_bytes",
        "output_bytes",
        "input_bytes",
    ):
        assert key in report
    for key in (
        "cut_weight",
        "partitions",
        "boundary_markers",
        "phase_times_ms",
        "files_deferred",
        "files_redone",
    ):
        assert key not in report
    assert set(report["wall_ms"]) == {"discover", "files", "link", "copy", "total"}
    assert set(report["worker_ms"]) == {"parse", "rename", "transform", "emit"}
    assert report["wall_ms"]["total"] >= report["wall_ms"]["files"] > 0
    assert report["output_bytes"] == (tmp_path / "out" / "a.js").stat().st_size
    assert report["peak_memory_bytes"] > 0
    assert report["peak_worker_memory_bytes"] == 0  # no pool at workers=1
    path = write_report(report, tmp_path / "out")
    assert json.loads(path.read_text())["files_total"] == 1


def test_output_bytes_count_only_this_run(tmp_path):
    write_project(tmp_path / "src", {"a.js": "var alpha = 1;", "data.txt": "plain"})
    out = tmp_path / "out"
    write_project(out, {"stale.js": "x" * 5000, "old/left.txt": "y" * 300})
    report = obfuscate_project(ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(out)))
    fresh = (out / "a.js").stat().st_size + (out / "data.txt").stat().st_size
    assert report["output_bytes"] == fresh
    assert (out / "stale.js").is_file()  # left alone, but not counted


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
    # the seed field is gone: nothing read it
    cfg_path.write_text(json.dumps({"seed": 0}))
    with pytest.raises(FatalConfigError):
        ObfuscationConfig.from_file(cfg_path)
    # so is the engine field: `verify --engine` names the engine
    cfg_path.write_text(json.dumps({"engine": "node {file}"}))
    with pytest.raises(FatalConfigError, match="unknown config keys"):
        ObfuscationConfig.from_file(cfg_path)
    # each value has its field's JSON type: a bool is no int, and only
    # allowlist_path may be null
    for key, value in [("workers", "two"), ("workers", True), ("rename", "no"),
                       ("allowlist_path", 0), ("minify", None)]:
        cfg_path.write_text(json.dumps({key: value}))
        with pytest.raises(FatalConfigError, match=f"config key '{key}' must be "):
            ObfuscationConfig.from_file(cfg_path)
    cfg_path.write_text(json.dumps({"allowlist_path": None, "input_root": "src"}))
    assert ObfuscationConfig.from_file(cfg_path).allowlist_path is None


def test_rename_dump_written(tmp_path):
    write_project(
        tmp_path / "src",
        {
            "a.js": "function f(x){ return x; }",
            "b.js": "export function g(y){ let z = y; { let y2 = z; return y2; } }",
        },
    )
    out = tmp_path / "out"
    obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(out), dump_renames=True)
    )
    dumps = dump_dir_for(out) / "renames"
    assert (dumps / "a.js.tsv").read_text() == "a.js#0\tf\tf\na.js#1\tx\ta\n"
    assert (dumps / "b.js.tsv").read_text() == (
        "b.js#0\tg\tg\nb.js#1\ty\ta\nb.js#1\tz\tb\nb.js#2\ty2\ta\n"
    )


def test_phase_merge_invariant_across_partition_counts(tmp_path):
    """Per-file processing gives the same outcome in-process and on a pool:
    the emitted bytes and the report counts must be identical for workers=1
    and workers=4."""
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
    for key in ("files_transformed", "files_copied", "warnings", "errors"):
        assert reports[0][key] == reports[1][key]


@pytest.mark.slow
def test_memory_grows_sublinearly_with_corpus_size(tmp_path):
    """Streaming invariant: peak RSS for a doubled corpus stays below 1.8x.

    Each run happens in a fresh subprocess because ru_maxrss is a high-water
    mark for the whole process lifetime.
    """
    import subprocess
    import sys

    from scalegen import generate_scaling_corpus

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


def test_output_tree_mirrors_input(tmp_path, monkeypatch):
    write_project(
        tmp_path / "src",
        {
            "a.js": "var a=1;",
            "lib/nested/deep.js": "var d=2;",
            "lib/nested/more.js": "var m=3;",
            "lib/nested/broken.js": "var = 4;",
            "assets/logo.txt": "not js",
            "assets/icon.txt": "not js either",
        },
    )
    made = []
    original_mkdir = Path.mkdir

    def recording_mkdir(self, *args, **kwargs):
        made.append(self.relative_to(tmp_path).as_posix())
        return original_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", recording_mkdir)
    obfuscate_project(
        ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    )
    src_files = {p.relative_to(tmp_path / "src").as_posix() for p in (tmp_path / "src").rglob("*") if p.is_file()}
    out_files = {p.relative_to(tmp_path / "out").as_posix() for p in (tmp_path / "out").rglob("*") if p.is_file()}
    assert src_files == out_files
    # one mkdir per output directory, not one per file written or copied;
    # making out/lib/nested makes out/lib first and then tries again
    assert sorted(made) == ["out", "out/assets", "out/lib", "out/lib/nested", "out/lib/nested"]


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
    deep = "var x=" + "(" * 5000 + "1" + ")" * 5000 + ";\n"
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


# 500 nested callbacks: far past the default recursion limit
DEEP_CALLBACKS = (
    "function f(g) { return g(); }\nvar depth = 0;\n"
    + "f(function () { depth += 1;\n" * 500
    + "});\n" * 500
    + "console.log('callback depth', depth);\n"
)


def test_deep_callbacks_obfuscated_on_a_deep_stack(tmp_path):
    src = tmp_path / "src"
    write_project(src, {"deep.js": DEEP_CALLBACKS, "good.js": "var fine = 1;\nconsole.log(fine);"})
    limit = sys.getrecursionlimit()
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        report = obfuscate_project(
            ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
        )
        assert report["errors"] == [] and report["warnings"] == []
        assert report["files_transformed"] == 2
        outputs[workers] = read_tree(out)
    # the helper thread's settings do not leak
    assert sys.getrecursionlimit() == limit and threading.stack_size() == 0
    assert outputs[1] == outputs[2]
    deep = outputs[1]["deep.js"].decode("utf-8")
    assert "callback depth" not in deep  # the string is encoded: obfuscated, not copied
    if NODE is not None:
        expected = run_node(path=src / "deep.js")
        assert expected == "callback depth 500\n"
        assert run_node(path=tmp_path / "out1" / "deep.js") == expected


# sloppy scripts whose block functions Annex B also binds in the enclosing
# function, and what node prints for each
ANNEX_B_SCRIPTS = {
    "helper.js": (
        'function g(){ if (true) { function helper(){ return "inner"; } } return helper(); }'
        " console.log(g());",
        "inner\n",
    ),
    "shadow.js": (
        "function outer(){ var x = 1; function g(){ { function x(){} } return typeof x; }"
        ' return g() + " " + typeof x; } console.log(outer());',
        "function number\n",
    ),
    # no other binding may be renamed to a block function's name
    "clash.js": (
        "function g(){ var q = 1; { function a(){} } return typeof q; } console.log(g());",
        "number\n",
    ),
    "capture.js": (
        "function outer(){ var q = 1; function g(){ { function a(){} } return typeof q; }"
        " return g(); } console.log(outer());",
        "number\n",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
def test_block_functions_keep_their_names(tmp_path, workers):
    src, out = tmp_path / "src", tmp_path / "out"
    write_project(src, {rel: text for rel, (text, _printed) in ANNEX_B_SCRIPTS.items()})
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
    )
    assert report["files_transformed"] == len(ANNEX_B_SCRIPTS)
    for rel, (text, printed) in ANNEX_B_SCRIPTS.items():
        assert run_node(path=src / rel) == printed
        assert (out / rel).read_text() != text
        assert run_node(path=out / rel) == printed


@pytest.mark.parametrize("workers", [1, 2])
def test_internal_error_copies_the_file_and_the_run_goes_on(tmp_path, monkeypatch, workers):
    # a pool worker is forked, so it inherits the patched layer
    assert multiprocessing.get_start_method() == "fork"
    original = pipeline.check_safety

    def failing(tree, rename_map):
        if tree.file_id == "bad.js":
            raise RuntimeError("injected layer failure")
        return original(tree, rename_map)

    monkeypatch.setattr(pipeline, "check_safety", failing)
    files = {
        "bad.js": "var local = 'payload text';\nconsole.log(local);\n",
        "good.js": "var other = 'second text';\nconsole.log(other.length);\n",
        "third.js": "function add(a, b) { return a + b; }\nconsole.log(add(1, 2));\n",
    }
    src, out = tmp_path / "src", tmp_path / "out"
    write_project(src, files)
    argv = ["obfuscate", "--in", str(src), "--out", str(out), "--threads", str(workers)]
    assert cli.main(argv) == 2
    report = json.loads((tmp_path / "out.report.json").read_text())
    assert (out / "bad.js").read_text() == files["bad.js"]
    ((entry),) = report["errors"]
    assert entry["file"] == "bad.js"
    assert entry["error"].startswith("bad.js: internal error: RuntimeError('injected layer failure')")
    assert "Traceback (most recent call last)" in entry["error"]
    assert "in failing" in entry["error"]
    assert report["files_transformed"] == 2 and report["files_copied"] == 1
    for rel in ("good.js", "third.js"):
        assert (out / rel).read_text() != files[rel]


def test_a_dead_worker_costs_only_its_file(tmp_path, monkeypatch):
    # a pool worker is forked, so it inherits the patched task
    assert multiprocessing.get_start_method() == "fork"
    files = {
        f"{folder}/m{i}.js": f"var local{i} = 'text {i}';\nconsole.log(local{i}.length + {i});\n"
        for i, folder in enumerate(["a", "b", "c/d"] * 4)
    }
    # the largest file goes out first, so most files are still pending when
    # its worker dies
    files["dies.js"] = "function big(value) { return value + 'payload'; }\n" * 20
    src = tmp_path / "src"
    write_project(src, files)
    clean = ["obfuscate", "--in", str(src), "--out", str(tmp_path / "clean"), "--threads", "2"]
    assert cli.main(clean) == 0
    parent = os.getpid()
    original = pipeline.process_file

    def dying(config, allowlist, rel_path):
        if rel_path == "dies.js" and os.getpid() != parent:
            os._exit(7)  # in a worker only: the run itself must survive
        return original(config, allowlist, rel_path)

    monkeypatch.setattr(pipeline, "process_file", dying)
    out = tmp_path / "out"
    assert cli.main(["obfuscate", "--in", str(src), "--out", str(out), "--threads", "2"]) == 2
    report = json.loads((tmp_path / "out.report.json").read_text())
    ((entry),) = report["errors"]
    assert entry["file"] == "dies.js" and "internal error: the worker process died" in entry["error"]
    assert report["files_transformed"] == len(files) - 1 and report["files_copied"] == 1
    outputs, expected = read_tree(out), read_tree(tmp_path / "clean")
    assert outputs.pop("dies.js") == files["dies.js"].encode("utf-8")
    del expected["dies.js"]
    assert outputs == expected


# what a workers=1 run has no use for: the process pool, dataclasses and the
# inspect it loads, and what only the verify and metrics commands use
UNUSED_BY_ONE_WORKER = (
    "multiprocessing", "concurrent.futures.process", "dataclasses", "inspect",
    "subprocess", "lzma", "bz2",
)


def imported_modules(*argv):
    """The modules a fresh ``python -X importtime`` run with ``argv``
    imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_a_single_worker_run_imports_only_what_it_uses(tmp_path):
    src = tmp_path / "src"
    write_project(src, {
        "a.js": "export function inc(v) { return v + 1; }\n",
        "b.js": 'import {inc} from "./a.js";\nconsole.log(inc(1));\n',
    })
    api = (
        "from scopeshield.pipeline import ObfuscationConfig, obfuscate_project\n"
        f"obfuscate_project(ObfuscationConfig(input_root={str(src)!r}, "
        f"output_root={str(tmp_path / 'api')!r}, workers=1))"
    )
    cli_argv = ["obfuscate", "--in", str(src), "--out", str(tmp_path / "cli"), "--threads", "1"]
    runs = {
        "obfuscate_project": imported_modules("-c", api),
        "scopeshield obfuscate": imported_modules("-m", "scopeshield", *cli_argv),
    }
    bare = imported_modules("-c", "pass")
    for run, modules in runs.items():
        assert "scopeshield.renamer" in modules, run
        assert sorted((modules - bare).intersection(UNUSED_BY_ONE_WORKER)) == [], run
    assert read_tree(tmp_path / "api") == read_tree(tmp_path / "cli")


def test_front_end_peak_memory_per_input_byte():
    # traced peak of one front end on a 256 KB minified module. With the
    # token list and an AST alive at once it was 59.4 B per input byte; a
    # parser that builds only the scope tree and the candidates, and drops
    # each token once read, peaked at 30.7, with the whole token list alive
    # before the parse began. Streaming the tokens into the parser brings
    # it to 18.1. The bound sits between the two: it fails if a file-sized
    # token list comes back, and leaves room for allocator noise.
    text = minified(synth_module(5, 256 * 1024))
    gc.collect()
    tracemalloc.start()
    try:
        facts = front_end(text, "m.js")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert facts and peak / len(text) < 25.0


def test_file_task_peak_memory_per_input_byte(tmp_path):
    # traced peak of one file task, the collector paused as in a pool
    # worker, on a 256 KB minified module: 27.2 B per input byte with an
    # object per occurrence, per access and per rename patch, and the tree
    # alive through the emit; 12.3 with the occurrences and the accesses
    # kept as columns, the renames emitted straight from them and the tree
    # and candidates freed before the emit; 5.9 with the scopes, the
    # bindings, the rename map and the transform edits as columns too. The
    # bound sits between the last two.
    text = minified(synth_module(5, 256 * 1024))
    (tmp_path / "m.js").write_text(text, encoding="utf-8")
    config = ObfuscationConfig(input_root=str(tmp_path), output_root=str(tmp_path / "out"))
    gc.collect()
    tracemalloc.start()
    try:
        result = pipeline._gc_paused(pipeline.process_file, config, frozenset(), "m.js")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["status"] == "ok" and peak / len(text) < 9.0


def formatted_module(size):
    """About ``size`` characters of indented, commented script code: the
    corpus generators' scripts, each in a function of one function body."""
    rng = random.Random(13)
    parts = ["(function () {\n"]
    while sum(map(len, parts)) < size:
        for text in rng.choice(GENERATORS)(rng).values():
            if "import " not in text and "export " not in text:
                body = "".join(f"    {line}  // line\n" for line in text.splitlines())
                parts.append(f"  (function () {{\n{body}  }})();\n")
    return "".join(parts) + "})();\n"


def test_file_task_peak_memory_per_input_byte_on_formatted_input(tmp_path):
    # traced peak of one file task on about 256 KB of indented, commented
    # code, which minifies to some 40 % of it. While the parse wrote the
    # minified text the peak was 5.3 B per input byte; the gap table, 16 B
    # for each of the 0.1 gaps per input byte that minifying changes, takes
    # it to 6.4. The bound fails if the gap edits become an object each.
    text = formatted_module(256 * 1024)
    (tmp_path / "m.js").write_text(text, encoding="utf-8")
    config = ObfuscationConfig(input_root=str(tmp_path), output_root=str(tmp_path / "out"))
    gc.collect()
    tracemalloc.start()
    try:
        result = pipeline._gc_paused(pipeline.process_file, config, frozenset(), "m.js")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["status"] == "ok" and len(result["text"]) < 0.5 * len(text)
    assert peak / len(text) < 8.0


# traced peak per input byte of each phase of one file task on a 256 KB
# minified module, with the scopes, bindings and transform edits an object
# each (front end 9.7, rename 7.9, transform 10.1, emit 10.7) and as int
# columns (5.6, 5.9, 4.8, 4.7); each bound sits between the two
PHASE_PEAK_BOUNDS = {"front end": 7.5, "rename": 7.0, "transform": 7.0, "emit": 7.0}


def test_each_phase_peak_memory_per_input_byte(tmp_path):
    text = minified(synth_module(5, 256 * 1024))
    (tmp_path / "m.js").write_text(text, encoding="utf-8")
    config = ObfuscationConfig(input_root=str(tmp_path), output_root=str(tmp_path / "out"))
    gc.collect()
    result, peaks = phase_peaks(config, "m.js")
    assert result["status"] == "ok"
    per_byte = {phase: peak / len(text) for phase, peak in peaks.items()}
    assert per_byte.keys() == PHASE_PEAK_BOUNDS.keys()
    for phase, bound in PHASE_PEAK_BOUNDS.items():
        assert per_byte[phase] < bound, (phase, per_byte)


def test_one_files_facts_pickle_small():
    # what a file's front end returns besides its text, pickled, per input
    # byte of a 256 KB minified module: 2.18 with an object per scope, per
    # binding and per string candidate, 1.64 as int columns. Shipping the
    # facts between processes costs this much.
    text = minified(synth_module(5, 256 * 1024))
    facts = front_end(text, "m.js")[1:]  # tree, candidates, summary
    data = pickle.dumps(facts, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(data) / len(text) < 1.9
    tree, copy = facts[0], pickle.loads(data)[0]
    assert copy.occurrences.bindings == tree.occurrences.bindings
    assert copy.declarations == tree.declarations and copy.parents == tree.parents


@pytest.mark.slow
def test_front_end_transient_memory_is_small_on_a_large_file():
    # the front end's traced peak less what it returns, on a 1 MB minified
    # module: 12.9 MiB while the whole token list existed before the parse,
    # 3.4 MiB with the tokens streamed a batch at a time. The same module
    # wrapped in `(function(){...})();`, the common bundle shape, peaked at
    # 24.0 MiB while an arrow check scanned each parenthesized expression
    # to its `)` ahead of the parse; a `(` is now read once, by the parse.
    module = minified(synth_module(7, 1024 * 1024))
    for text in (module, "(function(){" + module + "})();"):
        gc.collect()
        tracemalloc.start()
        try:
            facts = front_end(text, "m.js")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert facts and (peak - retained) / 2**20 < 6.0


def traced_front_end(text):
    """(peak, retained) traced bytes of ``front_end`` on ``text``; a
    ParseError it raises is dropped before the retained bytes are read."""
    tracemalloc.start()
    try:
        try:
            front_end(text, "m.js")
        except ParseError:
            pass
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


@pytest.mark.slow
def test_a_failing_front_end_peaks_near_a_valid_one():
    # a 1 MB minified module, and the same with a syntax error at its end.
    # While the parse as read ran inside the handler of the minified parse's
    # error, both parses' facts were alive at once: 36.3 MiB against 17.9
    # for the valid module. The retry after the handler peaks at 19.8.
    module = minified(synth_module(7, 1024 * 1024))
    gc.collect()
    valid = traced_front_end(module)[0]
    failing = traced_front_end(module + "\nvar = ;\n")[0]
    assert failing / valid <= 1.25


def test_a_front_end_that_fails_on_the_deep_stack_frees_its_parse():
    # a module, 200 nested callbacks (too deep for the default stack) and a
    # syntax error. The error handed back from the helper thread formed a
    # reference cycle with the frames that read it, so with the cyclic
    # collector paused, as in every file task, the failed parse stayed
    # alive: 5.6 MiB after ``front_end`` had raised, against 0.3 MiB now.
    module = synth_module(7, 256 * 1024)
    text = module + "f(function () {\n" * 200 + "var = ;\n" + "});\n" * 200
    gc.collect()
    gc.disable()
    try:
        retained = traced_front_end(text)[1]
    finally:
        gc.enable()
    assert retained < 2**20


# a statement cut off at end of input
TRUNCATED_FILES = {
    "else.js": "if (a) { f(); } else",
    "if.js": "if (a)",
    "for.js": "for (;;)",
    "while.js": "while (a)",
    "do.js": "do",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_truncated_files_copied_verbatim_as_errors(tmp_path, workers):
    good = "function run(){var local=1;return local;}\nconsole.log(run());"
    src = tmp_path / "src"
    write_project(src, {**TRUNCATED_FILES, "good.js": good})
    out = tmp_path / "out"
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
    )
    assert sorted(e["file"] for e in report["errors"]) == sorted(TRUNCATED_FILES)
    assert all("unexpected end of input" in e["error"] for e in report["errors"])
    for rel, text in TRUNCATED_FILES.items():
        assert (out / rel).read_text() == text
    assert report["files_transformed"] == 1
    assert "local" not in (out / "good.js").read_text()


# a malformed escape in a module path or specifier makes the file an error
# copied verbatim; in an ordinary literal it only keeps that literal unencoded
BAD_ESCAPE_FILES = {
    "octal.js": 'import x from "./a\\1.js";\nx();',
    "brace.js": 'import x from "./\\u{zz}.js";\nx();',
    "spec.js": 'import {"\\x4" as y} from "./g.js";\ny();',
    "alias.js": 'var v = 1;\nexport {v as "\\u{110000}"};',
}
BAD_LITERAL_FILE = 'var s = "\\u{FFFFFFFFFFFFFFFFFFFFFFFF}x", t = "\\01ab", u = "plain text";\nu += t;'


@pytest.mark.parametrize("workers", [1, 2])
def test_bad_escapes_do_not_abort_the_run(tmp_path, workers):
    src = tmp_path / "src"
    write_project(src, {**BAD_ESCAPE_FILES, "lit.js": BAD_LITERAL_FILE})
    out = tmp_path / "out"
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
    )
    assert sorted(e["file"] for e in report["errors"]) == sorted(BAD_ESCAPE_FILES)
    assert all("bad string literal" in e["error"] for e in report["errors"])
    for rel, text in BAD_ESCAPE_FILES.items():
        assert (out / rel).read_text() == text
    assert report["files_transformed"] == 1
    lit = (out / "lit.js").read_text()
    assert '"\\u{FFFFFFFFFFFFFFFFFFFFFFFF}x"' in lit and '"\\01ab"' in lit
    assert '"plain text"' not in lit


# ---- one preamble per file ----

def test_preamble_offset_skips_directives():
    def offset(src):
        return front_end(src, "t.js")[2].preamble_offset

    src = '"use strict";\n"use asm";\nvar x = 1;'
    assert offset(src) == src.index("var")
    assert offset("var x = 1;") == 0


def test_one_decoder_and_slot_map_per_file(tmp_path):
    text = minified(synth_module(11, 40 * 1024))
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
    original = pipeline.parse

    def recording_parse(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "parse", recording_parse)
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
    """Quadrupling one minified file's size at workers=1 costs at most 6x,
    from 256 KB to 1 MB and from 1 MB to 4 MB. Each size's time is the best
    of two in-process runs, taken as CPU time and with the sizes
    interleaved, so that the host's load moves every size alike."""
    sizes = {"256k": 256 * 1024, "1m": 1024 * 1024, "4m": 4 * 1024 * 1024}
    for label, size in sizes.items():
        write_project(tmp_path / f"src_{label}", {"app.js": minified(synth_module(4242, size))})
    runs = {label: [] for label in sizes}
    for _rep in range(2):
        for label in sizes:
            config = ObfuscationConfig(
                input_root=str(tmp_path / f"src_{label}"), output_root=str(tmp_path / f"out_{label}")
            )
            started = time.process_time()
            obfuscate_project(config)
            runs[label].append(time.process_time() - started)
    times = {label: min(seconds) for label, seconds in runs.items()}
    for small, large in (("256k", "1m"), ("1m", "4m")):
        ratio = times[large] / times[small]
        assert ratio <= 6.0, f"time({large})/time({small}) = {ratio:.2f} exceeds 6 ({times})"


# ---- a file's frozen names come from the file alone ----

SHARED_GLOBAL_PROJECT = {
    "a.js": "var shared = 40;\nfunction bump(step){ var next = shared + step; return next; }\nbump(1);",
    "b.js": "console.log(shared + 2);",
}

# a module's declarations are module-scoped: b.js reads another `shared`
MODULE_COLLISION_PROJECT = {
    "a.js": "var shared = 40;\nexport function bump(step){ var next = shared + step; return next; }",
    "b.js": "console.log(shared + 2);",
}

# two scripts declare the same global and a third reads it
SHARED_DECLARATION_PROJECT = {
    "a.js": "var Dup = 1;\nvar own = 2;",
    "b.js": "var Dup = 3;",
    "c.js": "console.log(Dup);",
}

# scripts loaded into one realm share one global namespace
CONCATENATED_SCRIPTS = {
    "a.js": 'var counter=1;function show(){console.log("counter",counter)}',
    "b.js": 'var total=2;console.log("total",total)',
    "main.js": "show();",
}


def _outputs_at_workers_1_and_2(tmp_path, files, **options):
    """Run ``files`` at workers 1 and 2, check that both runs transform every
    JS file without errors and emit the same bytes; return the output tree."""
    src = tmp_path / "src"
    write_project(src, files)
    js_files = [name for name in files if name.endswith(pipeline.JS_SUFFIXES)]
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        report = obfuscate_project(
            ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers, **options)
        )
        assert report["files_transformed"] == len(js_files) and report["errors"] == []
        outputs.append(read_tree(out))
    assert outputs[0] == outputs[1]
    return {rel: data.decode("utf-8") for rel, data in outputs[0].items()}


def test_script_keeps_its_globals_and_matches_direct_run(tmp_path):
    out = _outputs_at_workers_1_and_2(tmp_path, SHARED_GLOBAL_PROJECT)
    assert "var shared=" in out["a.js"] and "function bump(" in out["a.js"]
    assert "next" not in out["a.js"]
    config = ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "unused"))
    direct = pipeline.process_file(config, load_allowlist(None), "a.js")
    assert direct["text"] == out["a.js"] and direct["imports"] == []
    tree = pipeline.front_end(SHARED_GLOBAL_PROJECT["a.js"], "a.js")[1]
    assert module_names(tree) == ["bump", "shared"]


def test_concatenated_scripts_keep_their_globals_apart(tmp_path, node):
    out = _outputs_at_workers_1_and_2(
        tmp_path, CONCATENATED_SCRIPTS, encode_strings=False, rewrite_properties=False
    )
    order = ("a.js", "b.js", "main.js")
    original = run_node(code="\n".join(CONCATENATED_SCRIPTS[rel] for rel in order))
    assert original == "total 2\ncounter 1\n"
    assert run_node(code="\n".join(out[rel] for rel in order)) == original


def test_module_declaration_read_free_elsewhere_is_renamed(tmp_path):
    out = _outputs_at_workers_1_and_2(tmp_path, MODULE_COLLISION_PROJECT)
    assert "function bump(" in out["a.js"]
    assert "shared" not in out["a.js"] and "next" not in out["a.js"]
    assert "shared" in out["b.js"]


def test_scripts_declaring_one_global_keep_it_in_each(tmp_path):
    out = _outputs_at_workers_1_and_2(tmp_path, SHARED_DECLARATION_PROJECT)
    assert "var Dup=" in out["a.js"] and "var own=" in out["a.js"]
    assert "var Dup=" in out["b.js"]
    assert "Dup" in out["c.js"]


def test_unresolved_import_warned_and_kept(tmp_path):
    src = tmp_path / "src"
    write_project(src, {"app.js": 'import {helper} from "./missing.js";\nvar local = helper(1);'})
    report = obfuscate_project(ObfuscationConfig(input_root=str(src), output_root=str(tmp_path / "out")))
    assert report["warnings"] == ["app.js: unresolved import './missing.js' treated as external"]
    out = (tmp_path / "out" / "app.js").read_text()
    assert "{helper}" in out.replace(" ", "") and "helper(1)" in out and "local" not in out


def test_unresolved_imports_are_the_paths_no_project_file_matches():
    files = {
        "main.js": 'import {u} from "./lib/util.js";\nimport "./lib/util";\nimport "left-pad";\n'
        'import "./missing.js";\nexport {h} from "./copied.js";\n',
        "lib/util.js": 'import "../main.js";\nimport "../lib/../gone.js";\nexport var u = 1;\n',
    }
    # copied.js has no summary (it was copied verbatim), yet it is a project file
    known = {"main.js", "lib/util.js", "copied.js"}
    imports = {rel: front_end(text, rel)[3].imports for rel, text in files.items()}
    assert {rel: unresolved_imports(rel, paths, known) for rel, paths in imports.items()} == {
        "main.js": [("main.js", "left-pad"), ("main.js", "./missing.js")],
        "lib/util.js": [("lib/util.js", "../lib/../gone.js")],
    }
    # each file's pairs follow from the file alone: sorted stably by
    # importer, as the run reports them, they do not depend on file order
    reports = [
        sorted((pair for rel in order for pair in unresolved_imports(rel, imports[rel], known)), key=lambda p: p[0])
        for order in (list(files), list(reversed(files)))
    ]
    assert reports[0] == reports[1]


# two importers whose unresolved imports are not in alphabetical order; the
# larger one sorts last but is run first
UNRESOLVED_IMPORTS_PROJECT = {
    "a.js": (
        'import {z} from "./zeta.js";\nimport {h} from "./helper";\n'
        'import {b} from "./broken.js";\nimport {y} from "./alpha.js";\n'
        "console.log(z, h, b, y);\n"
    ),
    "lib/z.js": (
        'import {m} from "../missing/m.js";\nimport {h} from "../helper.js";\n'
        'import {k} from "./b-missing.js";\n'
        + "export function pad(value) { return value + 1; }\n" * 20
    ),
    "helper.js": "export var h = 1;\n",
    # a syntax error: copied verbatim, yet still a file an import can match
    "broken.js": "export var b = ;\n",
}


def test_unresolved_import_warnings_are_exact_at_any_worker_count(tmp_path):
    src = tmp_path / "src"
    write_project(src, UNRESOLVED_IMPORTS_PROJECT)
    js_files, _others, _sizes = pipeline.discover_files(src)
    unresolved = []
    for rel in js_files:  # in file order
        try:
            summary = front_end((src / rel).read_text(), rel)[3]
        except ParseError:
            assert rel == "broken.js"
            continue
        unresolved += unresolved_imports(rel, summary.imports, set(js_files))
    expected = [
        f"{importer}: unresolved import {path!r} treated as external"
        for importer, path in unresolved
    ]
    assert expected == [
        "a.js: unresolved import './zeta.js' treated as external",
        "a.js: unresolved import './alpha.js' treated as external",
        "lib/z.js: unresolved import '../missing/m.js' treated as external",
        "lib/z.js: unresolved import './b-missing.js' treated as external",
    ]
    for workers in (1, 2):
        report = obfuscate_project(
            ObfuscationConfig(
                input_root=str(src), output_root=str(tmp_path / f"out{workers}"), workers=workers
            )
        )
        assert report["warnings"] == expected
        assert [error["file"] for error in report["errors"]] == ["broken.js"]


def test_the_pool_parent_keeps_no_result_it_has_yielded(tmp_path):
    """On a pool, the parent holds a chunk's results only until it has
    yielded them: at the last yield it holds a small share of the output.
    (Holding every result reads about 150 %.)"""
    from scalegen import generate_scaling_corpus

    src = tmp_path / "src"
    generate_scaling_corpus(src, 64 * 16384, file_bytes=16384)
    rel_paths, _others, _sizes = pipeline.discover_files(src)
    assert len(rel_paths) == 64
    config = ObfuscationConfig(input_root=str(src), output_root=str(tmp_path / "out"), workers=2)
    output_chars = 0
    try:
        results = pipeline._run_files(config, load_allowlist(None), 2, rel_paths)
        for count, result in enumerate(results, 1):
            assert result["status"] == "ok", result
            output_chars += len(result["text"])
            del result
            if count == 1:
                # every task is submitted and the workers are forked, untraced
                tracemalloc.start()
            elif count == len(rel_paths):
                held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.25 * output_chars, (held, output_chars)


def test_pool_results_carry_import_paths_not_summaries(tmp_path):
    """What crosses the pool is the file, its status, its phase times, its
    import paths once it has parsed, and its text, error or rename dump;
    never the parser's FileSummary."""
    src = tmp_path / "src"
    write_project(
        src,
        {
            **{
                f"m{i}.js": f'import {{h}} from "./h.js";\nimport "./gone{i}.js";\nexport var v{i} = h + {i};\n'
                for i in range(6)
            },
            "h.js": "export var h = 1;\n",
            "broken.js": "export var b = ;\n",
            "weird.js": "outer: for(;;) { break outer; }\n",
        },
    )
    rel_paths, _others, _sizes = pipeline.discover_files(src)
    config = ObfuscationConfig(
        input_root=str(src), output_root=str(tmp_path / "out"), workers=2, dump_renames=True
    )
    allowed = {"file", "status", "worker_ms", "imports", "text", "error", "rename_dump"}
    results = {r["file"]: r for r in pipeline._run_files(config, load_allowlist(None), 2, rel_paths)}
    assert set(results) == set(rel_paths)
    for rel, result in results.items():
        assert set(result) <= allowed, (rel, sorted(result))
        assert not any(type(value).__name__ == "FileSummary" for value in result.values())
    assert results["m3.js"]["imports"] == ["./h.js", "./gone3.js"]
    assert results["h.js"]["imports"] == []
    assert "imports" not in results["broken.js"]
    assert results["weird.js"]["status"] == "unsupported"


ANONYMOUS_DEFAULTS_PROJECT = {
    "package.json": '{"type": "module"}\n',
    "f.js": "export default function () { var base = 40; return base; }\n",
    "k.js": "export default class extends Array { get two() { return 2; } }\n",
    "main.js": 'import f from "./f.js";\nimport K from "./k.js";\nconsole.log(f() + new K().two);\n',
    # a module item below the top level is a syntax error
    "nested.js": "if (globalThis.flag) export default 1;\n",
}


def test_anonymous_default_exports_are_obfuscated(tmp_path):
    src, out = tmp_path / "src", tmp_path / "out"
    write_project(src, ANONYMOUS_DEFAULTS_PROJECT)
    report = obfuscate_project(ObfuscationConfig(input_root=str(src), output_root=str(out)))
    assert report["files_transformed"] == 3 and report["warnings"] == []
    assert [error["file"] for error in report["errors"]] == ["nested.js"]
    assert "only allowed at the top level" in report["errors"][0]["error"]
    assert (out / "nested.js").read_bytes() == (src / "nested.js").read_bytes()
    assert "base" not in (out / "f.js").read_text()
    if NODE is not None:
        expected = run_node(path=src / "main.js", cwd=src)
        assert expected == "42\n"
        assert run_node(path=out / "main.js", cwd=out) == expected


def test_single_pass_summary_matches_parse_of_unminified_source(tmp_path):
    build_corpus(tmp_path / "src", count=200)
    config = ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    allowlist = load_allowlist(None)
    js_files, _others, _sizes = pipeline.discover_files(config.input_root)
    assert len(js_files) >= 200
    for rel in js_files:
        result = pipeline.process_file(config, allowlist, rel)
        assert result["status"] == "ok", result
        text = (tmp_path / "src" / rel).read_text(encoding="utf-8")
        _gaps, _tree, _candidates, expected = pipeline.front_end(text, rel)
        assert result["imports"] == expected.imports, rel


# ---- the pool runs chunks of files; each occurrence is resolved once ----

def test_chunks_cover_the_list_in_order():
    paths = [f"f{i}.js" for i in range(2001)]
    chunks = pipeline.chunked(paths, 2)
    assert len(chunks) <= 2 * pipeline.TASKS_PER_WORKER
    assert [rel for chunk in chunks for rel in chunk] == paths
    assert pipeline.chunked(paths[:64], 2) == [[rel] for rel in paths[:64]]
    assert pipeline.chunked(paths[:3], 8) == [[rel] for rel in paths[:3]]
    assert pipeline.chunked([], 2) == []


def test_chunked_pool_matches_in_process_run(tmp_path, monkeypatch):
    """About 300 tiny files at workers=2 go out several per task. A file that
    is not UTF-8 and an unsupported one are copied; their chunk-mates are
    still transformed, and every JS file comes back exactly once."""
    files = {
        f"m{i:03d}.js": f"function f{i}(){{var local={i};return local+1;}}console.log(f{i}());"
        for i in range(300)
    }
    # the two bad files are the largest, so they share the first chunk
    pad = "//" + "x" * 200
    files["weird.js"] = "outer: for(;;) { break outer; }" + pad
    src = tmp_path / "src"
    write_project(src, files)
    latin1 = ("var caf\u00e9 = 1;" + pad).encode("latin-1")
    (src / "latin1.js").write_bytes(latin1)

    chunks = []
    original_chunked = pipeline.chunked

    def recording_chunked(rel_paths, workers):
        result = original_chunked(rel_paths, workers)
        chunks.extend(result)
        return result

    returned = Counter()
    original_run = pipeline._run_files

    def recording_run(*args):
        for result in original_run(*args):
            returned[result["file"]] += 1
            yield result

    monkeypatch.setattr(pipeline, "chunked", recording_chunked)
    monkeypatch.setattr(pipeline, "_run_files", recording_run)
    outputs, reports = [], []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        reports.append(
            obfuscate_project(ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers))
        )
        outputs.append(read_tree(out))
    assert outputs[0] == outputs[1]
    for key in ("files_total", "files_transformed", "files_copied", "warnings", "errors"):
        assert reports[0][key] == reports[1][key], key
    assert reports[1]["files_transformed"] == 300 and reports[1]["files_copied"] == 2
    assert [e["file"] for e in reports[1]["errors"]] == ["latin1.js"]
    assert any("weird.js" in w for w in reports[1]["warnings"])
    assert reports[1]["peak_worker_memory_bytes"] > 0

    js = set(files) | {"latin1.js"}
    assert returned == Counter({rel: 2 for rel in js})  # once per run
    assert set(outputs[1]) == js
    assert sorted(rel for chunk in chunks for rel in chunk) == sorted(js)
    assert max(len(chunk) for chunk in chunks) > 1
    bad_files = ("latin1.js", "weird.js")
    for bad in bad_files:
        chunk = next(chunk for chunk in chunks if bad in chunk)
        mates = [rel for rel in chunk if rel not in bad_files]
        assert mates
        for rel in mates:
            assert outputs[1][rel] != files[rel].encode("utf-8") and b"local" not in outputs[1][rel]
    assert outputs[1]["latin1.js"] == latin1
    assert outputs[1]["weird.js"] == files["weird.js"].encode("utf-8")


def test_process_file_resolves_each_occurrence_once(tmp_path, monkeypatch):
    write_project(tmp_path / "src", {"app.js": minified(synth_module(5, 16 * 1024))})
    calls = Counter()
    original_resolve = ScopeTree.resolve

    def counting_resolve(self, name, scope_id):
        calls["resolve"] += 1
        return original_resolve(self, name, scope_id)

    trees = []
    original_parse = pipeline.parse

    def recording_parse(*args):
        facts = original_parse(*args)
        trees.append(facts[1])
        return facts

    monkeypatch.setattr(ScopeTree, "resolve", counting_resolve)
    monkeypatch.setattr(pipeline, "parse", recording_parse)
    config = ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    result = pipeline.process_file(config, load_allowlist(None), "app.js")
    assert result["status"] == "ok" and "text" in result
    assert len(trees) == 1 and len(trees[0].occurrences)
    assert calls["resolve"] == len(trees[0].occurrences)


# ---- one comma-list production ----

MISSING_COMMA_FILES = {
    "params.js": "function f(a b) {}\n",
    "args.js": "f(1 2);\n",
    "array.js": "var a = [1 2];\n",
    "object.js": "var o = ({a: 1 b: 2});\n",
    "import.js": 'import {a b} from "./x.js";\n',
    "export.js": "var a, b;\nexport {a b};\n",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_missing_commas_copied_verbatim_as_errors(tmp_path, workers):
    src, out = tmp_path / "src", tmp_path / "out"
    write_project(src, {**MISSING_COMMA_FILES, "x.js": "export var a = 1, b = 2;\n"})
    report = obfuscate_project(
        ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
    )
    assert sorted(e["file"] for e in report["errors"]) == sorted(MISSING_COMMA_FILES)
    assert all("expected ','" in e["error"] for e in report["errors"])
    for rel, text in MISSING_COMMA_FILES.items():
        assert (out / rel).read_text() == text
    assert report["files_transformed"] == 1


def test_computed_accessors_run_the_same(tmp_path, node):
    src = (
        'function main() {\n  var key = "total";\n'
        "  var store = {items: [1, 2, 3], get [key]() { return this.items.length; },\n"
        "    set [key](value) { this.items.push(value); }};\n"
        "  store[key] = 4;\n"
        "  console.log(store.total, Object.keys(store).join());\n}\nmain();\n"
    )
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src})["a.js"]
    assert "store" not in out
    assert run_node(code=out) == run_node(code=src) == "4 items,total\n"


# ---- scopes the renamer must see ----

def test_a_var_in_a_block_is_not_renamed_to_the_blocks_let(tmp_path, node):
    src = (
        "function f(){ { var v = 1; let w = 2; g(w); } return v; }\n"
        'function g(x){ console.log("g", x); }\nconsole.log(f());\n'
    )
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src})["a.js"]
    assert "var v" not in out
    assert run_node(code=out) == run_node(code=src) == "g 2\n1\n"


def test_a_let_in_a_switch_case_is_scoped_to_the_case_block(tmp_path, node):
    src = (
        'function outer(){ let y = "outer-y";\n'
        '  function f(k){ var extra = "!";\n'
        '    switch (k) { case 1: let y = "case-y"; console.log(y + extra); }\n'
        "    return y; }\n"
        "  console.log(f(1)); }\nouter();\n"
    )
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src})["a.js"]
    assert "outer-y" not in out  # the strings are encoded
    assert run_node(code=out) == run_node(code=src) == "case-y!\nouter-y\n"


@pytest.mark.parametrize("minify", [True, False])
def test_a_hashbang_line_is_kept_first(tmp_path, node, minify):
    hashbang = "#!/usr/bin/env node"
    src = hashbang + '\n\n// greet\nvar message = "hello";\nconsole.log(message.length, message);\n'
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src}, minify=minify)["a.js"]
    first, rest = out.split("\n", 1)
    # the preamble, the decoder among it, goes after the hashbang line
    assert first == hashbang and "hello" not in rest
    assert rest.index("function") < rest.index("var message")
    (tmp_path / "run.js").write_text(out, encoding="utf-8")
    assert run_node(path=tmp_path / "run.js") == run_node(code=src) == "5 hello\n"


# Where the gap table meets the transforms. An encoded string after a word,
# across a gap that minifying empties: its decoder call needs a space. A `.`
# with a gap after it: the access's edit spans the gap, and a `delete`
# operand or an access in an eval scope, which keep their `.`, keep it.
GAP_SEAMS = """\
var out = [];
function r() { return "ab"; }
function c() { return/*c*/"cd"; }
function s(k) { switch (k) { case "ef": return 1; } return 0; }
out.push(r(), c(), s("ef"), typeof "gh", void "ij");
for (var i in  "kl") out.push(i);
for (var ch of/*c*/"mn") out.push(ch);
try { throw  "op"; } catch (e) { out.push(e); }
try { "q" in  "rs"; } catch (e) { out.push(e instanceof TypeError); }
var o = {p: 1, q: 2, r: 3};
out.push(o. p, o./*c*/q, o.
  r);
delete o. p; delete o./*c*/q; delete (o.
  r);
out.push(JSON.stringify(o));
function e(x) { var o = {p: x}; return eval("o. p") + o. p + o./*c*/p + o.
  p; }
out.push(e(4));
console.log(out.join(","));
"""


@pytest.mark.parametrize(
    "options",
    [{}, {"rename": False}, {"encode_strings": False}, {"rewrite_properties": False}, {"minify": False}],
    ids=["all", "no-rename", "no-strings", "no-prop-access", "no-minify"],
)
def test_gap_edits_meet_string_and_property_edits(tmp_path, node, options):
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": GAP_SEAMS}, **options)["a.js"]
    assert run_node(code=out) == run_node(code=GAP_SEAMS) == (
        "ab,cd,1,string,,0,1,m,n,op,true,1,2,3,{},16\n"
    )
    if options.get("encode_strings", True):
        assert '"cd"' not in out
    if options.get("minify", True):
        # the comments go, but for those behind a `.` that no edit covers
        assert "return/*c*/" not in out and "of/*c*/" not in out
        assert "delete o./*c*/q" in out and "o./*c*/p" in out
    else:
        assert "return/*c*/" in out and "of/*c*/" in out


def test_the_transforms_do_not_depend_on_minify():
    # the gap table keeps a word and a string literal apart, so the string
    # edits read only the file: `return/*c*/"cd"` gets the same call either way
    rng = random.Random(29)
    programs = [("seams.js", GAP_SEAMS)]
    programs += [item for gen in GENERATORS for item in gen(rng).items()]
    allowlist = load_allowlist(None)
    for file_id, src in programs:
        tables = []
        for minify in (True, False):
            config = ObfuscationConfig(minify=minify)
            _gaps, tree, candidates, summary = front_end(src, file_id)
            outputs = pipeline.rename_file(config, allowlist, tree, summary)
            edits = pipeline.transform_file(
                config, allowlist, file_id, src, candidates, tree.bindings.names, outputs
            )
            tables.append([edit_rows(table) for table in edits])
        assert tables[0] == tables[1], file_id


# a module path after a word and a comment: minifying keeps the space
COMMENT_GAP_MODULES = {
    "main.mjs": 'import/*c*/"./b.mjs";\nimport {x, y} from/*c*/"./c.mjs";\n'
    "console.log(x, y, globalThis.seen);\n",
    "b.mjs": 'export var x = "from b";\nglobalThis.seen = typeof/*c*/"b ran";\n',
    "c.mjs": 'export {x} from/*c*/"./b.mjs";\nexport var y = "from c";\n',
}


@pytest.mark.parametrize(
    "options",
    [{}, {"rename": False}, {"encode_strings": False}, {"rewrite_properties": False}, {"minify": False}],
    ids=["all", "no-rename", "no-strings", "no-prop-access", "no-minify"],
)
def test_a_module_path_after_a_comment_gap_runs_the_same(tmp_path, node, options):
    out = _outputs_at_workers_1_and_2(tmp_path, COMMENT_GAP_MODULES, **options)
    if options.get("minify", True):
        assert 'import "./b.mjs";' in out["main.mjs"]
        assert 'export{x}from "./b.mjs";' in out["c.mjs"]
    else:
        assert 'import/*c*/"./b.mjs";' in out["main.mjs"]
    expected = run_node(path=tmp_path / "src" / "main.mjs", cwd=tmp_path / "src")
    assert expected == "from b from c string\n"
    assert run_node(path=tmp_path / "out1" / "main.mjs", cwd=tmp_path / "out1") == expected


def test_a_less_than_before_a_not_is_no_html_comment(tmp_path, node):
    # `a<!--b` would read as `a<` and a comment to the end of the line
    src = "function f(a,b){var r = a < ! --b; return [r,b];} console.log(f(1,1));\n"
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src})["a.js"]
    assert "<!--" not in out and "< !--" in out
    assert run_node(code=out) == run_node(code=src) == "[ false, 0 ]\n"


# An import cycle: b.js calls a function of a.js while a.js's body, and so
# its preamble, has not run yet. The decoder fills its table on that call,
# and the preamble's `var` must not reset it.
HOIST_CYCLE_PROJECT = {
    "package.json": '{"type": "module"}\n',
    "a.js": 'import "./b.js";\nexport function greet() { return "hello from a"; }\n'
    'console.log(greet(), "again");\n',
    "b.js": 'import {greet} from "./a.js";\nconsole.log("b sees", greet());\n',
}


def test_the_decoder_runs_before_its_preamble_in_an_import_cycle(tmp_path, node):
    out = _outputs_at_workers_1_and_2(tmp_path, HOIST_CYCLE_PROJECT)
    assert "hello from a" not in out["a.js"]
    expected = run_node(path=tmp_path / "src" / "a.js", cwd=tmp_path / "src")
    assert expected == "b sees hello from a\nhello from a again\n"
    assert run_node(path=tmp_path / "out1" / "a.js", cwd=tmp_path / "out1") == expected


def test_a_regex_after_a_statement_head_runs_the_same(tmp_path, node):
    # a regex and a division behind each `)` of an `if`, `while`, `for` and
    # `with` head, and a division behind a call of a method named `if`
    src = (
        'var s = "ab", n = 8, d = 2, hits = [];\n'
        'if (s) /a/.test(s) && hits.push("if");\n'
        'if (n / d / 2 > 1) hits.push("if-div");\n'
        "var i = 0;\n"
        'while (i++ < 1) /b/.test(s) && hits.push("while");\n'
        'while (n / d / 2 < 0) hits.push("never");\n'
        'for (var k = 0; k < 1; k++) /a/g.test(s) && hits.push("for");\n'
        'for (var j = n / d / 2; j < 3; j++) hits.push("for-div" + j);\n'
        'function w(o) { with (o) /a/.test(s) && hits.push("with"); with (o) n / d / 2; }\n'
        "var o = {if: function (x) { return x * 4; }};\n"
        "w(o); hits.push(o.if(n) / d / 2, (n) / d / 2);\n"
        'console.log(hits.join(","));\n'
    )
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src})["a.js"]
    assert '"if-div"' not in out  # the strings are encoded
    printed = "if,if-div,while,for,for-div2,with,8,2\n"
    assert run_node(code=out) == run_node(code=src) == printed


# ---- U+2028 and U+2029 are line terminators ----

def test_line_separators_end_statements_after_obfuscation(tmp_path, node):
    src = "var a = 1 var b = 2 console.log(a + b)\n"
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src})["a.js"]
    assert run_node(code=out) == run_node(code=src) == "3\n"


def test_line_continuation_at_a_line_separator(tmp_path, node):
    src = 'var s = "ab\\ cd", t = "ef gh";\nconsole.log(s.length, s, t.length);\n'
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src})["a.js"]
    assert '"ab' not in out  # the literal is encoded
    assert run_node(code=out) == run_node(code=src) == "4 abcd 5\n"


# ---- `export {}` and `.mjs` make a file a module ----

# one source as a script, as an `.mjs` module and as a module by `export {}`:
# (file, the text appended, its kind, its frozen names)
ONE_SOURCE = "function helperFunction(value) { return value * 2; }\nvar answer = helperFunction(21);\nconsole.log(answer);\n"
ONE_SOURCE_KINDS = [
    pytest.param(
        "a.js", "", "script", {"answer": "script global", "helperFunction": "script global"}, id="script"
    ),
    pytest.param("a.mjs", "", "esm", {}, id="mjs"),
    pytest.param("a.js", "export {};\n", "esm", {}, id="empty-export"),
]


@pytest.mark.parametrize("rel, suffix, kind, frozen", ONE_SOURCE_KINDS)
def test_one_file_through_each_kind(tmp_path, capsys, rel, suffix, kind, frozen):
    text = ONE_SOURCE + suffix
    _gaps, tree, _candidates, summary = front_end(text, rel)
    assert summary.kind == kind and frozen_names(tree, summary) == frozen
    # node reads a `.js` file with `export` as a module only under "type": "module"
    files = {rel: text, **({"package.json": '{"type": "module"}\n'} if suffix else {})}
    out = _outputs_at_workers_1_and_2(tmp_path, files)
    assert ("helperFunction" in out[rel]) == (kind == "script")
    assert cli.main(["analyze", "--in", str(tmp_path / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index(f"frozen names: {len(frozen)}") + 1 :] == [
        f"  {rel}: {name} ({reason})" for name, reason in sorted(frozen.items())
    ]
    if NODE is not None:
        expected = run_node(path=tmp_path / "src" / rel, cwd=tmp_path / "src")
        assert expected == "42\n"
        for workers in (1, 2):
            out_root = tmp_path / f"out{workers}"
            assert run_node(path=out_root / rel, cwd=out_root) == expected


EMPTY_EXPORT_PROJECT = {
    "package.json": '{"type": "module"}\n',
    "a.js": "function helperFunction(value) { return value * 2; }\n"
    "console.log(helperFunction(21));\nexport {};\n",
    "b.mjs": "function otherHelper(value) { return value + 1; }\nconsole.log(otherHelper(1));\n",
    "main.mjs": 'import "./a.js";\nimport "./b.mjs";\n',
}


def test_empty_export_and_mjs_files_are_modules(tmp_path):
    src = tmp_path / "src"
    write_project(src, EMPTY_EXPORT_PROJECT)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        report = obfuscate_project(
            ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers)
        )
        assert report["files_transformed"] == 3 and report["errors"] == []
        outputs.append(read_tree(out))
    assert outputs[0] == outputs[1]
    out = tmp_path / "out1"
    assert "helperFunction" not in (out / "a.js").read_text()
    assert "otherHelper" not in (out / "b.mjs").read_text()
    if NODE is not None:
        expected = run_node(path=src / "main.mjs", cwd=src)
        assert expected == "42\n2\n"
        assert run_node(path=out / "main.mjs", cwd=out) == expected


# ---- a function body with a parameter default is a scope of its own ----

# each program and what node prints for it: a closure in a default cannot
# see the body's vars; a body var named like a parameter starts from its
# value; one of another name starts undefined, and a body let may not take a
# parameter's name
PARAMETER_SCOPES = [
    pytest.param(
        'var x = "outer"; function f(a = () => x) { var x = "inner"; return a(); } console.log(f());',
        "outer\n", id="function-default-reads-outer",
    ),
    pytest.param(
        "function f(a, b = () => a) { var a = 2; return [a, b()]; } console.log(f(1));",
        "[ 2, 1 ]\n", id="function",
    ),
    pytest.param(
        "var o = { m(a, b = () => a) { var a = 2; return [a, b()]; } }; console.log(o.m(1));\n"
        "class C { m(a, b = () => a) { var a = 2; return [a, b()]; } } console.log(new C().m(1));",
        "[ 2, 1 ]\n[ 2, 1 ]\n", id="method",
    ),
    pytest.param(
        "var f = (a, b = () => a) => { var a = 2; return [a, b()]; }; console.log(f(1));",
        "[ 2, 1 ]\n", id="arrow",
    ),
    pytest.param(
        "function m(a, b = () => a) { var a; return [a, b()]; } console.log(m(1));\n"
        "function k(p, q = 1) { var v; return v; } console.log(k(5));\n"
        "function l(p = 1) { let v = 2; return v; } console.log(l());\n"
        "var g = function named(p = 1) { var named; return typeof named; }; console.log(g());",
        "[ 1, 1 ]\nundefined\n2\nundefined\n", id="body-names",
    ),
]


@pytest.mark.parametrize("src, printed", PARAMETER_SCOPES)
def test_a_body_with_a_parameter_default_is_its_own_scope(tmp_path, node, src, printed):
    out = _outputs_at_workers_1_and_2(tmp_path, {"a.js": src})["a.js"]
    assert run_node(code=out) == run_node(code=src) == printed


# a syntax error, then a token outside the subset: (source, the class of the
# error, its offset); the syntax error wins at any distance
ERROR_BEFORE_UNSUPPORTED = {
    "cafe.js": ("var = 1;\nvar café = 2;", ParseError, 4),
    "private.js": ("var = 1;\nclass A { #x = 1 }", ParseError, 4),
    "same-batch.js": ("var = café;", ParseError, 4),
    "later-batch.js": ("var = 1;\n" + "f();" * 600 + "\nvar café = 2;", ParseError, 4),
    "no-error.js": ("f();\ncafé;", UnsupportedSyntax, 8),
}


@pytest.mark.parametrize("workers", [1, 2])
def test_an_unsupported_token_outranks_only_later_errors(tmp_path, workers):
    src = tmp_path / "src"
    write_project(src, {rel: text for rel, (text, _exc, _offset) in ERROR_BEFORE_UNSUPPORTED.items()})
    for rel, (text, exc, offset) in ERROR_BEFORE_UNSUPPORTED.items():
        with pytest.raises(ParseError) as err:
            front_end(text, rel)
        assert (type(err.value), err.value.offset) == (exc, offset)
        if NODE is not None:
            checked = subprocess.run([NODE, "--check", str(src / rel)], capture_output=True)
            assert (checked.returncode == 0) == (exc is UnsupportedSyntax)
    report = obfuscate_project(ObfuscationConfig(input_root=str(src), output_root=str(tmp_path / "out"), workers=workers))
    assert report["files_copied"] == len(ERROR_BEFORE_UNSUPPORTED)
    assert [error["error"].split(": ")[0] for error in report["errors"]] == [
        f"{rel}:4" for rel in ("cafe.js", "later-batch.js", "private.js", "same-batch.js")
    ]
    assert report["warnings"] == ["copied verbatim: no-error.js:8: non-ASCII identifiers are not supported"]


# early errors node reports: (file, the text at the error's offset); each
# file's last line would print if it ran
EARLY_ERRORS = {
    # a unary expression as the left operand of `**`
    "neg-pow.js": ("var a = 2, b = 3;\nconsole.log(-a ** b);\n", "** b"),
    "typeof-pow.js": ("var a = 2;\nconsole.log(typeof a ** 2);\n", "** 2"),
    "nested-pow.js": ("var b = 3, c = 2;\nconsole.log(2 ** -b ** c);\n", "** c"),
    # `??` beside `||` or `&&` without parentheses
    "coalesce-or.js": ("var a = null, b = 0, c = 5;\nconsole.log(a ?? b || c);\n", "|| c"),
    "or-coalesce.js": ("var a = null, b = 0, c = 5;\nconsole.log(a || b ?? c);\n", "?? c"),
    "and-coalesce.js": ("var a = null, b = 0, c = 5;\nconsole.log(a && b ?? c);\n", "?? c"),
    # a lexical declaration beside another declaration of its name
    "param-let.js": ("function f(a) { let a; }\nconsole.log(f(1));\n", "a; }"),
    "let-var.js": ("let x;\nvar x;\nconsole.log(x);\n", "x;\nc"),
    "body-let-var.js": ("function g() { let y; var y; }\nconsole.log(g());\n", "y; }"),
    "arrow-const.js": ("var h = (a) => { const a = 1; };\nconsole.log(h(2));\n", "a = 1"),
    "catch-let.js": ("try {} catch (e) { let e; }\nconsole.log(1);\n", "e; }"),
    "default-let.js": ("function k(a = 1) { let a; }\nconsole.log(k());\n", "a; }"),
    "block-function-let.js": ("{ function m() {} let m; }\nconsole.log(1);\n", "m; }"),
    "var-through-block.js": ("{ let s; { var s; } }\nconsole.log(1);\n", "s; } }"),
    "var-then-let.js": ("{ var r; let r; }\nconsole.log(1);\n", "r; }"),
}
# their valid neighbors, each run the same after obfuscation
NOT_EARLY_ERRORS = {
    "pow.js": "var a = 2, b = 3;\nconsole.log((-a) ** b, 2 ** -b, a ** -b, ++a ** 2, a++ ** 2);\n",
    "coalesce.js": (
        "var a = null, b = 0, c = 5;\n"
        "console.log(a ?? (b || c), (a || b) ?? c, a ?? b ?? c, a ?? b | c, a ?? b ? c || a : b && c);\n"
    ),
    "redeclare.js": (
        "function n() { return 1; }\nvar n;\nvar p = 2;\nvar p;\n"
        "function q(a) { var a; function b() {} var b; return typeof b + a; }\n"
        "var r = (function r() { let r = 3; return r; })();\n"
        "{ function t() { return 4; } function t() { return 5; } }\n"
        "try { throw 6; } catch (e) { { let e = 7; console.log(e); } }\n"
        "{ let u = 8; console.log(u); }\nvar u = 9;\n"
        "{ if (p) function v() { return 10; } var v; }\n"
        "{ if (p) function w() { return 11; } let w = 12; console.log(w); }\n"
        "console.log(n(), p, q(1), r, u, v());\n"
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
def test_early_errors_node_reports_are_errors(tmp_path, node, workers):
    src = tmp_path / "src"
    write_project(src, {rel: text for rel, (text, _at) in EARLY_ERRORS.items()})
    for rel, (text, at) in EARLY_ERRORS.items():
        with pytest.raises(ParseError) as err:
            front_end(text, rel)
        assert (type(err.value), err.value.offset) == (ParseError, text.index(at)), rel
        checked = subprocess.run([node, "--check", str(src / rel)], capture_output=True, text=True)
        assert checked.returncode != 0 and "SyntaxError" in checked.stderr, rel
    out = tmp_path / "out"
    report = obfuscate_project(ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers))
    assert report["files_transformed"] == 0 and report["warnings"] == []
    assert sorted(error["file"] for error in report["errors"]) == sorted(EARLY_ERRORS)
    assert read_tree(out) == read_tree(src)  # copied verbatim


def test_the_valid_neighbors_of_early_errors_run_the_same(tmp_path, node):
    out = _outputs_at_workers_1_and_2(tmp_path, NOT_EARLY_ERRORS)
    for rel, text in NOT_EARLY_ERRORS.items():
        assert run_node(code=out[rel]) == run_node(code=text), rel


def test_discovery_sees_files_as_pathlib_does(tmp_path):
    # a symlinked file counts; a symlinked directory is not entered and a
    # broken link is skipped; paths sort by component (`a/` before `a-b/`)
    root = tmp_path / "src"
    write_project(root, {"a/x.js": "1;", "a-b/x.js": "22;", "a.b/y.mjs": "3;", "b.js": "4;", "real/r.txt": "55"})
    (root / "link.js").symlink_to("b.js")
    (root / "dirlink").symlink_to("real", target_is_directory=True)
    (root / "broken.js").symlink_to("nowhere.js")
    js_files, other_files, sizes = pipeline.discover_files(root)
    assert js_files == ["a/x.js", "a-b/x.js", "a.b/y.mjs", "b.js", "link.js"]
    assert other_files == ["real/r.txt"]
    assert sizes == {"a/x.js": 2, "a-b/x.js": 3, "a.b/y.mjs": 2, "b.js": 2, "link.js": 2, "real/r.txt": 2}
    expected = [path.relative_to(root).as_posix() for path in sorted(root.rglob("*")) if path.is_file()]
    assert js_files == [rel for rel in expected if rel.endswith(pipeline.JS_SUFFIXES)]
    assert other_files == [rel for rel in expected if not rel.endswith(pipeline.JS_SUFFIXES)]
