import gc
import json
import multiprocessing
import os
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
from scopeshield.errors import FatalConfigError
from scopeshield.externals import load_allowlist
from scopeshield.minify import minify
from scopeshield.scopes import ScopeTree
from scopeshield.pipeline import (
    ObfuscationConfig,
    dump_dir_for,
    front_end,
    obfuscate_project,
    write_report,
)

from conftest import NODE, run_node
from corpusgen import build_corpus
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


@pytest.mark.parametrize("workers", [1, 2])
def test_internal_error_copies_the_file_and_the_run_goes_on(tmp_path, monkeypatch, workers):
    # a pool worker is forked, so it inherits the patched layer
    assert multiprocessing.get_start_method() == "fork"
    original = pipeline.rename_patches

    def failing(tree, rename_map):
        if tree.file_id == "bad.js":
            raise RuntimeError("injected layer failure")
        return original(tree, rename_map)

    monkeypatch.setattr(pipeline, "rename_patches", failing)
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


def test_front_end_peak_memory_per_input_byte():
    # traced peak of one front end on a 256 KB minified module. With the
    # token list and an AST alive at once it was 59.4 B per input byte; a
    # parser that builds only the scope tree and the candidates, and drops
    # each token once read, peaked at 30.7, with the whole token list alive
    # before the parse began. Streaming the tokens into the parser brings
    # it to 18.1. The bound sits between the two: it fails if a file-sized
    # token list comes back, and leaves room for allocator noise.
    text = minify(synth_module(5, 256 * 1024))
    gc.collect()
    tracemalloc.start()
    try:
        facts = front_end(text, "m.js", minify=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert facts and peak / len(text) < 25.0


def test_front_end_transient_memory_is_small_on_a_large_file():
    # the front end's traced peak less what it returns, on a 1 MB minified
    # module: 12.9 MiB while the whole token list existed before the parse,
    # 3.4 MiB with the tokens streamed a batch at a time
    text = minify(synth_module(7, 1024 * 1024))
    gc.collect()
    tracemalloc.start()
    try:
        facts = front_end(text, "m.js", minify=True)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert facts and (peak - retained) / 2**20 < 6.0


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
        return front_end(src, "t.js", minify=False)[2].preamble_offset

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
    original = pipeline.lex

    def recording_lex(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "lex", recording_lex)
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
    from 256 KB to 1 MB and from 1 MB to 4 MB."""
    times = {}
    for label, size in (("256k", 256 * 1024), ("1m", 1024 * 1024), ("4m", 4 * 1024 * 1024)):
        src = tmp_path / f"src_{label}"
        write_project(src, {"app.js": minify(synth_module(4242, size))})
        runs = []
        for rep in range(2):
            out = tmp_path / f"out_{label}"
            started = time.perf_counter()
            obfuscate_project(ObfuscationConfig(input_root=str(src), output_root=str(out)))
            runs.append(time.perf_counter() - started)
        times[label] = min(runs)
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
    file without errors and emit the same bytes; return the output tree."""
    src = tmp_path / "src"
    write_project(src, files)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        report = obfuscate_project(
            ObfuscationConfig(input_root=str(src), output_root=str(out), workers=workers, **options)
        )
        assert report["files_transformed"] == len(files) and report["errors"] == []
        outputs.append(read_tree(out))
    assert outputs[0] == outputs[1]
    return {rel: data.decode("utf-8") for rel, data in outputs[0].items()}


def test_script_keeps_its_globals_and_matches_direct_run(tmp_path):
    out = _outputs_at_workers_1_and_2(tmp_path, SHARED_GLOBAL_PROJECT)
    assert "var shared=" in out["a.js"] and "function bump(" in out["a.js"]
    assert "next" not in out["a.js"]
    config = ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "unused"))
    direct = pipeline.process_file(config, load_allowlist(None), "a.js")
    assert direct["text"] == out["a.js"]
    assert direct["summary"].declared_globals == ["bump", "shared"]


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
    js_files, _others = pipeline.discover_files(config.input_root)
    assert len(js_files) >= 200
    for rel in js_files:
        result = pipeline.process_file(config, allowlist, rel)
        assert result["status"] == "ok", result
        text = (tmp_path / "src" / rel).read_text(encoding="utf-8")
        _text, _tree, _candidates, expected = pipeline.front_end(text, rel, minify=False)
        got = result["summary"]
        for field in ("imports", "module_syntax", "export_pairs", "declared_globals", "free_names"):
            assert getattr(got, field) == getattr(expected, field), (rel, field)


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
    write_project(tmp_path / "src", {"app.js": minify(synth_module(5, 16 * 1024))})
    calls = Counter()
    original_resolve = ScopeTree.resolve

    def counting_resolve(self, name, scope_id):
        calls["resolve"] += 1
        return original_resolve(self, name, scope_id)

    trees = []
    original_parse = pipeline.parse

    def recording_parse(*args):
        facts = original_parse(*args)
        trees.append(facts[0])
        return facts

    monkeypatch.setattr(ScopeTree, "resolve", counting_resolve)
    monkeypatch.setattr(pipeline, "parse", recording_parse)
    config = ObfuscationConfig(input_root=str(tmp_path / "src"), output_root=str(tmp_path / "out"))
    result = pipeline.process_file(config, load_allowlist(None), "app.js")
    assert result["status"] == "ok" and "text" in result
    assert len(trees) == 1 and trees[0].occurrences
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
