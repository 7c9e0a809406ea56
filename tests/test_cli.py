import json
import subprocess
import sys
from pathlib import Path

import pytest

import scopeshield.cli as cli
from scopeshield.equivalence import TestCase, save_cases


def project(root, files):
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def test_usage_error_exits_64():
    proc = subprocess.run(
        [sys.executable, "-m", "scopeshield", "obfuscate", "--bogus-flag"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 64


def test_missing_subcommand_exits_64():
    proc = subprocess.run(
        [sys.executable, "-m", "scopeshield"], capture_output=True, text=True
    )
    assert proc.returncode == 64


def test_obfuscate_roundtrip(tmp_path, capsys):
    project(tmp_path / "src", {"a.js": "var value = 1;\nconsole.log(value);"})
    rc = cli.main(
        [
            "obfuscate",
            "--in", str(tmp_path / "src"),
            "--out", str(tmp_path / "dist"),
            "--threads", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "run report:" in out
    report_path = Path(out.split("run report:")[1].strip())
    report = json.loads(report_path.read_text())
    assert report["files_transformed"] == 1


def test_obfuscate_exit_2_on_file_error(tmp_path):
    project(tmp_path / "src", {"bad.js": "var = ;"})
    rc = cli.main(
        ["obfuscate", "--in", str(tmp_path / "src"), "--out", str(tmp_path / "dist"), "--threads", "1"]
    )
    assert rc == 2


def test_obfuscate_exit_3_on_fatal(tmp_path):
    rc = cli.main(
        ["obfuscate", "--in", str(tmp_path / "missing"), "--out", str(tmp_path / "dist")]
    )
    assert rc == 3


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "input_rel, output_rel", [("src", "src"), ("src", "src/dist"), ("out/src", "out")]
)
def test_obfuscate_refuses_an_output_root_that_overlaps_the_input(
    tmp_path, capsys, input_rel, output_rel
):
    # overwriting the input loses it; an output inside the input is read
    # back by the next run; an input inside the output gets outputs mixed in
    src = tmp_path / input_rel
    project(src, {"a.js": "var value = 1;\nconsole.log(value);", "b.txt": "data"})
    before = tree_bytes(tmp_path)
    rc = cli.main(
        ["obfuscate", "--in", str(src), "--out", str(tmp_path / output_rel), "--threads", "1"]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("fatal: output root")
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("missing", ["--orig", "--obf"])
def test_metrics_exit_3_on_a_missing_root(tmp_path, capsys, missing):
    project(tmp_path / "src", {"a.js": "var alpha = 1;"})
    project(tmp_path / "obf", {"a.js": "var a=1;"})
    roots = {"--orig": tmp_path / "src", "--obf": tmp_path / "obf"}
    roots[missing] = tmp_path / "nope"
    before = tree_bytes(tmp_path)
    rc = cli.main(["metrics", "--orig", str(roots["--orig"]), "--obf", str(roots["--obf"])])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("fatal: ") and "nope" in captured.err
    assert captured.out == ""
    assert tree_bytes(tmp_path) == before  # no metrics JSON


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--allowlist", None),
        ("--allowlist", b"caf\xe9\n"),
        ("--config", None),
        ("--config", b"{not json"),
        ("--config", b"7"),
        ("--config", b'{"engine": "node {file}"}'),
        ("--config", b'{"instrument_decode": true}'),
        ("--config", b'{"workers": "two"}'),
        ("--config", b'{"workers": true}'),
        ("--config", b'{"rename": "no"}'),
        ("--config", b'{"allowlist_path": 0}'),
    ],
)
def test_obfuscate_exit_3_on_bad_config_or_allowlist(tmp_path, capsys, flag, content):
    project(tmp_path / "src", {"a.js": "var a = 1;"})
    path = tmp_path / "settings"
    if content is not None:
        path.write_bytes(content)
    rc = cli.main(
        ["obfuscate", "--in", str(tmp_path / "src"), "--out", str(tmp_path / "dist"), flag, str(path)]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("fatal: ")


def test_flag_overrides_win_over_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2, "encode_strings": True}))
    project(tmp_path / "src", {"a.js": 'var s = "text-here"; console.log(s);'})
    rc = cli.main(
        [
            "obfuscate",
            "--config", str(cfg),
            "--in", str(tmp_path / "src"),
            "--out", str(tmp_path / "dist"),
            "--threads", "1",
            "--no-strings",
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "dist.report.json").read_text())
    assert report["config"]["workers"] == 1  # flag beat the config file
    assert report["config"]["encode_strings"] is False
    assert '"text-here"' in (tmp_path / "dist" / "a.js").read_text()


@pytest.mark.parametrize(
    "config, threads, expected",
    [
        (None, None, 2),  # the environment
        ({"minify": True}, None, 2),  # a config file without workers
        ({"workers": 1}, None, 1),  # the config file beats the environment
        ({"workers": 1}, "3", 3),  # the flag beats both
    ],
)
def test_worker_count_priority(tmp_path, monkeypatch, config, threads, expected):
    monkeypatch.setenv("SCOPESHIELD_THREADS", "2")
    project(tmp_path / "src", {"a.js": "var a = 1;"})
    argv = ["obfuscate", "--in", str(tmp_path / "src"), "--out", str(tmp_path / "dist")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    if threads is not None:
        argv += ["--threads", threads]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "dist.report.json").read_text())
    assert report["config"]["workers"] == expected


def test_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SCOPESHIELD_THREADS", "3")
    assert cli._default_threads() == 3
    monkeypatch.setenv("SCOPESHIELD_THREADS", "junk")
    assert cli._default_threads() >= 1


def test_verify_subcommand(tmp_path, node, capsys):
    project(tmp_path / "src", {"m.js": "console.log(2 + 3);"})
    assert cli.main(
        ["obfuscate", "--in", str(tmp_path / "src"), "--out", str(tmp_path / "obf"), "--threads", "1"]
    ) == 0
    save_cases([TestCase(entry="m.js")], tmp_path / "cases.json")
    rc = cli.main(
        [
            "verify",
            "--orig", str(tmp_path / "src"),
            "--obf", str(tmp_path / "obf"),
            "--cases", str(tmp_path / "cases.json"),
            "--engine", "node {file}",
            "--threads", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "equivalence rate: 100.0%" in out
    assert (tmp_path / "obf.verdicts.jsonl").is_file()


def test_verify_engine_not_found(tmp_path):
    project(tmp_path / "src", {"m.js": "1;"})
    project(tmp_path / "obf", {"m.js": "1;"})
    save_cases([TestCase(entry="m.js")], tmp_path / "cases.json")
    rc = cli.main(
        [
            "verify",
            "--orig", str(tmp_path / "src"),
            "--obf", str(tmp_path / "obf"),
            "--cases", str(tmp_path / "cases.json"),
            "--engine", "no-such-engine {file}",
        ]
    )
    assert rc == 3


@pytest.mark.parametrize(
    "manifest",
    [
        None,  # missing
        b"{not json",
        b'{"cases": [{"entry": "m.js", "bogus": 1}]}',
        b'{"cases": [{"args": []}]}',
        b'[{"entry": 5}]',
        b'[{"entry": "m.js", "mode": "fuzzy"}]',
        b'["m.js"]',
        b'{"entry": "m.js"}',
    ],
)
def test_verify_exit_3_on_bad_manifest(tmp_path, capsys, manifest):
    project(tmp_path / "src", {"m.js": "1;"})
    project(tmp_path / "obf", {"m.js": "1;"})
    cases = tmp_path / "cases.json"
    if manifest is not None:
        cases.write_bytes(manifest)
    rc = cli.main(
        ["verify", "--orig", str(tmp_path / "src"), "--obf", str(tmp_path / "obf"),
         "--cases", str(cases)]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("fatal: ")


def test_verify_names_the_rename_dump_only_when_it_exists(tmp_path, node, capsys):
    project(tmp_path / "src", {"m.js": 'var value = "same";\nconsole.log(value);'})
    save_cases([TestCase(entry="m.js")], tmp_path / "cases.json")
    for dump_flag in ([], ["--dump-renames"]):
        obf = tmp_path / ("obf" + "".join(dump_flag))
        argv = ["obfuscate", "--in", str(tmp_path / "src"), "--out", str(obf), "--threads", "1"]
        assert cli.main(argv + dump_flag) == 0
        (obf / "m.js").write_text('console.log("changed");')  # make the run diverge
        rc = cli.main(
            ["verify", "--orig", str(tmp_path / "src"), "--obf", str(obf),
             "--cases", str(tmp_path / "cases.json"), "--threads", "1"]
        )
        assert rc == 2
        verdict = json.loads((obf.parent / (obf.name + ".verdicts.jsonl")).read_text())
        assert verdict["status"] == "divergent"
        dump = obf.parent / (obf.name + ".dumps") / "renames" / "m.js.tsv"
        if dump_flag:
            assert dump.is_file() and verdict["rename_dump"] == str(dump)
        else:
            assert "rename_dump" not in verdict
    capsys.readouterr()


def test_metrics_subcommand(tmp_path, capsys):
    project(tmp_path / "src", {"a.js": "var alpha = 1;"})
    project(tmp_path / "obf", {"a.js": "var a=1;"})
    rc = cli.main(["metrics", "--orig", str(tmp_path / "src"), "--obf", str(tmp_path / "obf")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inflation" in out and "TOTAL" in out
    data = json.loads((tmp_path / "obf.metrics.json").read_text())
    assert data["aggregate"]["files"] == 1


def test_analyze_subcommand(tmp_path, capsys):
    project(
        tmp_path / "src",
        {
            "a.js": 'import {f} from "./b.js"; console.log(f(), Registry);',
            "b.js": "export function f(){ return 1; }\nvar Registry = {};",
            "c.js": "var Registry = {};",
        },
    )
    rc = cli.main(["analyze", "--in", str(tmp_path / "src"), "--dump-scopes"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "module#0" in out
    assert "files: 3\n  a.js\n  b.js\n  c.js\nfrozen names: 2\n" in out
    assert "edges:" not in out and " -> " not in out
    assert "  b.js: f (export)" in out
    assert "  c.js: Registry (script global)" in out
    assert "b.js: Registry" not in out  # module scope is not global
    assert "partition" not in out and "marker" not in out
    # the worker count only fed the partitioner, and the allowlist only the
    # implicit-global edges: both are gone
    for flag, value in (("--threads", "2"), ("--allowlist", "x")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--in", str(tmp_path / "src"), flag, value])
        assert exc.value.code == cli.USAGE_EXIT


def test_analyze_lists_files_unresolved_imports_and_frozen_names(tmp_path, capsys):
    project(
        tmp_path / "src",
        {
            "a.js": 'import {f} from "./b.js";\nimport "./gone.js";\nconsole.log(f());',
            "b.js": "export function f(){ return Registry; }\nvar Registry = {};",
            "c.js": "var Registry = {};",
        },
    )
    assert cli.main(["analyze", "--in", str(tmp_path / "src")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "files: 3",
        "  a.js",
        "  b.js",
        "  c.js",
        "  unresolved: a.js imports './gone.js'",
        "frozen names: 2",
        "  b.js: f (export)",
        "  c.js: Registry (script global)",
    ]


def test_analyze_scripts_declaring_one_global_keep_it_in_each(tmp_path, capsys):
    project(
        tmp_path / "src",
        {"a.js": "var Dup = 1;", "b.js": "var Dup = 2;", "c.js": "console.log(Dup);"},
    )
    assert cli.main(["analyze", "--in", str(tmp_path / "src")]) == 0
    out = capsys.readouterr().out
    assert "  a.js: Dup (script global)" in out
    assert "  b.js: Dup (script global)" in out


def test_analyze_reports_bad_files_and_goes_on(tmp_path, capsys):
    src = tmp_path / "src"
    project(
        src,
        {
            "deep.js": "var x=" + "(" * 5000 + "1" + ")" * 5000 + ";\n",
            "cut.js": "if (a) { f(); } else",
            "octal.js": 'import x from "./a\\1.js";',
            "brace.js": 'import x from "./\\u{zz}.js";',
            "good.js": "export function fine(){ return 1; }\nconsole.log(fine());",
        },
    )
    (src / "latin1.js").write_bytes("var caf\u00e9 = 'cr\u00e8me';\n".encode("latin-1"))
    assert cli.main(["analyze", "--in", str(src)]) == 2
    out = capsys.readouterr().out
    assert "deep.js: nesting too deep to analyze; not supported" in out
    assert "cut.js:20: unexpected end of input" in out
    assert "latin1.js: not valid UTF-8" in out
    assert "octal.js:14: bad string literal: legacy octal escape" in out
    assert "brace.js:14: bad string literal: malformed hex escape digits 'zz'" in out
    assert "files: 1\n  good.js" in out
    assert "  good.js: fine (export)" in out


def test_analyze_unsupported_only_exits_0(tmp_path, capsys):
    # obfuscate copies such files with a warning and exits 0; analyze agrees
    src = tmp_path / "src"
    project(
        src,
        {
            "labeled.js": "outer: for(;;) { break outer; }",
            "deep.js": "var x=" + "(" * 5000 + "1" + ")" * 5000 + ";\n",
            "good.js": "var fine = 1;\nconsole.log(fine);",
        },
    )
    assert cli.main(["analyze", "--in", str(src)]) == 0
    out = capsys.readouterr().out
    assert "not supported" in out and "deep.js: nesting too deep" in out
    assert "files: 1\n  good.js" in out


def test_analyze_parses_deep_callbacks_as_obfuscate_does(tmp_path, capsys):
    # 500 nested callbacks parse on a deep stack in both commands; 5,000
    # parentheses are still too deep for either
    deep = "f(function () {\n" * 500 + "g();\n" + "});\n" * 500
    parens = "var x=" + "(" * 5000 + "1" + ")" * 5000 + ";\n"
    src = tmp_path / "src"
    project(src, {"deep.js": deep, "parens.js": parens})
    assert cli.main(["analyze", "--in", str(src)]) == 0
    out = capsys.readouterr().out
    assert "parens.js: nesting too deep to analyze; not supported" in out
    assert "files: 1\n  deep.js" in out
    argv = ["obfuscate", "--in", str(src), "--out", str(tmp_path / "dist"), "--threads", "1"]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "dist.report.json").read_text())
    assert report["warnings"] == ["copied verbatim: parens.js: nesting too deep to analyze; not supported"]
    assert report["files_transformed"] == 1
    assert (tmp_path / "dist" / "deep.js").read_text() != deep


def test_obfuscate_and_analyze_report_offsets_into_the_input(tmp_path, capsys):
    # obfuscate minifies before it parses; its messages must still point
    # into the file as written, as analyze's do
    src = tmp_path / "src"
    files = {
        "labeled.js": "// a comment minifying drops\nvar a = 1;\nloop: for (;;) { break loop; }\n",
        "broken.js": "/* header */\nvar ok = 1;\nvar = 2;\n",
        "catch.js": "// x\ntry { f(); } catch (e) { var e = 1; }\n",
    }
    project(src, files)
    warning = f"labeled.js:{files['labeled.js'].index('loop:')}: labeled statements are not supported"
    error = f"broken.js:{files['broken.js'].index('= 2')}: expected identifier in declaration"
    rebind = f"catch.js:{files['catch.js'].index('e = 1')}: var 'e' redeclares a catch parameter"
    argv = ["obfuscate", "--in", str(src), "--out", str(tmp_path / "dist"), "--threads", "1"]
    assert cli.main(argv) == 2
    report = json.loads((tmp_path / "dist.report.json").read_text())
    assert sorted(report["warnings"]) == [f"copied verbatim: {rebind}", f"copied verbatim: {warning}"]
    assert report["errors"] == [{"file": "broken.js", "error": error}]
    capsys.readouterr()
    assert cli.main(["analyze", "--in", str(src)]) == 2
    assert capsys.readouterr().out.splitlines()[:3] == [error, rebind, warning]


def test_import_of_a_copied_file_is_not_unresolved(tmp_path, capsys):
    src = tmp_path / "src"
    project(
        src,
        {
            "a.js": 'import {f} from "./b.js";\nimport {g} from "./gone.js";\nconsole.log(f(), g());\n',
            "b.js": "export function f() { return 1; }\nvar = 2;\n",
        },
    )
    argv = ["obfuscate", "--in", str(src), "--out", str(tmp_path / "dist"), "--threads", "1"]
    assert cli.main(argv) == 2
    report = json.loads((tmp_path / "dist.report.json").read_text())
    assert report["warnings"] == ["a.js: unresolved import './gone.js' treated as external"]
    assert [error["file"] for error in report["errors"]] == ["b.js"]
    capsys.readouterr()
    assert cli.main(["analyze", "--in", str(src)]) == 2
    out = capsys.readouterr().out
    assert "  unresolved: a.js imports './gone.js'" in out
    assert "'./b.js'" not in out
