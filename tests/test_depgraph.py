from scopeshield.depgraph import (
    format_analyze_report,
    frozen_names,
    resolve_import,
    unresolved_imports,
)
from scopeshield.facts import FileSummary
from scopeshield.pipeline import front_end


def make_summary(file_id, imports=(), exports=(), declared=()):
    s = FileSummary(file_id)
    s.imports = list(imports)
    s.module_syntax = bool(imports or exports)
    s.export_locals = list(exports)
    s.declared_globals = list(declared)
    return s


def parsed(src, file_id):
    """(FileSummary, the sorted names ``src`` reads free)."""
    _gaps, tree, _candidates, summary = front_end(src, file_id)
    return summary, sorted(tree.globals)


def unresolved_of(summaries, known_files):
    """Each summary's unresolved imports, stably sorted by importer as the
    pipeline and ``analyze`` report them."""
    pairs = [
        pair for s in summaries for pair in unresolved_imports(s.file_id, s.imports, known_files)
    ]
    return sorted(pairs, key=lambda pair: pair[0])


def test_import_edge():
    # an import that names a project file resolves: it is not reported
    a = make_summary("a.js", imports=["./b.js"])
    b = make_summary("b.js", exports=["f"], declared=["f"])
    assert unresolved_of([a, b], {"a.js", "b.js"}) == []
    assert resolve_import("a.js", a.imports[0], {"a.js", "b.js"}) == "b.js"


def frozen_by_file(summaries):
    return {s.file_id: frozen_names(s) for s in summaries}


def test_unresolved_import_recorded():
    a = make_summary("a.js", imports=["./missing.js"])
    assert unresolved_imports("a.js", a.imports, {"a.js"}) == [("a.js", "./missing.js")]
    # a project file resolves an import even when it has no summary (it
    # was copied verbatim)
    assert unresolved_imports("a.js", a.imports, {"a.js", "missing.js"}) == []


def test_only_scripts_with_declarations_share_script_globals():
    # a script's module-level names are globals, so all keep their spelling;
    # a module keeps only its export locals
    assert frozen_names(make_summary("s.js", declared=["x", "y"])) == {
        "x": "script global",
        "y": "script global",
    }
    reader, free = parsed("console.log(x);", "r.js")
    assert free == ["console", "x"] and frozen_names(reader) == {}
    assert frozen_names(make_summary("e.js", exports=["x"], declared=["x", "y"])) == {
        "x": "export"
    }
    assert frozen_names(make_summary("i.js", imports=["./e.js"], declared=["y"])) == {}


def test_resolve_import_paths():
    files = {"lib/util.js", "main.js"}
    assert resolve_import("main.js", "./lib/util.js", files) == "lib/util.js"
    assert resolve_import("lib/util.js", "../main.js", files) == "main.js"
    assert resolve_import("main.js", "./lib/util", files) == "lib/util.js"
    assert resolve_import("main.js", "left-pad", files) is None


def test_link_deterministic_under_input_order():
    files = [
        make_summary("a.js", imports=["./b.js", "./gone.js"]),
        make_summary("b.js", exports=["f"], declared=["f", "Shared"]),
        make_summary("c.js", declared=["Shared"]),
        make_summary("d.js"),
    ]
    backward = list(reversed(files))
    ids = {s.file_id for s in files}
    assert unresolved_of(files, ids) == unresolved_of(backward, ids) == [("a.js", "./gone.js")]
    assert frozen_by_file(files) == frozen_by_file(backward)


def test_marker_for_consumed_export():
    a = make_summary("a.js", imports=["./b.js"])
    b = make_summary("b.js", exports=["f"])
    assert unresolved_of([a, b], {"a.js", "b.js"}) == []
    assert frozen_by_file([a, b]) == {"a.js": {}, "b.js": {"f": "export"}}


def test_export_frozen_under_its_local_name():
    b, _free = parsed("var impl = 1;\nexport {impl as api};", "b.js")
    assert b.export_locals == ["impl"]
    assert frozen_names(b) == {"impl": "export"}


def test_marker_for_shared_undeclared_global_is_frozen_to_original():
    # a global read free by two files and declared by neither belongs to no
    # file: nothing to freeze, since free names are never renamed
    a, free_a = parsed("GameGlobal.x = 1;", "a.js")
    b, free_b = parsed("console.log(GameGlobal);", "b.js")
    assert "GameGlobal" in free_a and "GameGlobal" in free_b
    assert frozen_by_file([a, b]) == {"a.js": {}, "b.js": {}}


def test_no_cross_names_means_no_markers():
    # modules without exports: every module-level name is renameable
    a = make_summary("a.js", imports=["./b.js"], declared=["x"])
    b = make_summary("b.js", imports=["./a.js"], declared=["y"])
    assert unresolved_of([a, b], {"a.js", "b.js"}) == []
    assert frozen_by_file([a, b]) == {"a.js": {}, "b.js": {}}


def test_module_declaration_read_free_elsewhere_stays_renameable():
    # module scope is not global: a file reading the name free never sees
    # the module's binding, so the module renames it
    a = make_summary("a.js", exports=["api"], declared=["api", "Registry"])
    assert frozen_names(a) == {"api": "export"}


def test_export_reason_wins_over_implicit_global():
    a = make_summary("a.js", exports=["Api"], declared=["Api"])
    b, free = parsed("console.log(Api);", "b.js")
    assert "Api" in free
    assert frozen_by_file([a, b])["a.js"] == {"Api": "export"}


def test_scripts_declaring_one_global_each_keep_it():
    # two scripts declaring one global and a third reading it: each
    # declaration keeps its spelling
    a = make_summary("a.js", declared=["Dup"])
    b = make_summary("b.js", declared=["Dup"])
    c, _free = parsed("console.log(Dup);", "c.js")
    assert frozen_by_file([a, b, c]) == {
        "a.js": {"Dup": "script global"},
        "b.js": {"Dup": "script global"},
        "c.js": {},
    }


def test_allowlist_names_never_create_edges_or_markers():
    a = make_summary("a.js", declared=["Math"])
    b = make_summary("b.js", declared=["console"])
    # a script keeps its own declarations whether or not they are allowlisted
    assert frozen_by_file([a, b]) == {
        "a.js": {"Math": "script global"},
        "b.js": {"console": "script global"},
    }


def test_graph_report_lists_frozen_names_with_reasons():
    a = make_summary("a.js", imports=["./b.js", "./gone.js"])
    b = make_summary("b.js", exports=["f"], declared=["f", "Registry"])
    c = make_summary("c.js", declared=["Registry"])
    summaries = [a, b, c]
    unresolved = unresolved_of(summaries, {"a.js", "b.js", "c.js"})
    text = format_analyze_report(unresolved, frozen_by_file(summaries))
    assert text.splitlines() == [
        "files: 3",
        "  a.js",
        "  b.js",
        "  c.js",
        "  unresolved: a.js imports './gone.js'",
        "frozen names: 2",
        "  b.js: f (export)",
        "  c.js: Registry (script global)",
    ]


def test_empty_export_and_mjs_make_a_module():
    text = "function helperFunction() {}\n"
    assert frozen_names(front_end(text, "a.js")[3]) == {
        "helperFunction": "script global"
    }
    for src, rel in ((text + "export {};\n", "a.js"), (text, "a.mjs"), (text, "lib/a.mjs")):
        summary = front_end(src, rel)[3]
        assert frozen_names(summary) == {}
