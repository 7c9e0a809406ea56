from scopeshield.depgraph import (
    build_dependency_graph,
    format_graph_report,
    frozen_names,
    resolve_import,
    unresolved_imports,
)
from scopeshield.facts import FileSummary


def make_summary(file_id, imports=(), exports=(), declared=(), free=()):
    s = FileSummary(file_id)
    s.imports = list(imports)
    s.module_syntax = bool(imports or exports)
    s.export_pairs = [(n, n) for n in exports]
    s.declared_globals = list(declared)
    s.free_names = list(free)
    return s


def test_import_edge():
    a = make_summary("a.js", imports=[("./b.js", ["f"])])
    b = make_summary("b.js", exports=["f"], declared=["f"])
    graph = build_dependency_graph([a, b])
    assert graph.edges == {("a.js", "b.js"): {"f"}}


def frozen_by_file(summaries):
    return {s.file_id: frozen_names(s) for s in summaries}


def test_shared_implicit_global_edge():
    # pairwise-intersection oracle: the only name both files touch freely
    a = make_summary("a.js", free=["GameGlobal", "console"])
    b = make_summary("b.js", free=["GameGlobal"])
    graph = build_dependency_graph([a, b], allowlist={"console"})
    shared = set()
    for name in set(a.free_names) & set(b.free_names):
        if name != "console":
            shared.add(name)
    assert graph.edges == {("a.js", "b.js"): shared} and shared == {"GameGlobal"}


def test_self_contained_files_have_no_edges():
    graph = build_dependency_graph(
        [make_summary("a.js", declared=["x"]), make_summary("b.js", declared=["x"])]
    )
    assert graph.edges == {}


def test_unresolved_import_recorded():
    a = make_summary("a.js", imports=[("./missing.js", ["gone"])])
    assert build_dependency_graph([a]).edges == {}
    assert unresolved_imports([a], {"a.js"}) == [("a.js", "./missing.js")]
    # a project file resolves an import even when it has no summary (it
    # was copied verbatim)
    assert unresolved_imports([a], {"a.js", "missing.js"}) == []


def test_only_scripts_with_declarations_share_script_globals():
    # a script's module-level names are globals, so all keep their spelling;
    # a module keeps only its export locals
    assert frozen_names(make_summary("s.js", declared=["x", "y"])) == {
        "x": "script global",
        "y": "script global",
    }
    assert frozen_names(make_summary("r.js", free=["x"])) == {}
    assert frozen_names(make_summary("e.js", exports=["x"], declared=["x", "y"])) == {
        "x": "export"
    }
    assert frozen_names(make_summary("i.js", imports=[("./e.js", ["x"])], declared=["y"])) == {}


def test_resolve_import_paths():
    files = {"lib/util.js", "main.js"}
    assert resolve_import("main.js", "./lib/util.js", files) == "lib/util.js"
    assert resolve_import("lib/util.js", "../main.js", files) == "main.js"
    assert resolve_import("main.js", "./lib/util", files) == "lib/util.js"
    assert resolve_import("main.js", "left-pad", files) is None


def test_link_deterministic_under_input_order():
    files = [
        make_summary("a.js", imports=[("./b.js", ["f"]), ("./gone.js", ["g"])]),
        make_summary("b.js", exports=["f"], declared=["f", "Shared"]),
        make_summary("c.js", free=["Shared"]),
        make_summary("d.js", free=["Shared"]),
    ]
    backward = list(reversed(files))
    ids = [s.file_id for s in files]
    assert (
        unresolved_imports(files, set(ids))
        == unresolved_imports(backward, set(ids))
        == [("a.js", "./gone.js")]
    )
    graph = build_dependency_graph(files)
    assert graph.edges == build_dependency_graph(backward).edges
    assert graph.edges == {("a.js", "b.js"): {"f"}, ("c.js", "d.js"): {"Shared"}}


def test_marker_for_consumed_export():
    a = make_summary("a.js", imports=[("./b.js", ["f"])])
    b = make_summary("b.js", exports=["f"])
    assert unresolved_imports([a, b], {"a.js", "b.js"}) == []
    assert frozen_by_file([a, b]) == {"a.js": {}, "b.js": {"f": "export"}}


def test_export_frozen_under_its_local_name():
    b = make_summary("b.js", exports=["api"])
    b.export_pairs = [("impl", "api")]
    assert frozen_names(b) == {"impl": "export"}


def test_marker_for_shared_undeclared_global_is_frozen_to_original():
    # a global read free by two files and declared by neither belongs to no
    # file: nothing to freeze, since free names are never renamed
    a = make_summary("a.js", free=["GameGlobal"])
    b = make_summary("b.js", free=["GameGlobal"])
    assert frozen_by_file([a, b]) == {"a.js": {}, "b.js": {}}


def test_no_cross_names_means_no_markers():
    # modules without exports: every module-level name is renameable
    a = make_summary("a.js", imports=[("./b.js", [])], declared=["x"])
    b = make_summary("b.js", imports=[("./a.js", [])], declared=["y"])
    assert unresolved_imports([a, b], {"a.js", "b.js"}) == []
    assert frozen_by_file([a, b]) == {"a.js": {}, "b.js": {}}


def test_module_declaration_read_free_elsewhere_stays_renameable():
    # module scope is not global: a file reading the name free never sees
    # the module's binding, so the module renames it and no edge joins them
    a = make_summary("a.js", exports=["api"], declared=["api", "Registry"])
    b = make_summary("b.js", free=["Registry"])
    assert frozen_names(a) == {"api": "export"}
    assert build_dependency_graph([a, b]).edges == {}


def test_export_reason_wins_over_implicit_global():
    a = make_summary("a.js", exports=["Api"], declared=["Api"])
    b = make_summary("b.js", free=["Api"])
    assert frozen_by_file([a, b])["a.js"] == {"Api": "export"}


def test_scripts_declaring_one_global_each_keep_it():
    # two scripts declaring one global and a third reading it: each
    # declaration keeps its spelling, and all three share an edge
    a = make_summary("a.js", declared=["Dup"])
    b = make_summary("b.js", declared=["Dup"])
    c = make_summary("c.js", free=["Dup"])
    assert frozen_by_file([a, b, c]) == {
        "a.js": {"Dup": "script global"},
        "b.js": {"Dup": "script global"},
        "c.js": {},
    }
    assert build_dependency_graph([a, b, c]).edges == {
        ("a.js", "b.js"): {"Dup"},
        ("a.js", "c.js"): {"Dup"},
    }


def test_allowlist_names_never_create_edges_or_markers():
    a = make_summary("a.js", free=["console", "Math"], declared=["Math"])
    b = make_summary("b.js", free=["console"], declared=["console"])
    graph = build_dependency_graph([a, b], allowlist={"console", "Math"})
    assert graph.edges == {}
    # a script keeps its own declarations whether or not they are allowlisted
    assert frozen_by_file([a, b]) == {
        "a.js": {"Math": "script global"},
        "b.js": {"console": "script global"},
    }


def test_graph_report_lists_frozen_names_with_reasons():
    a = make_summary(
        "a.js", imports=[("./b.js", ["f"]), ("./gone.js", ["g"])], free=["Registry"]
    )
    b = make_summary("b.js", exports=["f"], declared=["f", "Registry"])
    c = make_summary("c.js", declared=["Registry"])
    summaries = [a, b, c]
    graph = build_dependency_graph(summaries)
    unresolved = unresolved_imports(summaries, {"a.js", "b.js", "c.js"})
    text = format_graph_report(graph, unresolved, frozen_by_file(summaries))
    assert "  unresolved: a.js imports './gone.js'" in text
    assert "a.js -> b.js: f" in text
    assert "a.js -> c.js: Registry" in text
    assert "frozen names: 2" in text
    assert "  b.js: f (export)" in text
    assert "  c.js: Registry (script global)" in text


def test_empty_export_and_mjs_make_a_module():
    from scopeshield.pipeline import front_end

    text = "function helperFunction() {}\n"
    assert frozen_names(front_end(text, "a.js")[3]) == {
        "helperFunction": "script global"
    }
    for src, rel in ((text + "export {};\n", "a.js"), (text, "a.mjs"), (text, "lib/a.mjs")):
        summary = front_end(src, rel)[3]
        assert frozen_names(summary) == {}
