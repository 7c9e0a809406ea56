import pytest

from scopeshield.depgraph import (
    build_dependency_graph,
    export_locals,
    format_graph_report,
    link_cross_file,
    resolve_import,
    shares_script_globals,
)
from scopeshield.errors import ConflictingExport
from scopeshield.parser import FileSummary


def make_summary(file_id, imports=(), exports=(), declared=(), free=()):
    s = FileSummary(file_id)
    s.imports = list(imports)
    s.exports = list(exports)
    s.export_pairs = [(n, n) for n in exports]
    s.declared_globals = list(declared)
    s.free_names = list(free)
    return s


def test_import_edge():
    a = make_summary("a.js", imports=[("./b.js", ["f"])])
    b = make_summary("b.js", exports=["f"], declared=["f"])
    graph = build_dependency_graph([a, b])
    assert graph.edges == {("a.js", "b.js"): {"f"}}


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
    unresolved, _frozen = link_cross_file([a])
    assert unresolved == [("a.js", "./missing.js")]


def test_only_scripts_with_declarations_share_script_globals():
    assert shares_script_globals(make_summary("s.js", declared=["x"]))
    assert not shares_script_globals(make_summary("r.js", free=["x"]))
    assert not shares_script_globals(make_summary("e.js", exports=["x"], declared=["x", "y"]))
    assert not shares_script_globals(
        make_summary("i.js", imports=[("./e.js", ["x"])], declared=["y"])
    )


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
    forward = link_cross_file(files)
    backward = link_cross_file(list(reversed(files)))
    assert forward == backward
    assert forward[0] == [("a.js", "./gone.js")]
    assert list(forward[1]) == ["a.js", "b.js", "c.js", "d.js"]


def test_marker_for_consumed_export():
    a = make_summary("a.js", imports=[("./b.js", ["f"])])
    b = make_summary("b.js", exports=["f"])
    unresolved, frozen = link_cross_file([a, b])
    assert unresolved == []
    assert frozen == {"a.js": {}, "b.js": {"f": "export"}}
    assert set(frozen["b.js"]) == export_locals(b)


def test_export_frozen_under_its_local_name():
    b = make_summary("b.js", exports=["api"])
    b.export_pairs = [("impl", "api")]
    _unresolved, frozen = link_cross_file([b])
    assert frozen == {"b.js": {"impl": "export"}}


def test_marker_for_shared_undeclared_global_is_frozen_to_original():
    # a global read free by two files and declared by neither belongs to no
    # file: nothing to freeze, since free names are never renamed
    a = make_summary("a.js", free=["GameGlobal"])
    b = make_summary("b.js", free=["GameGlobal"])
    _unresolved, frozen = link_cross_file([a, b])
    assert frozen == {"a.js": {}, "b.js": {}}


def test_no_cross_names_means_no_markers():
    a = make_summary("a.js", declared=["x"])
    b = make_summary("b.js", declared=["y"])
    unresolved, frozen = link_cross_file([a, b])
    assert unresolved == []
    assert frozen == {"a.js": {}, "b.js": {}}


def test_module_declaration_read_as_implicit_global_gets_frozen():
    a = make_summary("a.js", declared=["Registry"])
    b = make_summary("b.js", free=["Registry"])
    c = make_summary("c.js", free=["Registry"])
    _unresolved, frozen = link_cross_file([a, b, c])
    assert frozen["a.js"] == {"Registry": "read as implicit global by b.js, c.js"}
    assert len(frozen["a.js"]) > len(export_locals(a))


def test_export_reason_wins_over_implicit_global():
    a = make_summary("a.js", exports=["Api"], declared=["Api"])
    b = make_summary("b.js", free=["Api"])
    _unresolved, frozen = link_cross_file([a, b])
    assert frozen["a.js"] == {"Api": "export"}


def test_conflicting_export_detected():
    a = make_summary("a.js", declared=["Dup"])
    b = make_summary("b.js", declared=["Dup"])
    c = make_summary("c.js", free=["Dup"])
    with pytest.raises(ConflictingExport):
        link_cross_file([a, b, c])


def test_allowlist_names_never_create_edges_or_markers():
    a = make_summary("a.js", free=["console", "Math"], declared=["Math"])
    b = make_summary("b.js", free=["console"], declared=["console"])
    graph = build_dependency_graph([a, b], allowlist={"console", "Math"})
    assert graph.edges == {}
    _unresolved, frozen = link_cross_file([a, b], allowlist={"console", "Math"})
    assert frozen == {"a.js": {}, "b.js": {}}


def test_graph_report_lists_frozen_names_with_reasons():
    a = make_summary(
        "a.js", imports=[("./b.js", ["f"]), ("./gone.js", ["g"])], free=["Registry"]
    )
    b = make_summary("b.js", exports=["f"], declared=["f", "Registry"])
    graph = build_dependency_graph([a, b])
    unresolved, frozen = link_cross_file([a, b])
    text = format_graph_report(graph, unresolved, frozen)
    assert "  unresolved: a.js imports './gone.js'" in text
    assert "a.js -> b.js: Registry, f" in text
    assert "frozen names: 2" in text
    assert "  b.js: Registry (read as implicit global by a.js)" in text
    assert "  b.js: f (export)" in text
