"""Cross-file facts, each read from one parsed file: the names a file keeps
(``renamer.frozen_names``) and the imports no project file matches
(``pipeline.unresolved_imports``). No step links the files to one another."""

from conftest import module_names
from scopeshield.pipeline import front_end, unresolved_imports
from scopeshield.renamer import frozen_names


def parsed(src, file_id):
    """(ScopeTree, FileSummary) of ``src`` parsed as ``file_id``."""
    _gaps, tree, _candidates, summary = front_end(src, file_id)
    return tree, summary


def frozen_by_file(sources):
    """{file: its frozen names} for a {file: source} project."""
    return {file_id: frozen_names(*parsed(src, file_id)) for file_id, src in sources.items()}


def unresolved_of(sources, known_files):
    """Each file's unresolved imports, stably sorted by importer as the
    pipeline and ``analyze`` report them."""
    pairs = [
        pair
        for file_id, src in sources.items()
        for pair in unresolved_imports(file_id, parsed(src, file_id)[1].imports, known_files)
    ]
    return sorted(pairs, key=lambda pair: pair[0])


def test_import_edge():
    # an import that names a project file resolves: it is not reported
    sources = {"a.js": 'import {f} from "./b.js";\nf();', "b.js": "export function f() {}"}
    assert parsed(sources["a.js"], "a.js")[1].imports == ["./b.js"]
    assert unresolved_of(sources, {"a.js", "b.js"}) == []
    assert unresolved_of(sources, {"a.js"}) == [("a.js", "./b.js")]


def test_unresolved_import_recorded():
    _tree, a = parsed('import "./missing.js";', "a.js")
    assert unresolved_imports("a.js", a.imports, {"a.js"}) == [("a.js", "./missing.js")]
    # a project file resolves an import even when it has no summary (it
    # was copied verbatim)
    assert unresolved_imports("a.js", a.imports, {"a.js", "missing.js"}) == []


def test_only_scripts_with_declarations_share_script_globals():
    # a script's module-level names are globals, so all keep their spelling;
    # a module keeps only its export locals
    tree, script = parsed("var x = 1, y = 2;", "s.js")
    assert module_names(tree) == ["x", "y"]
    assert frozen_names(tree, script) == {"x": "script global", "y": "script global"}
    reader, summary = parsed("console.log(x);", "r.js")
    assert sorted(reader.globals) == ["console", "x"] and frozen_names(reader, summary) == {}
    assert frozen_names(*parsed("export var x = 1; var y = 2;", "e.js")) == {"x": "export"}
    assert frozen_names(*parsed('import "./e.js";\nvar y = 1;', "i.js")) == {}


def test_resolve_import_paths():
    files = {"lib/util.js", "main.js"}
    assert unresolved_imports("main.js", ["./lib/util.js"], files) == []
    assert unresolved_imports("lib/util.js", ["../main.js"], files) == []
    assert unresolved_imports("main.js", ["./lib/util"], files) == []
    assert unresolved_imports("main.js", ["left-pad"], files) == [("main.js", "left-pad")]


def test_link_deterministic_under_input_order():
    files = {
        "a.js": 'import "./b.js";\nimport "./gone.js";',
        "b.js": "export function f() {}\nvar Shared = 1;",
        "c.js": "var Shared = 2;",
        "d.js": "",
    }
    backward = dict(reversed(files.items()))
    assert unresolved_of(files, set(files)) == unresolved_of(backward, set(files)) == [("a.js", "./gone.js")]
    assert frozen_by_file(files) == frozen_by_file(backward)


def test_marker_for_consumed_export():
    sources = {"a.js": 'import {f} from "./b.js";\nf();', "b.js": "export function f() {}"}
    assert unresolved_of(sources, {"a.js", "b.js"}) == []
    assert frozen_by_file(sources) == {"a.js": {}, "b.js": {"f": "export"}}


def test_module_declaration_read_free_elsewhere_stays_renameable():
    # module scope is not global: a file reading the name free never sees
    # the module's binding, so the module renames it
    tree, a = parsed("export var api = 1; var Registry = {};", "a.js")
    assert module_names(tree) == ["Registry", "api"]
    assert frozen_names(tree, a) == {"api": "export"}
    reader, _b = parsed("console.log(Registry);", "b.js")
    assert "Registry" in reader.globals


def test_export_reason_wins_over_implicit_global():
    sources = {"a.js": "export var Api = 1;", "b.js": "console.log(Api);"}
    assert "Api" in parsed(sources["b.js"], "b.js")[0].globals
    assert frozen_by_file(sources)["a.js"] == {"Api": "export"}


def test_scripts_declaring_one_global_each_keep_it():
    # two scripts declaring one global and a third reading it: each
    # declaration keeps its spelling
    sources = {"a.js": "var Dup = 1;", "b.js": "var Dup = 2;", "c.js": "console.log(Dup);"}
    assert frozen_by_file(sources) == {
        "a.js": {"Dup": "script global"},
        "b.js": {"Dup": "script global"},
        "c.js": {},
    }
