"""Cross-file dependency graph and linking.

Files are graph nodes. Import relationships give directed edges labelled with
the imported names; two files touching the same non-environment undeclared
global share an implicit-global edge. The graph is a diagnostic for
``analyze``; obfuscation needs only the link.

Linking decides which module-level names of each file must keep their
original spelling, which is all the per-file obfuscation needs to rename
files independently: the locals behind the file's own exports, which the
file knows alone, and module declarations that another file reads as free
globals, which only the whole project shows.
"""

import posixpath

from .errors import ConflictingExport


class DependencyGraph:
    """files: sorted ids; edges: (src, dst) -> set of shared names. Import
    edges point importer -> exporter; implicit-global edges use the sorted
    file pair. Imports that match no file make no edge; ``link_cross_file``
    lists them."""

    def __init__(self):
        self.files = []
        self.edges = {}

    def add_edge(self, src, dst, names):
        if not names:
            return
        self.edges.setdefault((src, dst), set()).update(names)


def resolve_import(importer, path, known_files):
    """Resolve a relative import path against the importer's directory."""
    if not path.startswith("."):
        return None
    base = posixpath.dirname(importer)
    candidate = posixpath.normpath(posixpath.join(base, path))
    if candidate in known_files:
        return candidate
    if candidate + ".js" in known_files:
        return candidate + ".js"
    return None


def _global_name_index(by_file, files, env):
    """(free_by_name, declared_by_name): for each non-environment name, the
    files that read it free and the files that declare it at module scope,
    in ``files`` order."""
    free_by_name = {}
    declared_by_name = {}
    for file_id in files:
        summary = by_file[file_id]
        for name in summary.free_names:
            if name not in env:
                free_by_name.setdefault(name, []).append(file_id)
        for name in summary.declared_globals:
            if name not in env:
                declared_by_name.setdefault(name, []).append(file_id)
    return free_by_name, declared_by_name


def build_dependency_graph(summaries, allowlist=()):
    """Build the file graph from per-file summaries.

    Environment names from the allowlist never create implicit-global edges;
    they are frozen unconditionally and need no coordination.
    """
    graph = DependencyGraph()
    by_file = {s.file_id: s for s in summaries}
    graph.files = sorted(by_file)

    for file_id in graph.files:
        for path, names in by_file[file_id].imports:
            target = resolve_import(file_id, path, by_file)
            if target is not None and target != file_id:
                graph.add_edge(file_id, target, names)

    free_by_name, declared_by_name = _global_name_index(by_file, graph.files, set(allowlist))
    for name, readers in sorted(free_by_name.items()):
        declarers = declared_by_name.get(name, [])
        involved = sorted(set(readers) | set(declarers))
        if len(involved) < 2:
            continue
        first = involved[0]
        for other in involved[1:]:
            graph.add_edge(first, other, {name})
    return graph


def export_locals(summary):
    """The module-level names a file freezes on its own: the locals behind
    its exports."""
    return {local for local, _exported in summary.export_pairs}


def shares_script_globals(summary):
    """True for a script (no import or export) that declares module-level
    names. A script's declarations are globals that other files may read, so
    only the link knows which of them keep their spelling. A module's
    declarations are module-scoped; the link freezes one only when another
    file happens to read the same name free."""
    return not summary.imports and not summary.exports and bool(summary.declared_globals)


def link_cross_file(summaries, allowlist=()):
    """Resolve cross-file visibility into per-file frozen names.

    Returns (unresolved, frozen_by_file). ``unresolved`` lists the
    (importer, path) pairs that match no file; their imports stay external.
    ``frozen_by_file`` maps each file id to {name: reason} for the
    module-level names that must keep their spelling: "export" for the
    locals behind exports (``export_locals``), and "read as implicit global
    by <files>" for a module declaration that other files read free. Import
    bindings need no entry: the renamer keeps them unconditionally. Raises
    ConflictingExport when one name is declared at module scope in several
    files while also read as an implicit global elsewhere.
    """
    by_file = {s.file_id: s for s in summaries}
    files = sorted(by_file)
    unresolved = []
    frozen_by_file = {}
    for file_id in files:
        summary = by_file[file_id]
        for path, _names in summary.imports:
            if resolve_import(file_id, path, by_file) is None:
                unresolved.append((file_id, path))
        frozen_by_file[file_id] = dict.fromkeys(sorted(export_locals(summary)), "export")

    free_by_name, declared_by_name = _global_name_index(by_file, files, set(allowlist))
    for name in sorted(free_by_name):
        readers = free_by_name[name]
        reader_set = set(readers)
        declarers = [f for f in declared_by_name.get(name, ()) if f not in reader_set]
        if len(declarers) > 1:
            raise ConflictingExport(
                f"{name!r} is declared at module scope in {declarers} and "
                f"consumed as an implicit global by {readers}"
            )
        if declarers:
            frozen_by_file[declarers[0]].setdefault(
                name, "read as implicit global by " + ", ".join(readers)
            )
    return unresolved, frozen_by_file


def format_graph_report(graph, unresolved, frozen_by_file):
    """Plain-text dependency graph dump for the analyze subcommand, from
    ``build_dependency_graph`` and the two results of ``link_cross_file``:
    unresolved imports, and each file's frozen names with why they keep
    their spelling."""
    lines = [f"files: {len(graph.files)}"]
    for f in graph.files:
        lines.append(f"  {f}")
    lines.append(f"edges: {len(graph.edges)}")
    for (a, b), names in sorted(graph.edges.items()):
        lines.append(f"  {a} -> {b}: {', '.join(sorted(names))}")
    for importer, path in unresolved:
        lines.append(f"  unresolved: {importer} imports {path!r}")
    lines.append(f"frozen names: {sum(len(names) for names in frozen_by_file.values())}")
    for f in sorted(frozen_by_file):
        for name, reason in sorted(frozen_by_file[f].items()):
            lines.append(f"  {f}: {name} ({reason})")
    return "\n".join(lines)
