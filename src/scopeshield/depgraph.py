"""Cross-file dependency graph and frozen names.

Files are graph nodes. Import relationships give directed edges labelled with
the imported names; files touching the same non-environment global share an
implicit-global edge. The graph is a diagnostic for ``analyze``; obfuscation
needs only each file's frozen names and the list of unresolved imports.

Which module-level names of a file keep their original spelling follows from
the file alone (``frozen_names``). A module's declarations are module-scoped:
only the locals behind its exports are visible to other files. A script (no
``import`` or ``export`` declaration, not even ``export {}``, and not an
``.mjs`` file) declares its module-level names in the one global
namespace that all scripts share, so all of them keep their spelling, as
Terser and UglifyJS do by default.
"""

import posixpath


class DependencyGraph:
    """files: sorted ids; edges: (src, dst) -> set of shared names. Import
    edges point importer -> exporter; implicit-global edges use the sorted
    file pair. Imports that match no file make no edge; ``unresolved_imports``
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


def is_script(summary):
    """True for a file with no import or export declaration that is not an
    ``.mjs`` file: its module-level declarations are globals."""
    return not summary.module_syntax and not summary.file_id.endswith(".mjs")


def frozen_names(summary):
    """{name: reason} for the module-level names of one file that keep their
    spelling: a module's export locals ("export"), or every module-level
    declaration of a script ("script global"). Import bindings need no entry:
    the renamer keeps them unconditionally."""
    if is_script(summary):
        return dict.fromkeys(summary.declared_globals, "script global")
    return dict.fromkeys(sorted({local for local, _exported in summary.export_pairs}), "export")


def unresolved_imports(summaries, known_files):
    """The (importer, path) pairs of the summaries that match none of
    ``known_files``, the set of the project's JS files (copied ones too), in
    file order; their imports stay external."""
    return [
        (summary.file_id, path)
        for summary in sorted(summaries, key=lambda s: s.file_id)
        for path, _names in summary.imports
        if resolve_import(summary.file_id, path, known_files) is None
    ]


def build_dependency_graph(summaries, allowlist=()):
    """Build the file graph from per-file summaries.

    Environment names from the allowlist never create implicit-global edges;
    they are frozen unconditionally and need no coordination. Only scripts
    declare globals: a module's declarations make no edge.
    """
    graph = DependencyGraph()
    by_file = {s.file_id: s for s in summaries}
    graph.files = sorted(by_file)
    env = set(allowlist)

    involved_by_name = {}  # global -> files that read it free or declare it
    read_free = set()
    for file_id in graph.files:
        summary = by_file[file_id]
        for path, names in summary.imports:
            target = resolve_import(file_id, path, by_file)
            if target is not None and target != file_id:
                graph.add_edge(file_id, target, names)
        declared = summary.declared_globals if is_script(summary) else []
        for name in summary.free_names + declared:
            involved_by_name.setdefault(name, set()).add(file_id)
        read_free.update(summary.free_names)

    for name in sorted(read_free - env):
        involved = sorted(involved_by_name[name])
        for other in involved[1:]:
            graph.add_edge(involved[0], other, {name})
    return graph


def format_graph_report(graph, unresolved, frozen_by_file):
    """Plain-text dependency graph dump for the analyze subcommand, from
    ``build_dependency_graph``, ``unresolved_imports`` and each file's
    ``frozen_names``."""
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
