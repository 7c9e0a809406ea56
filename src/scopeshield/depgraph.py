"""Which module-level names of a file keep their spelling, and which of its
imports match no JS file of the project; both follow from the file alone.

A module's declarations are module-scoped: only the locals behind its
exports are visible to other files, so only they keep their spelling
(``frozen_names``). A script (no ``import`` or ``export`` declaration, not
even ``export {}``, and not an ``.mjs`` file) declares its module-level
names in the one global namespace that all scripts share, so all of them
keep their spelling, as Terser and UglifyJS do by default. An import that
matches no project file stays external and is reported.
"""

import posixpath


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
    return dict.fromkeys(sorted(set(summary.export_locals)), "export")


def unresolved_imports(importer, paths, known_files):
    """The (importer, path) pairs of one file's import ``paths`` that match
    none of ``known_files``, the set of the project's JS files (copied ones
    too), in source order; these imports stay external."""
    return [
        (importer, path) for path in paths if resolve_import(importer, path, known_files) is None
    ]


def format_analyze_report(unresolved, frozen_by_file):
    """Plain-text report for the analyze subcommand: the files it parsed,
    the ``unresolved_imports`` and each file's ``frozen_names``."""
    files = sorted(frozen_by_file)
    lines = [f"files: {len(files)}"] + [f"  {f}" for f in files]
    lines += (f"  unresolved: {importer} imports {path!r}" for importer, path in unresolved)
    lines.append(f"frozen names: {sum(len(names) for names in frozen_by_file.values())}")
    for f in files:
        for name, reason in sorted(frozen_by_file[f].items()):
            lines.append(f"  {f}: {name} ({reason})")
    return "\n".join(lines)
