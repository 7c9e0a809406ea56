"""End-to-end obfuscation pipeline.

One pass per file. A file's output is a pure function of the file: its
frozen names, the module-level names that keep their spelling, follow from
its own facts (``renamer.frozen_names``). Each file task parses its file once
(a file too deeply nested for the default stack gets one retry, see
``front_end``), and the parser lexes it as it reads, a batch of tokens at a
time: it builds no syntax tree but the file's facts, its scope tree, its
transform candidates, its summary and the lexer's gap table, which minifies.
Every span indexes the file as written. The task then renames, transforms
and emits it. The transforms read only their candidates and the file, the
same with minifying on or off: the gap table keeps a space between a word
and a string literal, which is all a decoder call needs. The emit applies
the gap table, when minifying, with the transforms' edits, and writes the
renames straight from the occurrence table. The scope tree and the
candidates are freed before it, so a file's peak memory is not the sum of
every layer's. On a process pool the largest-first file list goes out in
consecutive chunks, one task each and about ``TASKS_PER_WORKER`` tasks per
worker, so that many small files do not cost the parent one future each.
Output bytes are identical for any worker count or scheduling order. The
parent holds one chunk's results at a time: it writes each output as it
arrives and keeps neither its text nor its import paths, only the imports
that match no JS file of the project, which it reports in file order once
every file is done. If a worker process dies, the files whose results are
missing run again one at a time.

Each file gets one string table, held by its decoder's one state variable,
and one property-slot map, injected together after the file's directive
prologue. The cyclic garbage collector is paused while a file is processed
and restored to its prior state afterwards: scope trees are acyclic and
freed by reference counting, while collections triggered mid-file would
rescan a heap that grows with the file.
"""

import gc
import json
import os
import posixpath
import resource
import shutil
import stat
import sys
import threading
import time
import zlib
from pathlib import Path

from .errors import FatalConfigError, ScopeShieldError, UnsupportedSyntax
from .externals import load_allowlist
from .parser import parse
from .patches import Edits, emit
from .renamer import check_safety, dump_lines, frozen_names, name_sequence, rename_tree
from .transforms import encode_strings, rewrite_property_access

JS_SUFFIXES = (".js", ".mjs")


class ObfuscationConfig:
    """One run's settings: the ``FIELDS``, by keyword, each left out at its default."""

    # name -> (type, default); a config file may give null only where the default is None
    FIELDS = {
        "input_root": (str, ""),
        "output_root": (str, ""),
        "workers": (int, 1),
        "rename": (bool, True),
        "encode_strings": (bool, True),
        "rewrite_properties": (bool, True),
        "minify": (bool, True),
        "allowlist_path": (str, None),
        "dump_renames": (bool, False),
    }

    def __init__(self, **values):
        for name, (_type, default) in self.FIELDS.items():
            setattr(self, name, values.pop(name, default))
        if values:
            raise TypeError(f"unknown config fields: {sorted(values)}")

    @classmethod
    def from_file(cls, path, **defaults):
        """The config a JSON file gives; fields it leaves out take
        ``defaults``, else the field defaults."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise FatalConfigError(f"cannot read config {path}: {exc.strerror}") from exc
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise FatalConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FatalConfigError(f"config {path} must hold a JSON object")
        unknown = set(data) - set(cls.FIELDS)
        if unknown:
            raise FatalConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            kind, default = cls.FIELDS[key]
            # exact type: a bool is no int; null only where it is the default
            if type(value) is not kind and not (value is None and default is None):
                raise FatalConfigError(
                    f"config key {key!r} must be {kind.__name__}, not {json.dumps(value)}"
                )
        return cls(**{**defaults, **data})

    def merged(self, overrides):
        kept = {key: value for key, value in overrides.items() if value is not None}
        return ObfuscationConfig(**{**vars(self), **kept})


def discover_files(input_root):
    """All files under the root, split into JS sources and the rest, and
    the size of each: (JS paths, other paths, {path: bytes}), in one walk.

    Paths are '/'-separated and relative to the root, sorted by their
    components, as ``pathlib`` sorts them (`a/x.js` before `a-b/x.js`). A
    symlink to a file counts as that file; the walk does not enter a
    symlink to a directory, and skips a broken link.
    """
    sizes = {}
    for dirpath, _dirnames, filenames in os.walk(input_root):
        rel_dir = os.path.relpath(dirpath, input_root)
        prefix = "" if rel_dir == "." else rel_dir.replace(os.sep, "/") + "/"
        for name in filenames:
            try:
                info = os.stat(os.path.join(dirpath, name))
            except OSError:
                continue
            if stat.S_ISREG(info.st_mode):
                sizes[prefix + name] = info.st_size
    js_files = []
    other_files = []
    for rel in sorted(sizes, key=lambda rel: rel.split("/")):
        dot = rel.rfind(".")
        # ``PurePath.suffix``: a name's last dot, unless it leads or ends it
        suffix = rel[dot:] if rel.rfind("/") + 1 < dot < len(rel) - 1 else ""
        (js_files if suffix in JS_SUFFIXES else other_files).append(rel)
    return js_files, other_files, sizes


# per-file problems: the file is copied verbatim and the run goes on; any
# other exception in a file task is an "internal-error", copied the same way
FILE_FAILURES = (ScopeShieldError, UnicodeDecodeError, RecursionError)


def file_failure(rel_path, exc):
    """(status, message) of one of the ``FILE_FAILURES``."""
    if isinstance(exc, UnsupportedSyntax):
        return "unsupported", str(exc)
    if isinstance(exc, RecursionError):
        return "unsupported", f"{rel_path}: nesting too deep to analyze; not supported"
    if isinstance(exc, UnicodeDecodeError):
        return "error", f"{rel_path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
    return "error", str(exc)


def _file_key(rel_path):
    # the ":0" suffix keeps the output bytes of earlier versions for files
    # that already had a single string table
    return zlib.crc32(f"{rel_path}:0".encode("utf-8")) & 0xFF


# The retry of a file too deep to parse runs on one helper thread with this
# much stack and this recursion limit: enough for 1,000 nested callbacks,
# not 60 `f(function(){...})` or 150 parentheses as by default. Deeper
# files still raise RecursionError and are copied as unsupported.
DEEP_STACK_BYTES = 256 * 1024 * 1024
DEEP_RECURSION_LIMIT = 20_000


def front_end(text, rel_path):
    """Lex and parse one file; the parser reads the tokens as the lexer
    streams them.

    Returns (the lexer's gap table, ScopeTree, Candidates, FileSummary),
    every span and error offset into ``text``. No token outlives the parse,
    and at most a few batches of them are alive at once. A file whose parse
    raises RecursionError is parsed once more on a deep stack; if that
    succeeds, the file was only too deep for the default stack.
    """
    try:
        return parse(text, rel_path)
    except RecursionError:
        pass  # retried outside the handler, so the first attempt is freed
    return _on_deep_stack(parse, text, rel_path)


def _on_deep_stack(task, *args):
    """``task(*args)`` on one helper thread with ``DEEP_STACK_BYTES`` of
    stack under ``DEEP_RECURSION_LIMIT``; both settings are restored
    afterwards. Returns its result or raises its exception."""
    outcome = []

    def run():
        try:
            outcome.append((True, task(*args)))
        except BaseException as exc:  # handed to the calling thread
            outcome.append((False, exc))

    limit = sys.getrecursionlimit()
    stack_size = threading.stack_size(DEEP_STACK_BYTES)
    sys.setrecursionlimit(DEEP_RECURSION_LIMIT)
    try:
        helper = threading.Thread(target=run, name="scopeshield-deep-parse")
        helper.start()
        helper.join()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(stack_size)
    # a traceback holds ``run``'s frame and, once raised, this one: if either
    # held the exception, it would outlive the paused cyclic collector
    ok, value = outcome.pop()
    try:
        if not ok:
            raise value
        return value
    finally:
        del value


WORKER_PHASES = ("parse", "rename", "transform", "emit")


def rename_file(config, allowlist, tree, summary):
    """The output name of each binding id of ``tree``: renamed, keeping the
    file's ``frozen_names``, and checked by ``check_safety``; with renaming
    off, the bindings' own names."""
    if not config.rename:
        return tree.bindings.names
    outputs = rename_tree(tree, frozen_module_names=frozen_names(tree, summary), allowlist=allowlist)
    violations = check_safety(tree, outputs)
    if violations:
        raise ScopeShieldError(f"internal rename safety violation: {violations[0]!r}")
    return outputs


def transform_file(config, allowlist, rel_path, text, candidates, names, outputs):
    """The ``Edits`` tables of the enabled transforms, the preamble's
    insertion among them; the fresh names they draw avoid every name the
    file reads or writes (``names``, each binding's, and ``outputs``)."""
    fresh = name_sequence(frozenset(allowlist).union(names, outputs))
    tables = []
    preamble = ""
    # slot names are drawn before the string-table names
    if config.rewrite_properties:
        edits, prop_pre, _slots = rewrite_property_access(fresh, candidates.accesses)
        tables.append(edits)
        preamble += prop_pre
    if config.encode_strings:
        key = _file_key(rel_path)
        edits, str_pre, _table = encode_strings(key, fresh, text, candidates.strings)
        tables.append(edits)
        preamble += str_pre
    if preamble:
        insertion = Edits()
        insertion.append(candidates.preamble_offset, candidates.preamble_offset, preamble + "\n")
        tables.append(insertion)
    return tables


def process_file(config, allowlist, rel_path):
    """Obfuscate one file: run its ``front_end`` once, then rename
    (``rename_file``), transform (``transform_file``) and emit, with the gap
    table if ``config.minify``. Of the front end's facts, only the gap
    table, the occurrence table and the binding names live on into the
    emit.

    Returns a dict with the file, its status, the worker milliseconds per
    phase, ``imports``, the path of each import and re-export, once the
    file has parsed (even if a later phase fails), and either the output
    text or the error. Any other exception than the ``FILE_FAILURES`` is an
    "internal-error" whose error keeps the traceback; the file is copied
    verbatim like any failed file.
    """
    phases = dict.fromkeys(WORKER_PHASES, 0.0)
    result = {"file": rel_path, "status": "ok", "worker_ms": phases}
    try:
        text = (Path(config.input_root) / rel_path).read_text(encoding="utf-8")
        t0 = time.perf_counter()
        gaps, tree, candidates, summary = front_end(text, rel_path)
        result["imports"] = summary.imports
        phases["parse"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        outputs = rename_file(config, allowlist, tree, summary)
        if config.dump_renames:
            result["rename_dump"] = dump_lines(tree, outputs)
        occurrences, names = tree.occurrences, tree.bindings.names
        del tree  # its scopes are read no more
        phases["rename"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        edits = transform_file(config, allowlist, rel_path, text, candidates, names, outputs)
        if config.minify:
            edits.append(gaps)
        del candidates
        phases["transform"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        out_text = emit(text, edits, occurrences, names, outputs)
        phases["emit"] = (time.perf_counter() - t0) * 1000.0
    except FILE_FAILURES as exc:
        result["status"], result["error"] = file_failure(rel_path, exc)
        return result
    except Exception as exc:
        import traceback  # here, so that a run without internal errors never loads it

        result["status"] = "internal-error"
        result["error"] = f"{rel_path}: internal error: {exc!r}\n{traceback.format_exc()}"
        return result
    result["text"] = out_text
    return result


def unresolved_imports(importer, paths, known_files):
    """The (importer, path) pairs of one file's import ``paths`` that match
    none of ``known_files``, the project's JS files (copied ones too), in
    source order; these imports stay external. Only a relative path matches:
    the file it names, or that name with ``.js`` appended."""
    base = posixpath.dirname(importer)
    unresolved = []
    for path in paths:
        target = posixpath.normpath(posixpath.join(base, path))
        if not (path.startswith(".") and (target in known_files or target + ".js" in known_files)):
            unresolved.append((importer, path))
    return unresolved


def _gc_paused(task, *args):
    """Run ``task(*args)`` with the cyclic collector off, then restore the
    collector's prior state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return task(*args)
    finally:
        if enabled:
            gc.enable()


def _chunk_task(config, allowlist, rel_paths):
    return [_gc_paused(process_file, config, allowlist, rel) for rel in rel_paths]


# pool tasks per worker: enough to balance the load, few enough that the
# parent's per-future cost stays small next to the files' work
TASKS_PER_WORKER = 32


def chunked(rel_paths, workers):
    """Split ``rel_paths`` into consecutive chunks, at most
    ``workers * TASKS_PER_WORKER`` of them and each at least one path."""
    size = max(1, -(-len(rel_paths) // (workers * TASKS_PER_WORKER)))
    return [rel_paths[i : i + size] for i in range(0, len(rel_paths), size)]


def _run_files(config, allowlist, workers, rel_paths):
    """Run ``process_file`` once per path and yield the results as they
    finish, each with the cyclic collector paused. In-process when
    workers == 1; otherwise on one process pool, one task per chunk of
    consecutive paths, where a chunk's results are held only until they are
    yielded. If a worker dies, each file whose result has not arrived runs
    again as its own task on a one-worker pool, so that a file that kills
    its worker takes no other file with it: it becomes an "internal-error",
    and a fresh pool runs the next file."""
    if workers <= 1:
        for rel in rel_paths:
            yield _gc_paused(process_file, config, allowlist, rel)
        return
    from concurrent.futures import ProcessPoolExecutor, as_completed  # only a pooled run loads them
    from concurrent.futures.process import BrokenProcessPool

    pending = set(rel_paths)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # no list of the futures: ``as_completed`` lets go of each one before
        # yielding it, so a chunk's results are freed once they are yielded
        futures = (
            pool.submit(_chunk_task, config, allowlist, chunk)
            for chunk in chunked(rel_paths, workers)
        )
        try:
            for future in as_completed(futures):
                for result in future.result():
                    pending.discard(result["file"])
                    yield result
        except BrokenProcessPool:
            pass
    pool = None
    try:
        for rel in [rel for rel in rel_paths if rel in pending]:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=1)
            try:
                (result,) = pool.submit(_chunk_task, config, allowlist, [rel]).result()
            except BrokenProcessPool as exc:
                pool.shutdown()
                pool = None
                result = {
                    "file": rel,
                    "status": "internal-error",
                    "worker_ms": dict.fromkeys(WORKER_PHASES, 0.0),
                    "error": f"{rel}: internal error: the worker process died: {exc}",
                }
            yield result
    finally:
        if pool is not None:
            pool.shutdown()


def _peak_memory_bytes(who):
    return resource.getrusage(who).ru_maxrss * 1024


def dump_dir_for(output_root):
    path = Path(output_root)
    return path.parent / (path.name + ".dumps")


def obfuscate_project(config):
    """Run the whole pipeline; returns the run report dict.

    File-level problems (lexical, syntactic, unsupported constructs, and
    any exception inside a file task) never abort the run: those files are
    copied through verbatim and reported.
    """
    started = time.perf_counter()
    if not config.input_root or not Path(config.input_root).is_dir():
        raise FatalConfigError(f"input root {config.input_root!r} is not a directory")
    if not config.output_root:
        raise FatalConfigError("output root is not set")
    if config.workers < 1:
        raise FatalConfigError("worker count must be >= 1")
    allowlist = load_allowlist(config.allowlist_path)

    in_root = Path(config.input_root)
    out_root = Path(config.output_root)
    in_real, out_real = in_root.resolve(), out_root.resolve()
    if out_real.is_relative_to(in_real) or in_real.is_relative_to(out_real):
        # the run would overwrite its input, or read its own output back
        raise FatalConfigError(f"output root {config.output_root!r} overlaps input root {config.input_root!r}")
    out_root.mkdir(parents=True, exist_ok=True)

    js_files, other_files, sizes = discover_files(config.input_root)

    wall_ms = dict.fromkeys(("discover", "files", "link", "copy", "total"), 0.0)
    worker_ms = dict.fromkeys(WORKER_PHASES, 0.0)
    report = {
        "files_total": len(js_files) + len(other_files),
        "files_transformed": 0,
        "files_copied": 0,
        "wall_ms": wall_ms,
        "worker_ms": worker_ms,
        "peak_memory_bytes": 0,
        "peak_worker_memory_bytes": 0,
        "output_bytes": 0,
        "input_bytes": sum(sizes.values()),
        "errors": [],
        "warnings": [],
        "config": dict(vars(config)),
    }
    wall_ms["discover"] = (time.perf_counter() - started) * 1000.0

    dump_root = dump_dir_for(config.output_root) if config.dump_renames else None
    made_dirs = {out_root}  # output directories that exist
    written = {}  # rel path -> bytes this run wrote there
    skipped = {}  # rel path -> (category, message); all copied verbatim
    known = set(js_files)
    unresolved = []  # (importer, path), in arrival order
    largest_first = sorted(js_files, key=lambda f: (-sizes[f], f))
    t0 = time.perf_counter()
    workers = config.workers if len(js_files) > 1 else 1
    for result in _run_files(config, allowlist, workers, largest_first):
        rel = result["file"]
        for phase, ms in result["worker_ms"].items():
            worker_ms[phase] += ms
        if "imports" in result:
            unresolved += unresolved_imports(rel, result["imports"], known)
        if result["status"] != "ok":
            skipped[rel] = (result["status"], result["error"])
            continue
        target = _output_path(out_root, rel, made_dirs)
        data = result["text"].encode("utf-8")
        target.write_bytes(data)
        written[rel] = len(data)
        if "rename_dump" in result:
            _write_dump(dump_root / "renames" / (rel + ".tsv"), "\n".join(result["rename_dump"]))
    wall_ms["files"] = (time.perf_counter() - t0) * 1000.0
    report["files_transformed"] = len(written)

    t0 = time.perf_counter()
    # a stable sort: file order, and each file's imports in source order
    for importer, path in sorted(unresolved, key=lambda pair: pair[0]):
        report["warnings"].append(f"{importer}: unresolved import {path!r} treated as external")
    wall_ms["link"] = (time.perf_counter() - t0) * 1000.0

    # verbatim copies: non-JS files and any file a task refused
    t0 = time.perf_counter()
    for rel in other_files + sorted(skipped):
        target = _output_path(out_root, rel, made_dirs)
        shutil.copyfile(in_root / rel, target)
        written[rel] = sizes[rel]
        report["files_copied"] += 1
    for rel, (category, message) in sorted(skipped.items()):
        if category == "unsupported":
            report["warnings"].append(f"copied verbatim: {message}")
        else:
            report["errors"].append({"file": rel, "error": message})
    wall_ms["copy"] = (time.perf_counter() - t0) * 1000.0

    report["output_bytes"] = sum(written.values())
    report["peak_memory_bytes"] = _peak_memory_bytes(resource.RUSAGE_SELF)
    if workers > 1:
        report["peak_worker_memory_bytes"] = _peak_memory_bytes(resource.RUSAGE_CHILDREN)
    wall_ms["total"] = (time.perf_counter() - started) * 1000.0
    return report


def _output_path(out_root, rel, made_dirs):
    """``out_root / rel``, its directory made unless ``made_dirs`` holds it;
    one mkdir per directory, not per file."""
    target = out_root / rel
    parent = target.parent
    if parent not in made_dirs:
        parent.mkdir(parents=True, exist_ok=True)
        made_dirs.add(parent)
    return target


def _write_dump(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def write_report(report, output_root):
    """Write the run report JSON next to the output tree; returns its path."""
    path = Path(output_root).parent / (Path(output_root).name + ".report.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    return path
