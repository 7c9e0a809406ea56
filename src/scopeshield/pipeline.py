"""End-to-end obfuscation pipeline.

One pass per file. A file's output is a pure function of the file: its
frozen names, the module-level names that keep their spelling, come from its
own summary (``depgraph.frozen_names``). Each file task lexes and minifies
its file in one pass, which streams the significant tokens into the parser
a batch at a time, and parses it once: the parser builds no syntax tree but
the file's facts, its scope tree, its transform candidates and its summary.
The task then renames, transforms and emits it. On a process pool the
largest-first file list goes out in consecutive chunks, one task each and
about ``TASKS_PER_WORKER`` tasks per worker, so that many small files do not
cost the parent one future each. Outputs are written as they arrive and no
text is retained, so output bytes are identical for any worker count or
scheduling order. If a worker process dies, the files whose results are
missing run again one at a time. Once every summary is in, the unresolved
imports are reported.

Each file gets one string table, one decoder and one property-slot map,
injected together after the file's directive prologue. The cyclic garbage
collector is paused while a file is processed and restored to its prior
state afterwards: scope trees are acyclic and freed by reference counting,
while collections triggered mid-file would rescan a heap that grows with
the file.
"""

import gc
import json
import resource
import shutil
import sys
import threading
import time
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path

from .depgraph import frozen_names, unresolved_imports
from .errors import FatalConfigError, ParseError, ScopeShieldError, UnsupportedSyntax
from .externals import load_allowlist
from .lexer import lex
from .parser import parse
from .patches import Patch, emit
from .renamer import RenameMap, check_safety, name_sequence, rename_patches, rename_tree
from .tokens import TokenList
from .transforms import encode_strings, rewrite_property_access

JS_SUFFIXES = (".js", ".mjs")


@dataclass
class ObfuscationConfig:
    input_root: str = ""
    output_root: str = ""
    workers: int = 1
    rename: bool = True
    encode_strings: bool = True
    rewrite_properties: bool = True
    minify: bool = True
    allowlist_path: str = None
    instrument_decode: bool = False
    dump_renames: bool = False

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
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise FatalConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            field = fields[key]
            # exact type: a bool is no int; null only where it is the default
            if type(value) is not field.type and not (value is None and field.default is None):
                raise FatalConfigError(
                    f"config key {key!r} must be {field.type.__name__}, not {json.dumps(value)}"
                )
        return cls(**{**defaults, **data})

    def merged(self, overrides):
        data = asdict(self)
        for key, value in overrides.items():
            if value is not None:
                data[key] = value
        return ObfuscationConfig(**data)


def discover_files(input_root):
    """All files under the root, split into JS sources and the rest.

    Paths are '/'-separated and relative to the root, sorted.
    """
    root = Path(input_root)
    js_files = []
    other_files = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if path.suffix in JS_SUFFIXES:
            js_files.append(rel)
        else:
            other_files.append(rel)
    return js_files, other_files


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


# A file nested too deeply for the default recursion limit (about 60
# callbacks `f(function(){...})` or 150 parentheses) is parsed again on one
# helper thread with this much stack and this recursion limit: enough for
# 1,000 nested callbacks. Deeper files still raise RecursionError and are
# copied as unsupported.
DEEP_STACK_BYTES = 256 * 1024 * 1024
DEEP_RECURSION_LIMIT = 20_000


def front_end(text, rel_path, minify):
    """Lex (and, with ``minify``, minify) and parse one file; the parser
    reads the tokens as the lexer streams them.

    Returns (the text the spans refer to, ScopeTree, Candidates,
    FileSummary); that text is the minified one when ``minify`` is set, else
    ``text``. No token outlives the parse, and at most a few batches of
    them are alive at once. A lexical error is raised in preference to a
    syntax error earlier in the file. A ParseError (UnsupportedSyntax
    included) always gives an offset into ``text`` as read, so it reads the
    same with and without ``minify``. A file that exceeds the recursion
    limit is parsed again on a deep stack.
    """
    try:
        return _front_end_offsets_as_read(text, rel_path, minify)
    except RecursionError:
        pass  # retried outside the handler, so the first attempt is freed
    return _on_deep_stack(_front_end_offsets_as_read, text, rel_path, minify)


def _front_end_offsets_as_read(text, rel_path, minify):
    try:
        return _front_end(text, rel_path, minify)
    except ParseError:
        if minify:
            # minifying keeps the significant tokens and the line breaks
            # between them, so the text as read raises the same error
            _front_end(text, rel_path, False)
        raise


def _front_end(text, rel_path, minify):
    tokens = TokenList()
    stream = lex(tokens, text, rel_path, minify)
    try:
        facts = parse(tokens, stream, rel_path)
    except (ParseError, RecursionError):
        # a lexical error anywhere in the file wins over a syntax error or
        # too deep a nesting, as if the whole file were lexed first
        for _ in stream:
            del tokens[:]
        raise
    return (tokens.text, *facts)


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
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


WORKER_PHASES = ("parse", "rename", "transform", "emit")


def process_file(config, allowlist, rel_path):
    """Obfuscate one file: run its ``front_end`` once, then rename
    (keeping the file's ``frozen_names``), transform and emit.

    Returns a dict with the file, its status, the worker milliseconds per
    phase, the FileSummary once the scope tree exists (even if a later phase
    fails), and either the output text or the error. Any other exception
    than the ``FILE_FAILURES`` is an "internal-error" whose error keeps the
    traceback; the file is copied verbatim like any failed file.
    """
    phases = dict.fromkeys(WORKER_PHASES, 0.0)
    result = {"file": rel_path, "status": "ok", "worker_ms": phases}
    try:
        text = (Path(config.input_root) / rel_path).read_text(encoding="utf-8")
        t0 = time.perf_counter()
        mtext, tree, candidates, summary = front_end(text, rel_path, config.minify)
        del text  # the spans index ``mtext``
        result["summary"] = summary
        phases["parse"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        patches = []
        if config.rename:
            rmap = rename_tree(
                tree, frozen_module_names=frozen_names(summary), allowlist=allowlist
            )
            violations = check_safety([tree], rmap)
            if violations:
                raise ScopeShieldError(
                    f"internal rename safety violation: {violations[0]!r}"
                )
            patches.extend(rename_patches(tree, rmap))
        else:
            rmap = RenameMap()
        phases["rename"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        if config.encode_strings or config.rewrite_properties:
            used = set(allowlist)
            for occ in tree.occurrences:
                used.add(rmap.name_or_original(occ.binding))
                used.add(occ.name)
            fresh = name_sequence(frozenset(used))
            preamble = ""
            # slot names are drawn before the string-table names
            if config.rewrite_properties:
                prop_patches, prop_pre, _slots = rewrite_property_access(
                    fresh, candidates.accesses
                )
                patches.extend(prop_patches)
                preamble += prop_pre
            if config.encode_strings:
                str_patches, str_pre, _table = encode_strings(
                    _file_key(rel_path),
                    fresh,
                    mtext,
                    candidates.strings,
                    instrument=config.instrument_decode,
                )
                patches.extend(str_patches)
                preamble += str_pre
            if preamble:
                offset = candidates.preamble_offset
                patches.append(Patch(offset, offset, preamble + "\n"))
        phases["transform"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        out_text = emit(mtext, patches)
        phases["emit"] = (time.perf_counter() - t0) * 1000.0
        if config.dump_renames:
            result["rename_dump"] = rmap.dump_lines()
    except FILE_FAILURES as exc:
        result["status"], result["error"] = file_failure(rel_path, exc)
        return result
    except Exception as exc:
        result["status"] = "internal-error"
        result["error"] = f"{rel_path}: internal error: {exc!r}\n{traceback.format_exc()}"
        return result
    result["text"] = out_text
    return result


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
    consecutive paths. If a worker dies, the files whose results have not
    arrived run again one at a time (``_run_alone``)."""
    if workers <= 1:
        for rel in rel_paths:
            yield _gc_paused(process_file, config, allowlist, rel)
        return
    pending = set(rel_paths)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_chunk_task, config, allowlist, chunk)
            for chunk in chunked(rel_paths, workers)
        ]
        try:
            for future in as_completed(futures):
                for result in future.result():
                    pending.discard(result["file"])
                    yield result
        except BrokenProcessPool:
            pass
    yield from _run_alone(config, allowlist, [rel for rel in rel_paths if rel in pending])


def _run_alone(config, allowlist, rel_paths):
    """Run each path as its own task on a one-worker pool, so a file that
    kills its worker takes no other file with it: it becomes an
    "internal-error", and a fresh pool runs the next file."""
    pool = None
    try:
        for rel in rel_paths:
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
    out_root.mkdir(parents=True, exist_ok=True)

    js_files, other_files = discover_files(config.input_root)
    sizes = {}
    for rel in js_files + other_files:
        sizes[rel] = (in_root / rel).stat().st_size

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
        "config": asdict(config),
    }
    wall_ms["discover"] = (time.perf_counter() - started) * 1000.0

    dump_root = dump_dir_for(config.output_root) if config.dump_renames else None
    made_dirs = {out_root}  # output directories that exist
    written = {}  # rel path -> bytes this run wrote there
    skipped = {}  # rel path -> (category, message); all copied verbatim
    summaries = []
    largest_first = sorted(js_files, key=lambda f: (-sizes[f], f))
    t0 = time.perf_counter()
    workers = config.workers if len(js_files) > 1 else 1
    for result in _run_files(config, allowlist, workers, largest_first):
        rel = result["file"]
        for phase, ms in result["worker_ms"].items():
            worker_ms[phase] += ms
        if "summary" in result:
            summaries.append(result["summary"])
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
    for importer, path in unresolved_imports(summaries, js_files):
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
