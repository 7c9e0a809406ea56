"""End-to-end obfuscation pipeline.

Three stages following the analysis design: (1) per-file parse + summary,
parallel; (2) a single-threaded link step building the dependency graph,
partition assignment and boundary markers; (3) per-file rename + transform +
emit, parallel. Stage-3 tasks depend only on their own file plus the small
frozen-name context, so outputs are byte-identical for any worker count or
scheduling order. Each file's output is written as soon as it is ready; no
whole-program state is retained.

Each file gets one string table, one decoder and one property-slot map,
injected together after the file's directive prologue. The cyclic garbage
collector is paused while a file is processed and restored to its prior
state afterwards: ASTs and scope trees are acyclic and freed by reference
counting, while collections triggered mid-file would rescan a heap that
grows with the file.
"""

import gc
import json
import os
import resource
import shutil
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .depgraph import build_dependency_graph, link_cross_file, partition_graph
from .errors import FatalConfigError, ScopeShieldError, UnsupportedSyntax
from .externals import load_allowlist
from .lexer import tokenize
from .minify import minify_tokens
from .parser import parse, parse_ast
from .patches import Patch, emit
from .renamer import RenameMap, check_safety, name_sequence, rename_patches, rename_tree
from .scopes import build_scope_tree, format_scope_report
from .transforms import (
    collect_property_accesses,
    collect_strings,
    encode_strings,
    rewrite_property_access,
)

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
    engine: str = "node {file}"
    seed: int = 0  # reserved, unused by default
    instrument_decode: bool = False
    dump_renames: bool = False
    dump_scopes: bool = False

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        unknown = set(data) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise FatalConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

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


# worker-global context (populated by the pool initializer after fork)
_CTX = {}


def _init_worker(context):
    _CTX.clear()
    _CTX.update(context)


# per-file problems: the file is copied verbatim and the run goes on
_FILE_FAILURES = (ScopeShieldError, UnicodeDecodeError, RecursionError)


def _file_failure(rel_path, exc):
    """(status, message) of one of the ``_FILE_FAILURES``."""
    if isinstance(exc, UnsupportedSyntax):
        return "unsupported", str(exc)
    if isinstance(exc, RecursionError):
        return "unsupported", f"{rel_path}: nesting too deep to analyze; not supported"
    if isinstance(exc, UnicodeDecodeError):
        return "error", f"{rel_path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
    return "error", str(exc)


def _summarize_file(rel_path):
    """Stage 1: lex+minify+parse one file, returning its summary or error."""
    cfg = _CTX["config"]
    started = time.perf_counter()
    try:
        text = (Path(cfg.input_root) / rel_path).read_text(encoding="utf-8")
        # summaries are unaffected by minification, so stage 1 skips it
        tokens = tokenize(text, rel_path)
        _root, summary = parse(tokens, rel_path)
    except _FILE_FAILURES as exc:
        status, error = _file_failure(rel_path, exc)
        return {
            "file": rel_path,
            "status": status,
            "error": error,
            "ms": (time.perf_counter() - started) * 1000.0,
        }
    return {
        "file": rel_path,
        "status": "ok",
        "summary": summary,
        "ms": (time.perf_counter() - started) * 1000.0,
    }


def _file_key(rel_path):
    # the ":0" suffix keeps the output bytes of earlier versions for files
    # that already had a single string table
    return zlib.crc32(f"{rel_path}:0".encode("utf-8")) & 0xFF


def preamble_offset(root):
    """Where the file's preamble goes: after any directive prologue, so an
    injected declaration cannot demote "use strict"."""
    offset = 0
    for stmt in root.children:
        if stmt.kind == "expr-stmt" and stmt.children and stmt.children[0].kind == "string-lit":
            offset = stmt.end
            continue
        return max(offset, stmt.start) if offset else stmt.start
    return offset


def _transform_file(rel_path):
    """Stage 3: full per-file pipeline; returns output text and phase times."""
    cfg = _CTX["config"]
    frozen = _CTX["frozen"].get(rel_path, ())
    allowlist = _CTX["allowlist"]
    phases = {"parse": 0.0, "rename": 0.0, "transform": 0.0, "emit": 0.0}
    try:
        text = (Path(cfg.input_root) / rel_path).read_text(encoding="utf-8")
        t0 = time.perf_counter()
        tokens = tokenize(text, rel_path)
        if cfg.minify:
            mtext, tokens = minify_tokens(tokens)
        else:
            mtext = text
        root, _dynamic = parse_ast(tokens, rel_path)
        tree = build_scope_tree(root, rel_path)
        phases["parse"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        patches = []
        if cfg.rename:
            rmap = rename_tree(tree, frozen_module_names=frozen, allowlist=allowlist)
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
        if root.children and (cfg.encode_strings or cfg.rewrite_properties):
            used = set(allowlist)
            for occ in tree.occurrences:
                binding = tree.resolve(occ.name, occ.scope_id)
                used.add(rmap.name_or_original(binding))
                used.add(occ.name)
            fresh = name_sequence(frozenset(used))
            in_dynamic_region = tree.dynamic_region()
            preamble = ""
            # slot names are drawn before the string-table names
            if cfg.rewrite_properties:
                prop_patches, prop_pre, _slots = rewrite_property_access(
                    fresh, in_dynamic_region, candidates=collect_property_accesses(root)
                )
                patches.extend(prop_patches)
                preamble += prop_pre
            if cfg.encode_strings:
                str_patches, str_pre, _table = encode_strings(
                    _file_key(rel_path),
                    fresh,
                    in_dynamic_region,
                    mtext,
                    candidates=collect_strings(root),
                    instrument=cfg.instrument_decode,
                )
                patches.extend(str_patches)
                preamble += str_pre
            if preamble:
                offset = preamble_offset(root)
                patches.append(Patch(offset, offset, preamble + "\n"))
        phases["transform"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        out_text = emit(mtext, patches)
        phases["emit"] = (time.perf_counter() - t0) * 1000.0
    except _FILE_FAILURES as exc:
        status, error = _file_failure(rel_path, exc)
        return {"file": rel_path, "status": status, "error": error, "phases": phases}
    result = {"file": rel_path, "status": "ok", "text": out_text, "phases": phases}
    if cfg.dump_renames:
        result["rename_dump"] = rmap.dump_lines()
    if cfg.dump_scopes:
        result["scope_dump"] = format_scope_report(tree)
    return result


def _gc_paused(task, item):
    """Run ``task(item)`` with the cyclic collector off, then restore the
    collector's prior state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return task(item)
    finally:
        if enabled:
            gc.enable()


def _run_tasks(task, items, context, workers):
    """Run ``task`` over items, in-process when workers == 1, each item with
    the cyclic collector paused."""
    if workers <= 1 or len(items) <= 1:
        _init_worker(context)
        for item in items:
            yield _gc_paused(task, item)
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(context,)
    ) as pool:
        futures = [pool.submit(_gc_paused, task, item) for item in items]
        for future in as_completed(futures):
            yield future.result()


def _peak_memory_bytes():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024


def dump_dir_for(output_root):
    path = Path(output_root)
    return path.parent / (path.name + ".dumps")


def obfuscate_project(config):
    """Run the whole pipeline; returns the run report dict.

    File-level problems (lexical, syntactic, unsupported constructs) never
    abort the run: those files are copied through verbatim and reported.
    """
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
    input_bytes = 0
    for rel in js_files + other_files:
        size = (in_root / rel).stat().st_size
        sizes[rel] = size
        input_bytes += size

    report = {
        "files_total": len(js_files) + len(other_files),
        "files_transformed": 0,
        "files_copied": 0,
        "cut_weight": 0,
        "phase_times_ms": {"parse": 0.0, "pasa": 0.0, "rename": 0.0, "transform": 0.0, "emit": 0.0},
        "peak_memory_bytes": 0,
        "output_bytes": 0,
        "input_bytes": input_bytes,
        "errors": [],
        "warnings": [],
        "config": asdict(config),
    }

    # stage 1: parallel parse + summaries
    t0 = time.perf_counter()
    context = {"config": config, "frozen": {}, "allowlist": allowlist}
    summaries = []
    skipped = {}  # rel path -> (category, message); all copied verbatim
    ordered = sorted(js_files, key=lambda f: (-sizes[f], f))
    for result in _run_tasks(_summarize_file, ordered, context, config.workers):
        if result["status"] == "ok":
            summaries.append(result["summary"])
        else:
            skipped[result["file"]] = (result["status"], result["error"])
    report["phase_times_ms"]["parse"] = (time.perf_counter() - t0) * 1000.0

    # stage 2: dependency graph, partitioning, boundary linking
    t0 = time.perf_counter()
    graph = build_dependency_graph(summaries, allowlist)
    good_sizes = {s.file_id: sizes[s.file_id] for s in summaries}
    imap = partition_graph(graph, config.workers, good_sizes)
    markers, frozen_by_file = link_cross_file(summaries, graph, imap, allowlist)
    for importer, path in graph.unresolved:
        report["warnings"].append(f"{importer}: unresolved import {path!r} treated as external")
    report["cut_weight"] = imap.cut_weight
    report["partitions"] = dict(sorted(imap.partitions.items()))
    report["boundary_markers"] = len(markers)
    report["phase_times_ms"]["pasa"] = (time.perf_counter() - t0) * 1000.0

    # stage 3: parallel rename + transform + emit, largest files first
    context = {"config": config, "frozen": frozen_by_file, "allowlist": allowlist}
    work = sorted((f for f in js_files if f not in skipped), key=lambda f: (-sizes[f], f))
    dump_root = (
        dump_dir_for(config.output_root)
        if (config.dump_renames or config.dump_scopes)
        else None
    )
    for result in _run_tasks(_transform_file, work, context, config.workers):
        rel = result["file"]
        target = out_root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        if result["status"] == "ok":
            target.write_text(result["text"], encoding="utf-8")
            report["files_transformed"] += 1
            for phase, ms in result["phases"].items():
                report["phase_times_ms"][phase] += ms
            if dump_root is not None and "rename_dump" in result:
                dump_path = dump_root / "renames" / (rel + ".tsv")
                dump_path.parent.mkdir(parents=True, exist_ok=True)
                dump_path.write_text("\n".join(result["rename_dump"]) + "\n", encoding="utf-8")
            if dump_root is not None and "scope_dump" in result:
                dump_path = dump_root / "scopes" / (rel + ".txt")
                dump_path.parent.mkdir(parents=True, exist_ok=True)
                dump_path.write_text(result["scope_dump"] + "\n", encoding="utf-8")
        else:
            skipped[rel] = (result["status"], result["error"])

    # verbatim copies: non-JS files and any file a stage refused
    for rel in other_files + sorted(skipped):
        target = out_root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(in_root / rel, target)
        report["files_copied"] += 1
    for rel, (category, message) in sorted(skipped.items()):
        if category == "unsupported":
            report["warnings"].append(f"copied verbatim: {message}")
        else:
            report["errors"].append({"file": rel, "error": message})

    output_bytes = 0
    for path in out_root.rglob("*"):
        if path.is_file():
            output_bytes += path.stat().st_size
    report["output_bytes"] = output_bytes
    report["peak_memory_bytes"] = _peak_memory_bytes()
    return report


def write_report(report, output_root):
    """Write the run report JSON next to the output tree; returns its path."""
    path = Path(output_root).parent / (Path(output_root).name + ".report.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    return path
