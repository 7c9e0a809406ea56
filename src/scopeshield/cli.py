"""Command-line front end: obfuscate, analyze, metrics, verify.

Exit codes: 0 success, 2 file-level errors or failed verification,
3 fatal configuration/engine problems, 64 usage errors.
The worker count is --threads, else the config file's "workers", else the
SCOPESHIELD_THREADS environment variable, else the CPU count.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import EngineNotFound, FatalConfigError
from .pipeline import (
    FILE_FAILURES,
    ObfuscationConfig,
    discover_files,
    dump_dir_for,
    file_failure,
    front_end,
    obfuscate_project,
    unresolved_imports,
    write_report,
)
from .renamer import frozen_names

USAGE_EXIT = 64


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _default_threads():
    env = os.environ.get("SCOPESHIELD_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def build_parser():
    parser = _ArgumentParser(prog="scopeshield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ob = sub.add_parser("obfuscate", help="transform a source tree")
    ob.add_argument("--in", dest="input_root", help="input root directory")
    ob.add_argument("--out", dest="output_root", help="output root directory")
    ob.add_argument("--threads", type=int, default=None, help="worker count")
    ob.add_argument("--config", help="JSON config file")
    ob.add_argument("--no-rename", action="store_true")
    ob.add_argument("--no-strings", action="store_true")
    ob.add_argument("--no-prop-access", action="store_true")
    ob.add_argument("--no-minify", action="store_true")
    ob.add_argument("--allowlist", help="external-name allowlist file")
    ob.add_argument("--dump-renames", action="store_true")

    an = sub.add_parser("analyze", help="scope and frozen-name diagnostics")
    an.add_argument("--in", dest="input_root", required=True)
    an.add_argument("--dump-scopes", action="store_true", help="print per-file scope trees")

    me = sub.add_parser("metrics", help="size/complexity/NID report")
    me.add_argument("--orig", required=True)
    me.add_argument("--obf", required=True)

    ve = sub.add_parser("verify", help="differential equivalence run")
    ve.add_argument("--orig", required=True)
    ve.add_argument("--obf", required=True)
    ve.add_argument("--cases", required=True, help="case manifest JSON")
    ve.add_argument("--engine", default="node {file}")
    ve.add_argument("--threads", type=int, default=None)
    return parser


def _config_from_args(args):
    if args.config:
        config = ObfuscationConfig.from_file(args.config, workers=_default_threads())
    else:
        config = ObfuscationConfig(workers=_default_threads())
    overrides = {
        "input_root": args.input_root,
        "output_root": args.output_root,
        "workers": args.threads,
        "allowlist_path": args.allowlist,
        "rename": False if args.no_rename else None,
        "encode_strings": False if args.no_strings else None,
        "rewrite_properties": False if args.no_prop_access else None,
        "minify": False if args.no_minify else None,
        "dump_renames": True if args.dump_renames else None,
    }
    return config.merged(overrides)


def cmd_obfuscate(args):
    try:
        config = _config_from_args(args)
        report = obfuscate_project(config)
    except FatalConfigError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 3
    path = write_report(report, config.output_root)
    print(f"transformed {report['files_transformed']} files, copied {report['files_copied']}")
    print(f"run report: {path}")
    return 2 if report["errors"] else 0


def cmd_analyze(args):
    from .scopes import format_scope_report

    root = Path(args.input_root)
    if not root.is_dir():
        print(f"fatal: {root} is not a directory", file=sys.stderr)
        return 3
    js_files, _others, _sizes = discover_files(args.input_root)
    known = set(js_files)
    frozen_by_file = {}
    unresolved = []
    had_errors = False
    for rel in js_files:
        try:
            text = (root / rel).read_text(encoding="utf-8")
            _gaps, tree, _candidates, summary = front_end(text, rel)
        except FILE_FAILURES as exc:
            # as in obfuscate: an unsupported file is a warning, not an error
            status, message = file_failure(rel, exc)
            print(message)
            had_errors = had_errors or status == "error"
            continue
        frozen_by_file[rel] = frozen_names(tree, summary)
        unresolved += unresolved_imports(rel, summary.imports, known)
        if args.dump_scopes:
            print(f"== {rel}")
            print(format_scope_report(tree))
    # a stable sort: file order, and each file's imports in source order
    unresolved.sort(key=lambda pair: pair[0])
    print(format_analyze_report(unresolved, frozen_by_file))
    return 2 if had_errors else 0


def format_analyze_report(unresolved, frozen_by_file):
    """Plain-text report for the analyze subcommand: the files it parsed,
    the ``pipeline.unresolved_imports`` and each file's
    ``renamer.frozen_names``."""
    files = sorted(frozen_by_file)
    lines = [f"files: {len(files)}"] + [f"  {f}" for f in files]
    lines += (f"  unresolved: {importer} imports {path!r}" for importer, path in unresolved)
    lines.append(f"frozen names: {sum(len(names) for names in frozen_by_file.values())}")
    for f in files:
        for name, reason in sorted(frozen_by_file[f].items()):
            lines.append(f"  {f}: {name} ({reason})")
    return "\n".join(lines)


def cmd_metrics(args):
    from .metrics import measure_tree_pair

    try:
        report = measure_tree_pair(args.orig, args.obf)
    except FatalConfigError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 3
    print(report.to_table())
    json_path = Path(args.obf).parent / (Path(args.obf).name + ".metrics.json")
    json_path.write_text(report.to_json(), encoding="utf-8")
    print(f"metrics report: {json_path}")
    return 0


def cmd_verify(args):
    from .equivalence import load_cases, run_differential, write_verdicts

    try:
        cases = load_cases(args.cases)
        verdicts, summary = run_differential(
            args.orig,
            args.obf,
            cases,
            engine=args.engine,
            workers=args.threads or _default_threads(),
            rename_dump_root=dump_dir_for(args.obf),
        )
    except (EngineNotFound, FatalConfigError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 3
    path = Path(args.obf).parent / (Path(args.obf).name + ".verdicts.jsonl")
    write_verdicts(verdicts, path)
    print(
        f"equivalence rate: {summary['equivalence_rate'] * 100:.1f}% "
        f"({summary['equivalent']}/{summary['cases']}), verdicts: {path}"
    )
    for verdict in verdicts:
        if verdict["status"] != "equivalent":
            print(f"  {verdict['status']}: {verdict['entry']}: {verdict['detail']}")
    return 0 if summary["equivalent"] == summary["cases"] else 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "obfuscate": cmd_obfuscate,
        "analyze": cmd_analyze,
        "metrics": cmd_metrics,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
