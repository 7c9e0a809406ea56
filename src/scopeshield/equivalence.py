"""Differential semantic-equivalence testing.

Runs the original and obfuscated versions of each test case under an external
JavaScript engine and compares stdout. The engine is a command template with
a ``{file}`` placeholder, so the harness stays engine-agnostic. Test programs
must be deterministic; a lint pass rejects wall-clock and unseeded RNG use.
"""

import json
import re
import shlex
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import EngineNotFound, FatalConfigError


@dataclass
class TestCase:
    __test__ = False  # not a pytest class despite the name

    entry: str
    args: list = field(default_factory=list)
    stdin: str = ""
    mode: str = "exact"  # exact | normalized
    timeout_s: float = 10.0


def load_cases(path):
    """The cases of a JSON manifest: a list of case objects, or an object
    whose "cases" key holds one. FatalConfigError for a file that cannot be
    read or is not such a manifest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FatalConfigError(f"cannot read cases {path}: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise FatalConfigError(f"cases {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("cases")
    if not isinstance(data, list):
        raise FatalConfigError(f"cases {path} must hold a list of cases")
    cases = []
    for entry in data:
        try:
            case = TestCase(**entry)  # not an object, or an unknown or missing key
        except TypeError as exc:
            raise FatalConfigError(f"malformed case in {path}: {exc}") from exc
        for name, spec in TestCase.__dataclass_fields__.items():
            kind = (int, float) if spec.type is float else spec.type
            if not isinstance(getattr(case, name), kind):
                raise FatalConfigError(f"case key {name!r} in {path} must be {spec.type.__name__}")
        if case.mode not in ("exact", "normalized"):
            raise FatalConfigError(f"case mode in {path} must be 'exact' or 'normalized'")
        cases.append(case)
    return cases


def save_cases(cases, path):
    payload = {"cases": [asdict(c) for c in cases]}
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


_NONDETERMINISM = [
    (re.compile(r"\bDate\.now\s*\("), "Date.now()", re.compile(r"Date\.now\s*=")),
    (re.compile(r"\bMath\.random\s*\("), "Math.random()", re.compile(r"Math\.random\s*=")),
    (re.compile(r"\bnew\s+Date\s*\("), "new Date()", re.compile(r"\bDate\s*=")),
    (re.compile(r"\bperformance\.now\s*\("), "performance.now()", re.compile(r"performance\.now\s*=")),
]


def lint_determinism(text):
    """Sources of nondeterminism without a visible seed shim (an assignment
    overriding the primitive) are reported."""
    problems = []
    for pattern, label, shim in _NONDETERMINISM:
        if pattern.search(text) and not shim.search(text):
            problems.append(f"{label} used without a seed shim")
    return problems


def _engine_argv(template, file_path):
    argv = shlex.split(template)
    if not any("{file}" in part for part in argv):
        raise EngineNotFound(f"engine template {template!r} has no {{file}} placeholder")
    return [part.replace("{file}", str(file_path)) for part in argv]


def _normalize(text):
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def _first_diff(a, b):
    a_lines = a.splitlines()
    b_lines = b.splitlines()
    for i in range(max(len(a_lines), len(b_lines))):
        left = a_lines[i] if i < len(a_lines) else "<missing>"
        right = b_lines[i] if i < len(b_lines) else "<missing>"
        if left != right:
            return f"line {i + 1}: original {left!r} != obfuscated {right!r}"
    return "outputs differ in trailing whitespace"


def _run_one(engine, root, case):
    argv = _engine_argv(engine, Path(root) / case.entry)
    argv.extend(case.args)
    try:
        proc = subprocess.run(
            argv,
            input=case.stdin,
            capture_output=True,
            text=True,
            timeout=case.timeout_s,
            cwd=root,
        )
    except subprocess.TimeoutExpired:
        return "timeout", "", f"no result within {case.timeout_s}s"
    except FileNotFoundError as exc:
        raise EngineNotFound(f"engine command {argv[0]!r} not found") from exc
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return "error", proc.stdout, lines[-1] if lines else f"exit {proc.returncode}"
    return "ok", proc.stdout, ""


def run_differential(
    original_root,
    obfuscated_root,
    cases,
    engine="node {file}",
    workers=1,
    rename_dump_root=None,
):
    """Run every case against both trees; returns (verdicts, summary).

    Each verdict: {entry, status, detail} with status one of equivalent |
    divergent | error | timeout. Divergent verdicts carry the first
    differing output line and, when that file exists, the rename-map dump
    path.
    """
    # absolute roots: the engine runs with cwd at the tree root, so a
    # relative root would make the entry path resolve against itself
    original_root = Path(original_root).resolve()
    obfuscated_root = Path(obfuscated_root).resolve()
    if not original_root.is_dir() or not obfuscated_root.is_dir():
        raise EngineNotFound("original/obfuscated roots must both exist")
    probe = shutil.which(shlex.split(engine)[0])
    if probe is None:
        raise EngineNotFound(f"engine command {shlex.split(engine)[0]!r} not found")

    def evaluate(case):
        verdict = {"entry": case.entry, "status": "equivalent", "detail": ""}
        problems = lint_determinism((original_root / case.entry).read_text(encoding="utf-8"))
        if problems:
            verdict.update(status="error", detail="; ".join(problems))
            return verdict
        status_a, out_a, detail_a = _run_one(engine, original_root, case)
        status_b, out_b, detail_b = _run_one(engine, obfuscated_root, case)
        if status_a != "ok" or status_b != "ok":
            side = "original" if status_a != "ok" else "obfuscated"
            bad_status, detail = (
                (status_a, detail_a) if status_a != "ok" else (status_b, detail_b)
            )
            verdict.update(
                status="timeout" if bad_status == "timeout" else "error",
                detail=f"{side}: {detail}",
            )
            return verdict
        if case.mode == "normalized":
            out_a, out_b = _normalize(out_a), _normalize(out_b)
        if out_a != out_b:
            verdict.update(status="divergent", detail=_first_diff(out_a, out_b))
            if rename_dump_root is not None:
                dump = Path(rename_dump_root) / "renames" / (case.entry + ".tsv")
                if dump.is_file():
                    verdict["rename_dump"] = str(dump)
        return verdict

    if workers > 1 and len(cases) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            verdicts = list(pool.map(evaluate, cases))
    else:
        verdicts = [evaluate(case) for case in cases]

    equivalent = sum(1 for v in verdicts if v["status"] == "equivalent")
    summary = {
        "cases": len(verdicts),
        "equivalent": equivalent,
        "divergent": sum(1 for v in verdicts if v["status"] == "divergent"),
        "errors": sum(1 for v in verdicts if v["status"] in ("error", "timeout")),
        "equivalence_rate": round(equivalent / len(verdicts), 4) if verdicts else 1.0,
    }
    return verdicts, summary


def write_verdicts(verdicts, path):
    """One JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for verdict in verdicts:
            fh.write(json.dumps(verdict, sort_keys=True) + "\n")
    return path
