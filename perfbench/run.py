"""scopeshield benchmark: end-to-end cost and quality, plus a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload big-file --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Workloads (inputs generated from ``--seed`` by ``perfbench/gen.py``):

- ``big-file``: one ~1 MB minified module, workers=1. Per-file superlinear
  costs (transform rescans, parse, resolve) dominate; link and pool are idle.
- ``many-modules``: 64 independent 64 KB modules (~4 MB), workers=2. Per-file
  lex/parse/scope/rename cost on near-linear file sizes, plus the process
  pool. The control for transform and link changes.
- ``linked-app``: ~2,000 small ES modules in a relative-import DAG, workers=2.
  Stage 2 (linking) and fixed per-file costs dominate; its entry runs a
  ~1 s hot loop, so it is where the run time of generated code is measured.

``--trace 0`` reports the end-to-end metrics, measured with tracing off: each
timed ``obfuscate_project`` call runs in a fresh process on an empty output
directory, repeated until ``--seconds`` have passed. ``--trace 1`` reports the
per-layer metrics from an in-process workers=1 run with every layer wrapped
(see ``tracing.py``), the same run at a quarter of the workload's size for the
size exponents, and untraced runs for the pool speedup and tracing overhead.

Every run checks its outputs outside the timed region: node stdout of each
obfuscated entry equals the original's, every JS file was transformed, and
the output tree is byte-identical across repetitions and worker counts. The
last line of stdout is one JSON object; a failed check makes it say
``"correct": false`` and the command exit 1. Results, with provenance, go to
``.perfbench/results/``.

The run report's ``phase_times_ms.parse``, ``output_bytes`` and
``peak_memory_bytes`` are not used: the first mixes wall and summed worker
time, the second counts stale files, the third spans the process lifetime.
The benchmark measures each of them itself.
"""

import argparse
import hashlib
import json
import lzma
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import tracing  # noqa: E402

WORKERS = {"big-file": 1, "many-modules": 2, "linked-app": 2}
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
NODE_PAIRS = 3  # interleaved original/obfuscated node runs per run, at least
NODE_SECONDS = 6  # ... and more pairs until this much node time has passed
SIZE_SCALE = 0.25  # second traced size, for the per-layer size exponents
MIN_SELF_S_FOR_EXP = 1e-3  # below this a self-time ratio is noise
CHILD_TIMEOUT_S = 150
NODE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "obfuscate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "size_ratio": "ratio",
    "nid": "ratio",
    "runtime_ratio": "ratio",
    "ok_share": "share",
}


class Checks:
    """Correctness checks of one run: operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, attempted, failed, message):
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.messages.append(f"{message} ({failed} of {attempted})")


def _run(cmd, cwd, timeout, env=None):
    """Run a command in its own process group; kill the group on timeout.

    Returns (returncode, stdout, stderr, wall seconds)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"{cmd[0]} timed out after {timeout} s in {cwd}") from None
    return proc.returncode, out, err, time.perf_counter() - started


def run_node(tree, entry):
    code, out, err, wall = _run(["node", entry], tree, NODE_TIMEOUT_S)
    if code != 0:
        out = f"exit {code}: {err.strip()[-500:]}"
    return out, wall


def set_up(workload, seed, scale, dest):
    """Generate the inputs and record the original's node output."""
    started = time.perf_counter()
    if dest.exists():
        shutil.rmtree(dest)
    info = gen.GENERATORS[workload](dest, seed, scale)
    info["stdout"] = run_node(dest, info["entry"])[0]
    info["setup_s"] = time.perf_counter() - started
    if info["stdout"].startswith("exit "):
        raise RuntimeError(f"original {workload} entry failed under node: {info['stdout']}")
    return info


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def js_output_bytes(out_root, js_files):
    return sum((Path(out_root) / rel).stat().st_size for rel in js_files)


def obfuscate_in_child(in_root, out_root, workers):
    """One timed ``obfuscate_project`` call in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code, out, err, _ = _run(
        [sys.executable, str(HERE / "child.py"), str(in_root), str(out_root), str(workers)],
        ROOT, CHILD_TIMEOUT_S, env,
    )
    if code != 0:
        raise RuntimeError(f"obfuscation process failed ({code}): {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["peak_rss_mb"] = max(result["rss_self_kb"], result["rss_children_kb"]) / 1024
    return result


def sized_lzma(data):
    """LZMA preset 6 with the dictionary cut to the input's size.

    A dictionary at least as long as the input lets every match the default
    8 MiB one allows, and the compressed lengths on these workloads are the
    same as ``metrics.lzma_compressor``'s; setting up the smaller match finder
    makes thousands of small-file calls several times faster."""
    size = 1 << 16
    while size < len(data) and size < 8 << 20:
        size <<= 1
    filters = [{"id": lzma.FILTER_LZMA2, "preset": 6, "dict_size": size}]
    return lzma.compress(data, format=lzma.FORMAT_XZ, filters=filters)


def tree_nid(in_root, out_root):
    from scopeshield.metrics import measure_tree_pair

    report = measure_tree_pair(in_root, out_root, compressor=sized_lzma, with_complexity=False)
    return report.aggregate()["nid"]


def check_outputs(checks, info, in_root, out_root, transformed, label, timed=False):
    """Every JS file transformed; node stdout equal to the original's.

    The original and obfuscated entries run alternately, and the run time
    ratio is the median of the per-pair ratios, so drift in the machine's
    speed affects both sides of each ratio alike. Returns (JS files not
    transformed, entries whose stdout differed, original node wall times,
    obfuscated node wall times)."""
    missing = len(info["js_files"]) - transformed
    checks.record(len(info["js_files"]), missing, f"{label}: JS files not transformed")
    original, obfuscated = [], []
    differing = 0
    started = time.perf_counter()
    while not obfuscated or timed and (
        len(obfuscated) < NODE_PAIRS or time.perf_counter() - started < NODE_SECONDS
    ):
        if timed:
            original.append(run_node(in_root, info["entry"])[1])
        stdout, wall = run_node(out_root, info["entry"])
        obfuscated.append(wall)
        differing += stdout != info["stdout"]
    checks.record(len(obfuscated), differing, f"{label}: node stdout of {info['entry']} differs")
    return missing, min(differing, 1), original, obfuscated


def measure(workload, seed, seconds, work):
    """Untraced end-to-end metrics; returns (metrics, checks, details)."""
    checks = Checks()
    setups = [set_up(workload, seed, 1.0, work / "in") for _ in range(SETUP_REPEATS)]
    info = setups[-1]
    checks.record(
        SETUP_REPEATS, len({s["stdout"] for s in setups}) - 1,
        "original node output differs between set-ups",
    )

    reps = []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        out = work / f"out{len(reps)}"
        rep = obfuscate_in_child(work / "in", out, WORKERS[workload])
        rep["digest"] = tree_digest(out)
        if reps:
            shutil.rmtree(out)
        reps.append(rep)

    first = work / "out0"
    for rep in reps[1:]:
        checks.record(
            len(info["js_files"]), len(info["js_files"]) - rep["files_transformed"],
            "repetition: JS files not transformed",
        )
    checks.record(
        len(reps), len({r["digest"] for r in reps}) - 1, "output differs between repetitions"
    )
    missing, differing, node_original, node_obfuscated = check_outputs(
        checks, info, work / "in", first, reps[0]["files_transformed"], "timed", timed=True
    )
    failed_share = (missing + differing) / len(info["js_files"])

    metrics = {
        "obfuscate_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "size_ratio": js_output_bytes(first, info["js_files"]) / info["js_bytes"],
        "nid": tree_nid(work / "in", first),
        "runtime_ratio": statistics.median(
            obf / orig for orig, obf in zip(node_original, node_obfuscated)
        ),
        "ok_share": 1.0 - failed_share,
    }
    details = {
        "failed_share": failed_share,
        "repetitions": [{k: r[k] for k in ("wall_s", "peak_rss_mb", "files_transformed")} for r in reps],
        "setup_s": [s["setup_s"] for s in setups],
        "node_original_s": node_original,
        "node_obfuscated_s": node_obfuscated,
        "js_files": len(info["js_files"]),
        "js_bytes": info["js_bytes"],
    }
    return metrics, checks, details


def traced_run(workload, in_root, out_root):
    """One in-process workers=1 run with every layer wrapped."""
    from scopeshield.pipeline import ObfuscationConfig, obfuscate_project

    config = ObfuscationConfig(input_root=str(in_root), output_root=str(out_root), workers=1)
    with tracing.Tracer(WORKERS[workload]) as tracer:
        started = time.perf_counter()
        report = obfuscate_project(config)
        wall = time.perf_counter() - started
    return tracer, wall, report["files_transformed"]


def _size_exp(full, quarter, size_ratio):
    if full < MIN_SELF_S_FOR_EXP or quarter < MIN_SELF_S_FOR_EXP:
        return 0.0
    return math.log(full / quarter) / math.log(size_ratio)


def measure_layers(workload, seed, work, results):
    """Per-layer metrics from traced runs; returns (metrics, checks, details)."""
    checks = Checks()
    workers = WORKERS[workload]
    info = set_up(workload, seed, 1.0, work / "in")
    small = set_up(workload, seed, SIZE_SCALE, work / "in_small")

    untraced = obfuscate_in_child(work / "in", work / "out_w", workers)
    digests = {f"workers={workers}": tree_digest(work / "out_w")}
    if workers > 1:
        single = obfuscate_in_child(work / "in", work / "out_1", 1)
        digests["workers=1"] = tree_digest(work / "out_1")
        pool_speedup = single["wall_s"] / untraced["wall_s"]
    else:
        single = untraced  # the workload already runs without a pool
        pool_speedup = 1.0

    tracer, traced_wall, transformed = traced_run(workload, work / "in", work / "out_t")
    digests["traced"] = tree_digest(work / "out_t")
    small_tracer, _, small_transformed = traced_run(workload, work / "in_small", work / "out_s")

    checks.record(
        len(digests), len(set(digests.values())) - 1, f"output differs across runs: {digests}"
    )
    check_outputs(checks, info, work / "in", work / "out_t", transformed, "traced")
    check_outputs(checks, small, work / "in_small", work / "out_s", small_transformed, "traced-quarter")
    checks.record(1, int(tracer.counts["renamer.violations"] > 0), "rename safety violations")

    size_ratio = info["js_bytes"] / small["js_bytes"]
    metrics = {}
    for name, module in tracing.LAYER_FUNCTIONS.items():
        key = f"{module}.{name}"
        metrics[f"{key}.self_s"] = (tracer.self_s[key], "s")
        metrics[f"{key}.calls"] = (tracer.calls[key], "count")
        metrics[f"{key}.size_exp"] = (
            _size_exp(tracer.self_s[key], small_tracer.self_s[key], size_ratio), "exp",
        )
    counts = tracer.counts
    for name in tracing.COUNT_NAMES + tuple(tracing.COUNTED_METHODS.values()):
        metrics[name] = (counts[name], "count")
    lex_s = tracer.self_s["lexer.tokenize"]
    metrics["lexer.mb_s"] = (counts["lexer.chars"] / 1e6 / lex_s if lex_s else 0.0, "MB/s")
    metrics["pipeline.other_self_s"] = (traced_wall - tracer.root_seconds(), "s")
    metrics["pipeline.pool_speedup"] = (pool_speedup, "ratio")

    spans_path = results / f"{workload}-seed{seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span_id, key, start, end, parent, file_id in tracer.spans:
            fh.write(json.dumps([span_id, key, start, end, parent, file_id]) + "\n")
    details = {
        "absent": sorted(tracer.absent),
        "tracing_overhead_s": traced_wall - single["wall_s"],
        "traced_wall_s": traced_wall,
        "untraced_workers1_s": single["wall_s"],
        "untraced_s": untraced["wall_s"],
        "size_exp_input_ratio": size_ratio,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, checks, details


def _command_output(cmd, env=None):
    try:
        code, out, _err, _ = _run(cmd, ROOT, 30, env)
    except OSError:
        return None
    return out.strip() if code == 0 else None


def provenance(seed, seconds, trace, tracing_overhead_s):
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "scopeshield").rglob("*.py")):
        src_digest.update(path.read_bytes())
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "node": _command_output(["node", "--version"]),
        "commit": _command_output(["git", "rev-parse", "HEAD"], git_env),
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        # traced wall - untraced wall, both workers=1; measured by --trace 1 only
        "tracing_overhead_s": tracing_overhead_s,
        "machine": platform.machine(),
    }


def run_workload(workload, args, results):
    work = WORK / "work" / f"{workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        if args.trace:
            values, checks, details = measure_layers(workload, args.seed, work, results)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        else:
            values, checks, details = measure(workload, args.seed, args.seconds, work)
            metrics = {
                name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    overhead = details.pop("tracing_overhead_s", None)
    record = {
        "workload": workload,
        "provenance": provenance(args.seed, args.seconds, args.trace, overhead),
        "metrics": metrics,
        "details": details,
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed,
        "check_failures": checks.messages,
    }
    path = results / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"== {workload} (workers={WORKERS[workload]}, seed {args.seed}, trace {args.trace})")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<44} {shown} {metric['unit']}")
    for name in ("failed_share", "absent"):
        if name in details:
            print(f"  {name:<44} {details[name]}")
    for message in checks.messages:
        print(f"  FAILED: {message}")
    print(f"  provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"  result file: {path.relative_to(ROOT)}")
    return metrics, checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKERS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "scopeshield" / "pipeline.py").is_file():
        print(f"scopeshield sources not found under {SRC}", file=sys.stderr)
        return 2
    if shutil.which("node") is None:
        print("node is not on PATH; the output checks need it", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)

    workloads = sorted(WORKERS) if args.workload == "all" else [args.workload]
    combined = {}
    attempted = 0
    failed = 0
    for workload in workloads:
        metrics, checks = run_workload(workload, args, results)
        attempted += checks.attempted
        failed += checks.failed
        for name, metric in metrics.items():
            combined[name if len(workloads) == 1 else f"{workload}.{name}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
