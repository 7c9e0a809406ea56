"""Output quality metrics: size inflation, cyclomatic complexity, NID.

NID is the compression-based information distance
    (C(x+y) - min(C(x), C(y))) / max(C(x), C(y))
computed with LZMA by default. Any deterministic lossless compressor can be
injected; the report records which one was used. Pick one with long-range
deduplication: bzip2, for one, pushes nid(x,x) to 0.2+ on realistic
sources, far from the 0 that identical inputs should score. Aggregate NID
over a corpus is the byte-size-weighted mean.
"""

import json
import lzma
from pathlib import Path

from .errors import CompressorFailure, FatalConfigError, ZeroInput
from .pipeline import JS_SUFFIXES, front_end


def size_inflation(input_bytes, output_bytes):
    """(output - input) / input * 100."""
    if input_bytes <= 0:
        raise ZeroInput("input size must be positive")
    return (output_bytes - input_bytes) / input_bytes * 100.0


def cyclomatic_complexity(text, file_id="<input>"):
    """1 for the body itself plus 1 per decision point (if, loops, case
    clauses, catch, ternary, && and ||) plus 1 per function, as the parser
    counts them in the source ``text``.

    This equals the sum of every function's McCabe number plus the module
    body's.
    """
    return 1 + front_end(text, file_id)[3].branch_points


def lzma_compressor(data):
    # preset 6 keeps an 8 MB dictionary, enough to deduplicate across the
    # x+y concatenation for the largest desk-corpus files
    return lzma.compress(data, preset=6)


def nid(x, y, compressor=lzma_compressor):
    """Normalised information distance between two byte strings.

    Concatenation is raw bytes, x then y, no delimiter.
    """
    try:
        cx = len(compressor(x))
        cy = len(compressor(y))
        cxy = len(compressor(x + y))
    except Exception as exc:  # compressor is injectable, guard broadly
        raise CompressorFailure(str(exc)) from exc
    if max(cx, cy) == 0:
        raise CompressorFailure("compressor produced empty output")
    return (cxy - min(cx, cy)) / max(cx, cy)


class MetricsReport:
    """Per-file and aggregate metrics for an original/obfuscated tree pair."""

    def __init__(self, compressor_name):
        self.files = []  # dicts, one per file
        self.compressor_name = compressor_name

    def add_file(self, entry):
        self.files.append(entry)

    def aggregate(self):
        total_in = sum(f["input_bytes"] for f in self.files)
        total_out = sum(f["output_bytes"] for f in self.files)
        agg = {
            "files": len(self.files),
            "input_bytes": total_in,
            "output_bytes": total_out,
            "inflation_percent": round(size_inflation(total_in, total_out), 2)
            if total_in
            else 0.0,
            "compressor": self.compressor_name,
        }
        nid_entries = [f for f in self.files if f.get("nid") is not None]
        if nid_entries:
            weight = sum(f["input_bytes"] for f in nid_entries)
            agg["nid"] = round(
                sum(f["nid"] * f["input_bytes"] for f in nid_entries) / weight, 4
            )
        cc_in = sum(f.get("complexity_original") or 0 for f in self.files)
        cc_out = sum(f.get("complexity_obfuscated") or 0 for f in self.files)
        if cc_in:
            agg["complexity_original"] = cc_in
            agg["complexity_obfuscated"] = cc_out
            agg["complexity_ratio"] = round(cc_out / cc_in, 2)
        return agg

    def to_json(self):
        return json.dumps(
            {"files": self.files, "aggregate": self.aggregate()}, indent=2, sort_keys=True
        )

    def to_table(self):
        """Plain-text table: size class, output size, inflation percent."""
        lines = [f"{'file':<40} {'input':>10} {'output':>10} {'inflation':>10}"]
        for entry in self.files:
            lines.append(
                f"{entry['file']:<40} {entry['input_bytes']:>10} "
                f"{entry['output_bytes']:>10} {entry['inflation_percent']:>9.2f}%"
            )
        agg = self.aggregate()
        lines.append(
            f"{'TOTAL':<40} {agg['input_bytes']:>10} {agg['output_bytes']:>10} "
            f"{agg['inflation_percent']:>9.2f}%"
        )
        if "nid" in agg:
            lines.append(f"aggregate NID ({agg['compressor']}): {agg['nid']}")
        if "complexity_ratio" in agg:
            lines.append(f"cyclomatic complexity ratio: {agg['complexity_ratio']}x")
        return "\n".join(lines)


def measure_tree_pair(original_root, obfuscated_root, compressor=lzma_compressor, with_complexity=True):
    """Compare two mirrored trees file by file (JS files only). The report
    names the compressor after its function, less a ``_compressor`` suffix.
    FatalConfigError if either root is not a directory."""
    orig = Path(original_root)
    obf = Path(obfuscated_root)
    for root in (orig, obf):
        if not root.is_dir():
            raise FatalConfigError(f"{root} is not a directory")
    report = MetricsReport(getattr(compressor, "__name__", "custom").removesuffix("_compressor"))
    for path in sorted(orig.rglob("*")):
        if not path.is_file() or path.suffix not in JS_SUFFIXES:
            continue
        rel = path.relative_to(orig).as_posix()
        other = obf / rel
        if not other.is_file():
            continue
        x = path.read_bytes()
        y = other.read_bytes()
        entry = {
            "file": rel,
            "input_bytes": len(x),
            "output_bytes": len(y),
            "inflation_percent": round(size_inflation(len(x), len(y)), 2),
            "nid": round(nid(x, y, compressor), 4),
        }
        if with_complexity:
            entry["complexity_original"] = _try_complexity(x, rel)
            entry["complexity_obfuscated"] = _try_complexity(y, rel)
        report.add_file(entry)
    return report


def _try_complexity(data, file_id):
    try:
        return cyclomatic_complexity(data.decode("utf-8"), file_id)
    except Exception:
        return None
