"""One untraced ``obfuscate_project`` call in a fresh process.

Run as ``python3 perfbench/child.py <input dir> <output dir> <workers>`` with
the sources on PYTHONPATH. Prints one JSON line: the call's wall time, the
process's own peak RSS and the largest peak RSS of the pool workers it
reaped. A fresh process per call keeps each peak to that one call.
"""

import json
import resource
import sys
import time

from scopeshield.pipeline import ObfuscationConfig, obfuscate_project


def own_peak_rss_kb():
    """Peak RSS of this process's address space (VmHWM).

    ``ru_maxrss`` is not used for the process itself: Linux carries the
    spawning process's peak across exec, so it would report the benchmark's
    own peak whenever that is larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv):
    in_root, out_root, workers = argv[1], argv[2], int(argv[3])
    config = ObfuscationConfig(input_root=in_root, output_root=out_root, workers=workers)
    started = time.perf_counter()
    report = obfuscate_project(config)
    wall = time.perf_counter() - started
    print(
        json.dumps(
            {
                "wall_s": wall,
                "rss_self_kb": own_peak_rss_kb(),
                "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                "files_transformed": report["files_transformed"],
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv)
