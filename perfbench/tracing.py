"""In-process tracing of the pipeline's layer calls.

Every public function that ``scopeshield.pipeline`` imports is wrapped in its
namespace (and in its defining module, so calls made from other layers, such
as ``parse`` building a scope tree, nest correctly). Each call records a span
``(id, name, start, end, parent, file)`` in memory; self time is a span's
duration minus the time of its child spans. The file is the one last passed
to ``tokenize``, which starts every per-file task; the project-wide link
functions get none. ``ScopeTree.resolve`` and
``ScopeTree.scope_at`` are only counted: they run hundreds of thousands of
times per file, and a span each would swamp the run.

A layer that no longer exists is reported as absent, never as an error, so
the benchmark keeps running when later changes delete a module.
"""

import importlib
import time
from collections import Counter, defaultdict

# function -> module that defines it at the time the benchmark was written;
# the metric names use these, so they stay stable if a function moves
LAYER_FUNCTIONS = {
    "tokenize": "lexer",
    "minify_tokens": "minify",
    "parse": "parser",
    "parse_ast": "parser",
    "build_scope_tree": "scopes",
    "build_dependency_graph": "depgraph",
    "partition_graph": "depgraph",
    "link_cross_file": "depgraph",
    "rename_tree": "renamer",
    "check_safety": "renamer",
    "rename_patches": "renamer",
    "plan_units": "units",
    "collect_strings": "transforms",
    "collect_property_accesses": "transforms",
    "encode_strings": "transforms",
    "rewrite_property_access": "transforms",
    "emit": "patches",
}

COUNTED_METHODS = {"resolve": "scopes.resolve.calls", "scope_at": "scopes.scope_at.calls"}

def _count_tokenize(counts, args, result):
    counts["lexer.tokens"] += len(result)
    counts["lexer.chars"] += len(args[0])


def _count_scope_tree(counts, args, result):
    counts["scopes.scopes"] += len(result.nodes)
    counts["scopes.occurrences"] += len(result.occurrences)


def _count_graph(counts, args, result):
    counts["depgraph.edges"] += len(result.edges)


def _count_link(counts, args, result):
    counts["depgraph.frozen_names"] += sum(len(names) for names in result[1].values())


def _count_rename(counts, args, result):
    counts["renamer.renamed"] += sum(1 for binding, name in result.items() if name != binding.name)


def _count_safety(counts, args, result):
    counts["renamer.violations"] += len(result)


def _count_units(counts, args, result):
    counts["units.units"] += len(result)


def _count_strings(counts, args, result):
    patches, _preamble, table = result
    if table is not None:
        counts["transforms.decoders"] += 1
    counts["transforms.strings_encoded"] += len(patches)


def _count_props(counts, args, result):
    counts["transforms.props_rewritten"] += len(result[0])


def _count_emit(counts, args, result):
    counts["patches.patches"] += len(args[1])


_COUNTERS = {
    "tokenize": (_count_tokenize, ("lexer.tokens",)),
    "build_scope_tree": (_count_scope_tree, ("scopes.scopes", "scopes.occurrences")),
    "build_dependency_graph": (_count_graph, ("depgraph.edges",)),
    "link_cross_file": (_count_link, ("depgraph.frozen_names",)),
    "rename_tree": (_count_rename, ("renamer.renamed",)),
    "check_safety": (_count_safety, ("renamer.violations",)),
    "plan_units": (_count_units, ("units.units",)),
    "encode_strings": (_count_strings, ("transforms.decoders", "transforms.strings_encoded")),
    "rewrite_property_access": (_count_props, ("transforms.props_rewritten",)),
    "emit": (_count_emit, ("patches.patches",)),
}

# counts derived from a layer call's arguments and result
COUNT_NAMES = tuple(name for _fn, names in _COUNTERS.values() for name in names)


class Tracer:
    """Installs the wrappers, collects spans and counts, and removes them.

    ``partition_workers`` is passed to ``partition_graph`` in place of the
    in-process worker count of 1, so stage 2 does the work it does in the
    workload's real configuration.
    """

    def __init__(self, partition_workers):
        self.partition_workers = partition_workers
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.absent = set()  # metric names whose layer or count is gone
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._file = None
        self._patched = []  # (owner, attribute, original)

    def __enter__(self):
        pipeline = importlib.import_module("scopeshield.pipeline")
        for name, module in LAYER_FUNCTIONS.items():
            original = getattr(pipeline, name, None)
            if not callable(original):
                self.absent.update(
                    {f"{module}.{name}.self_s", f"{module}.{name}.calls"}
                    | set(_COUNTERS.get(name, (None, ()))[1])
                )
                continue
            wrapper = self._wrap(f"{module}.{name}", name, original)
            self._patch(pipeline, name, wrapper)
            home = importlib.import_module(original.__module__)
            if getattr(home, name, None) is original:
                self._patch(home, name, wrapper)
        scopes = importlib.import_module("scopeshield.scopes")
        tree_cls = getattr(scopes, "ScopeTree", None)
        for method, metric in COUNTED_METHODS.items():
            original = getattr(tree_cls, method, None)
            if original is None:
                self.absent.add(metric)
                continue
            self._patch(tree_cls, method, self._counting(metric, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counting(self, metric, original):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return original(*args, **kwargs)

        return counted

    def _wrap(self, key, name, original):
        counter, count_names = _COUNTERS.get(name, (None, ()))
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "tokenize":
                self._file = args[1] if len(args) > 1 else kwargs.get("file_id")
            elif name == "partition_graph" and len(args) > 1 and args[1] == 1:
                args = (args[0], self.partition_workers) + args[2:]
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[key] += duration - frame[1]
                self.calls[key] += 1
                if stack:
                    stack[-1][1] += duration
                file_id = None if key.startswith("depgraph.") else self._file
                self.spans.append((span_id, key, start, end, parent, file_id))
            if counter is not None and not self.absent.issuperset(count_names):
                try:
                    counter(self.counts, args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    # the layer's interface changed: its count is gone, not wrong
                    self.absent.update(count_names)
            return result

        return traced

    def root_seconds(self):
        """Total duration of the spans that have no parent."""
        return sum(end - start for _id, _key, start, end, parent, _f in self.spans if parent is None)
