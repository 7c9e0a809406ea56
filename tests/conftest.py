import shutil
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from pathlib import Path

import pytest

from scopeshield import pipeline
from scopeshield.lexer import lex
from scopeshield.patches import Edits, emit
from scopeshield.scopes import GLOBAL_SCOPE, Occurrences

sys.path.insert(0, str(Path(__file__).parent))

NODE = shutil.which("node")


def run_node(code=None, path=None, cwd=None, timeout=30):
    """Run a snippet or file under node and return stdout; fails the test on
    a nonzero exit."""
    if NODE is None:
        pytest.skip("node is not installed")
    argv = [NODE, "-e", code] if code is not None else [NODE, str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=timeout)
    assert proc.returncode == 0, f"node failed: {proc.stderr}"
    return proc.stdout


# A script to run in front of a program: it counts the program's
# String.fromCharCode calls and prints the count once the program has run.
COUNT_FROM_CHAR_CODE = (
    "(function(){var f=String.fromCharCode,n=0;"
    "String.fromCharCode=function(){n++;return f.apply(String,arguments);};"
    'process.on("exit",function(){console.log(n);});})();\n'
)


# a named view of a token tuple
TokenView = namedtuple("TokenView", "kind text start end nl")


def lex_all(source, file_id="<input>"):
    """The tokens of ``source``, as one list of ``TokenView``: ``lex``
    drained."""
    return [TokenView(*tok) for batch in lex(source, Edits(), file_id) for tok in batch]


def gap_table(source, file_id="<input>"):
    """The gap table ``lex`` fills for ``source``."""
    gaps = Edits()
    for _batch in lex(source, gaps, file_id):
        pass
    return gaps


def minified(source):
    """``source`` minified: its gap table applied by ``emit``."""
    return emit(source, [gap_table(source)], Occurrences(), [], [])


def occurrence_names(tree):
    """The name of each occurrence of ``tree``: its binding's."""
    return [tree.bindings.names[bid] for bid in tree.occurrences.bindings]


def edits(*rows):
    """An ``Edits`` table of (start, end, text) rows, given in start order."""
    table = Edits()
    for row in rows:
        table.append(*row)
    return table


def edit_rows(table):
    """The (start, end, text) rows of an ``Edits`` table."""
    return list(zip(table.starts, table.ends, table.texts))


def patched(source, rows):
    """``source`` with the (start, end, text) ``rows``, in any order,
    applied by ``emit``, with no renames: one ``Edits`` table per row."""
    return emit(source, [edits(row) for row in rows], Occurrences(), [], [])


ScopeView = namedtuple("ScopeView", "id kind parent start end dynamic declarations children")


def scope_views(tree):
    """A ScopeView of each scope of ``tree``, by id: its columns, its
    declarations ({} for none) and the ids of its child scopes."""
    children = [[] for _ in range(len(tree))]
    for sid, parent in enumerate(tree.parents):
        if parent != GLOBAL_SCOPE:
            children[parent].append(sid)
    return [
        ScopeView(
            sid, tree.kinds[sid], tree.parents[sid], tree.starts[sid], tree.ends[sid],
            tree.dynamic[sid], tree.declarations[sid] or {}, children[sid],
        )
        for sid in range(len(tree))
    ]


def module_names(tree):
    """The sorted names the module scope of ``tree`` declares."""
    return sorted(tree.declarations[tree.root] or ())


def declared_bindings(tree):
    """The ids of the bindings the scopes of ``tree`` declare, scope by
    scope, each scope's by name."""
    return [decls[name] for decls in tree.declarations if decls for name in sorted(decls)]


def rename_cost(tree, outputs):
    """Sum of the declared bindings' output names' lengths: every binding
    weighs 1."""
    return sum(len(outputs[bid]) for bid in declared_bindings(tree))


def nl_before(tokens):
    """The indexes of the tokens a line break precedes."""
    return {i for i, t in enumerate(tokens) if t.nl}


# the functions ``process_file`` calls for each phase, by phase
PHASE_FUNCTIONS = {
    "front end": "front_end",
    "rename": "rename_file",  # rename_tree and check_safety
    "transform": "transform_file",
    "emit": "emit",
}


def phase_peaks(config, rel_path):
    """(result, {phase: traced peak bytes}) of one ``process_file`` run on
    ``rel_path``, with the cyclic collector paused as in a pool worker. A
    phase's peak counts what the earlier phases left alive."""
    peaks = {}

    def traced(phase, function):
        def run(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return function(*args, **kwargs)
            finally:
                peaks[phase] = tracemalloc.get_traced_memory()[1]

        return run

    originals = {name: getattr(pipeline, name) for name in PHASE_FUNCTIONS.values()}
    for phase, name in PHASE_FUNCTIONS.items():
        setattr(pipeline, name, traced(phase, originals[name]))
    tracemalloc.start()
    try:
        result = pipeline._gc_paused(pipeline.process_file, config, frozenset(), rel_path)
    finally:
        tracemalloc.stop()
        for name, function in originals.items():
            setattr(pipeline, name, function)
    return result, peaks


@pytest.fixture(scope="session")
def node():
    if NODE is None:
        pytest.skip("node is not installed")
    return NODE
