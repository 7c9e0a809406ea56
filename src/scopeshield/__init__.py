"""scopeshield: scope-aware parallel JavaScript obfuscator.

Per file: one lexing pass, streamed into a parser that records facts, not
a tree: the scope tree, whose scopes, bindings and identifier occurrences
are int columns that refer to one another by id; the transform candidates;
the file's summary; and the lexer's gap table, which minifies. Every span
indexes the file as written. Then the boundary names (exports, script
globals) frozen from that summary; shortest-identifier renaming into a list
of output names indexed by binding id, checked by an independent safety
oracle; string and property transforms as span edit columns; and one emit
that applies the gap table and the edits and writes the renames from the
occurrence table. Plus metrics and a differential equivalence harness.
"""

from .equivalence import TestCase, run_differential
from .errors import ScopeShieldError
from .metrics import cyclomatic_complexity, nid, size_inflation
from .patches import Edits, emit
from .pipeline import ObfuscationConfig, obfuscate_project
from .renamer import check_safety, rename_tree
from .scopes import ScopeTree

__all__ = [
    "Edits",
    "ObfuscationConfig",
    "ScopeShieldError",
    "ScopeTree",
    "TestCase",
    "check_safety",
    "cyclomatic_complexity",
    "emit",
    "nid",
    "obfuscate_project",
    "rename_tree",
    "run_differential",
    "size_inflation",
]

__version__ = "0.1.0"
