"""scopeshield: scope-aware parallel JavaScript obfuscator.

Per file: one lexing pass that minifies as it goes, streamed into a parser
that records facts, not a tree: the scope tree, whose scopes, bindings and
identifier occurrences are int columns that refer to one another by id;
the transform candidates; and the file's summary. Then the boundary names
(exports, script globals) frozen from that summary; shortest-identifier
renaming into a list of output names indexed by binding id, checked by an
independent safety oracle; string and property transforms as span edit
columns; and one emit that applies the edits and writes the renames from
the occurrence table. Plus metrics and a differential equivalence harness.
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
