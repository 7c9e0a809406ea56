"""scopeshield: scope-aware parallel JavaScript obfuscator.

Per file: one lexing pass that minifies as it goes, streamed into a parser
that records facts, not a tree (the scope tree with its occurrence table,
the transform candidates and the file's summary); the boundary names
(exports, script globals) frozen from that summary; shortest-identifier
renaming into a plain ``{Binding: output name}`` map, checked by an
independent safety oracle; string and property transforms as span patches;
and one emit that applies the patches and writes the renames from the
occurrence table. Plus metrics and a differential equivalence harness.
"""

from .equivalence import TestCase, run_differential
from .errors import ScopeShieldError
from .metrics import cyclomatic_complexity, nid, size_inflation
from .patches import Patch, emit
from .pipeline import ObfuscationConfig, obfuscate_project
from .renamer import check_safety, rename_tree
from .scopes import Binding, ScopeTree

__all__ = [
    "Binding",
    "ObfuscationConfig",
    "Patch",
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
