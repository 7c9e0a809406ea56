"""scopeshield: scope-aware parallel JavaScript obfuscator.

Pipeline: one lexing pass that emits the significant tokens and minifies
in the same pass, streamed into a parser that records facts, not a tree,
span-faithful patching, per-file scope analysis, boundary
names (exports, script globals) frozen per file, shortest-identifier
renaming with an independent safety oracle, and performance-preserving
string/property transforms, plus metrics and a differential equivalence
harness.
"""

from .equivalence import TestCase, run_differential
from .errors import ScopeShieldError
from .lexer import tokenize
from .metrics import cyclomatic_complexity, nid, size_inflation
from .minify import minify
from .patches import Patch, emit
from .pipeline import ObfuscationConfig, obfuscate_project
from .renamer import RenameMap, check_safety, cost, pool_name, rename_tree
from .scopes import Binding, ScopeTree

__all__ = [
    "Binding",
    "ObfuscationConfig",
    "Patch",
    "RenameMap",
    "ScopeShieldError",
    "ScopeTree",
    "TestCase",
    "check_safety",
    "cost",
    "cyclomatic_complexity",
    "emit",
    "minify",
    "nid",
    "obfuscate_project",
    "pool_name",
    "rename_tree",
    "run_differential",
    "size_inflation",
    "tokenize",
]

__version__ = "0.1.0"
