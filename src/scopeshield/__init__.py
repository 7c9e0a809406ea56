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

Import the API (``ObfuscationConfig``, ``obfuscate_project``) from
``scopeshield.pipeline``; this package imports no module, so a run loads
only those it uses.
"""

__version__ = "0.1.0"
