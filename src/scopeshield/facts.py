"""What a file's parse records besides its scope tree: the file's summary,
which frozen names, unresolved imports and the metrics read, and the
candidates of the string and property transforms, kept as columns like the
tree.
"""

from array import array


class FileSummary:
    """Per-file facts that frozen names, unresolved imports and the metrics
    read.

    ``kind`` is "esm" for an ``.mjs`` file and for a file with an import or
    export declaration (``export {}`` too), else "script"; only
    ``renamer.frozen_names`` reads it. ``imports`` holds the source path of
    each import and re-export, in source order. ``export_locals`` holds the
    local binding behind each named export. ``branch_points`` counts the
    decision points and functions that ``metrics.cyclomatic_complexity``
    adds to 1.
    """

    __slots__ = ("kind", "imports", "export_locals", "branch_points")

    def __init__(self, kind):
        self.kind = kind
        self.imports = []
        self.export_locals = []
        self.branch_points = 0


class Spans:
    """Source spans, in the order the parser reads them, as two int
    columns: ``starts`` and ``ends``."""

    __slots__ = ("starts", "ends")

    def __init__(self):
        self.starts, self.ends = array("i"), array("i")

    def __len__(self):
        return len(self.starts)

    def __iter__(self):
        return zip(self.starts, self.ends)

    def append(self, start, end):
        self.starts.append(start)
        self.ends.append(end)

    def truncate(self, count):
        """Keep only the first ``count`` spans."""
        del self.starts[count:], self.ends[count:]


class Candidates:
    """What the transforms read: ``strings``, the spans of the encodable
    string literals (``Spans``), and ``accesses``, the rewritable
    `obj.prop` accesses (an ``Edits`` table: each span from the `.` to
    the access's end, its text the property name), both in source order and
    none read where a dynamic site can see it; and ``preamble_offset``, where
    the preamble goes: after the directive prologue, so an injected
    declaration cannot demote "use strict"."""

    __slots__ = ("strings", "accesses", "preamble_offset")

    def __init__(self, strings, accesses, preamble_offset):
        self.strings = strings
        self.accesses = accesses
        self.preamble_offset = preamble_offset
