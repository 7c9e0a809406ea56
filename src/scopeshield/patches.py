"""Span-based text patching.

Nothing rebuilds source from an AST. The lexer's gap table (minifying) and
the transforms are span replacements against the file as written, as
columns (``Edits``), and ``emit`` applies them in one pass. Renames are not
edits: ``emit`` reads them from the file's occurrence table as it goes,
each occurrence's output name from the rename map, a list of output names
indexed by binding id. So a file holds no object per renamed identifier,
per rewritten access, per encoded string or per gap.
"""

from array import array
from heapq import merge

from .errors import OverlappingPatches
from .scopes import SHORTHAND


class Edits:
    """Span replacements, in start order, as parallel columns: ``starts``
    and ``ends`` (int arrays) and ``texts``. Edit ``i`` replaces the
    half-open span ``[starts[i], ends[i])`` with ``texts[i]``; a zero-width
    span is an insertion before ``starts[i]``. Edits that write the same
    text share one str.
    """

    __slots__ = ("starts", "ends", "texts")

    def __init__(self, starts=None, ends=None, texts=None):
        self.starts = array("i") if starts is None else starts
        self.ends = array("i") if ends is None else ends
        self.texts = [] if texts is None else texts

    def __len__(self):
        return len(self.texts)

    def append(self, start, end, text):
        self.starts.append(start)
        self.ends.append(end)
        self.texts.append(text)

    def truncate(self, count):
        """Keep only the first ``count`` edits."""
        del self.starts[count:], self.ends[count:], self.texts[count:]


# text parts joined into one piece at a time: with a part per edit and per
# gap between two, a 1 MB file's 100,000 edits would otherwise hold some
# 200,000 small str objects alive before the one join
_PIECE_PARTS = 1024


def emit(source, edits, occurrences, names, outputs):
    """Apply the ``Edits`` tables ``edits`` and the renames of
    ``occurrences`` (an ``Occurrences`` table, in start order as the parser
    reads it) to ``source``; return the new text.

    Each occurrence whose binding ``outputs`` (the output name of each
    binding id) gives another name than ``names`` (each binding id's own
    name) is rewritten to it, a shorthand `{x}` to `{x: y}`. All edits apply
    in (start, end) order, so an insertion at an identifier's start goes
    before it. Overlap, or a renamed occurrence out of start order, is an
    internal invariant violation and raises OverlappingPatches, which makes
    the caller abort the file rather than emit corrupt output.
    """
    pieces = []
    parts = []
    cursor = 0
    for start, end, text in _edits(edits, occurrences, names, outputs):
        if start < cursor or end < start or end > len(source):
            raise OverlappingPatches(
                f"patch [{start},{end}) overlaps text already emitted up to {cursor}"
            )
        parts.append(source[cursor:start])
        parts.append(text)
        cursor = end
        if len(parts) >= _PIECE_PARTS:
            pieces.append("".join(parts))
            parts = []
    parts.append(source[cursor:])
    pieces.append("".join(parts))
    return "".join(pieces)


def _edits(edits, occurrences, names, outputs):
    """(start, end, text) of each edit of the tables and each rename,
    merged in (start, end) order."""
    merged = merge(*(zip(table.starts, table.ends, table.texts) for table in edits))
    edit = next(merged, None)
    for start, style, bid in zip(occurrences.starts, occurrences.styles, occurrences.bindings):
        name, new_name = names[bid], outputs[bid]
        if new_name == name:
            continue
        end = start + len(name)
        while edit is not None and (edit[0] < start or edit[0] == start and edit[1] < end):
            yield edit
            edit = next(merged, None)
        yield start, end, f"{name}: {new_name}" if style == SHORTHAND else new_name
    if edit is not None:
        yield edit
        yield from merged
