"""Span-based text patching.

Transforms never rebuild source from an AST; they produce a list of byte-span
replacements against the original text and ``emit`` applies them in one pass.
Renames are not patches: ``emit`` reads them from the file's occurrence table
as it goes, each occurrence's output name from the rename map, so a file holds
no object per renamed identifier.
"""

from itertools import islice

from .errors import OverlappingPatches
from .scopes import SHORTHAND


class Patch:
    """Replace the half-open span [start, end) with ``replacement``.

    A zero-width span (start == end) is an insertion before ``start``.
    """

    __slots__ = ("start", "end", "replacement")

    def __init__(self, start, end, replacement):
        self.start = start
        self.end = end
        self.replacement = replacement

    def __repr__(self):
        return f"Patch([{self.start},{self.end}) -> {self.replacement!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Patch)
            and self.start == other.start
            and self.end == other.end
            and self.replacement == other.replacement
        )


# text parts joined into one piece at a time: with a part per edit and per
# gap between two, a 1 MB file's 100,000 edits would otherwise hold some
# 200,000 small str objects alive before the one join
_PIECE_PARTS = 1024


def emit(source, patches, occurrences, rename_map):
    """Apply ``patches`` and the renames of ``occurrences`` (an
    ``Occurrences`` table, in start order as the parser reads it) to
    ``source``; return the new text.

    Patches may arrive in any order; the list is sorted in place. Each
    occurrence whose binding ``rename_map`` (``{Binding: output name}``)
    gives another name is rewritten to it, a shorthand `{x}` to `{x: y}`.
    All edits apply in (start, end) order, so an insertion at an
    identifier's start goes before it. Overlap, or a renamed occurrence
    out of start order, is an internal invariant violation and raises
    OverlappingPatches, which makes the caller abort the file rather than
    emit corrupt output.
    """
    patches.sort(key=_span)
    pieces = []
    parts = []
    cursor = 0
    for start, end, text in _edits(patches, occurrences, rename_map):
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


def _span(patch):
    return patch.start, patch.end


def _edits(patches, occurrences, rename_map):
    """(start, end, text) of each of the sorted ``patches`` and each rename,
    merged in (start, end) order."""
    done = 0  # the patches yielded
    names, starts = occurrences.names, occurrences.starts
    styles, bindings = occurrences.styles, occurrences.bindings
    output_name = rename_map.get  # None: the binding keeps its name
    for index, name in enumerate(names):
        new_name = output_name(bindings[index])
        if new_name is None or new_name == name:
            continue
        start = starts[index]
        end = start + len(name)
        while done < len(patches):
            patch = patches[done]
            if patch.start > start or patch.start == start and patch.end >= end:
                break
            yield patch.start, patch.end, patch.replacement
            done += 1
        yield start, end, f"{name}: {new_name}" if styles[index] == SHORTHAND else new_name
    for patch in islice(patches, done, None):
        yield patch.start, patch.end, patch.replacement
