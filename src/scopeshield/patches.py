"""Span-based text patching.

Transforms never rebuild source from an AST; they produce a list of byte-span
replacements against the original text and ``emit`` applies them in one pass.
"""

from .errors import OverlappingPatches


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


# text parts joined into one piece at a time: with a part per patch and per
# gap between two, a 1 MB file's 100,000 patches would otherwise hold some
# 200,000 small str objects alive before the one join
_PIECE_PARTS = 1024


def emit(source, patches):
    """Apply non-overlapping patches to ``source`` and return the new text.

    Patches may arrive in any order; the list is sorted in place. Overlap
    is an internal invariant violation and raises OverlappingPatches, which
    makes the caller abort the file rather than emit corrupt output.
    """
    if not patches:
        return source
    patches.sort(key=lambda p: (p.start, p.end))
    pieces = []
    parts = []
    cursor = 0
    for patch in patches:
        if patch.start < cursor or patch.end < patch.start or patch.end > len(source):
            raise OverlappingPatches(
                f"patch [{patch.start},{patch.end}) overlaps text already "
                f"emitted up to {cursor}"
            )
        parts.append(source[cursor : patch.start])
        parts.append(patch.replacement)
        cursor = patch.end
        if len(parts) >= _PIECE_PARTS:
            pieces.append("".join(parts))
            parts = []
    parts.append(source[cursor:])
    pieces.append("".join(parts))
    return "".join(pieces)
