"""Conservative whitespace/comment stripping.

Comments are removed and whitespace runs collapsed, but line breaks between
tokens are never deleted outright (only deduplicated), so automatic-semicolon
insertion and restricted productions behave exactly as in the input. The
result re-tokenizes to the same significant tokens. ``lex`` does the work,
in the pass that lexes the file.
"""

from .lexer import lexed_text


def minify(source, file_id="<input>"):
    """Minify source text; lexical errors propagate to the caller."""
    return lexed_text(source, file_id, minify=True)
