"""Exception types shared across the obfuscator."""


class ScopeShieldError(Exception):
    """Base class for all errors raised by this package."""


class LexError(ScopeShieldError):
    """Lexical error at a byte offset of one file.

    Files that fail to lex are excluded from transformation and copied
    through verbatim, so this error never aborts a whole run.
    """

    def __init__(self, message, file_id, offset):
        super().__init__(f"{file_id}:{offset}: {message}")
        self.file_id = file_id
        self.offset = offset


class UnterminatedString(LexError):
    pass


class UnterminatedTemplate(LexError):
    pass


class InvalidCharacter(LexError):
    pass


class ParseError(ScopeShieldError):
    """Syntax error; the offending file is copied through verbatim."""

    def __init__(self, message, file_id, offset):
        super().__init__(f"{file_id}:{offset}: {message}")
        self.file_id = file_id
        self.offset = offset


class UnsupportedSyntax(ParseError):
    """Construct outside the supported subset (labels, dynamic import, ...)."""


class OverlappingPatches(ScopeShieldError):
    """Internal invariant violation: two patches touch the same bytes."""


class UnknownScope(ScopeShieldError):
    pass


class OrderViolation(ScopeShieldError):
    """An ancestor scope was not renamed before one of its descendants."""


class ZeroInput(ScopeShieldError):
    pass


class CompressorFailure(ScopeShieldError):
    pass


class EngineNotFound(ScopeShieldError):
    """The external JavaScript engine command could not be executed."""


class FatalConfigError(ScopeShieldError):
    """Configuration problem that prevents the pipeline from starting."""
