"""Environment (host) names that always keep their spelling.

These resolve to the global marker and are never renamed, and no name the
renamer or the transforms draw spells one of them. The set ships as a
default and can be replaced by an allowlist file (one name per line, '#'
comments).
"""

from .errors import FatalConfigError

DEFAULT_EXTERNAL_NAMES = frozenset(
    """
    console Math JSON Object Array String Number Boolean Symbol BigInt Date
    RegExp Error TypeError RangeError SyntaxError EvalError ReferenceError
    URIError AggregateError Promise Map Set WeakMap WeakSet WeakRef Proxy
    Reflect Function eval globalThis undefined NaN Infinity arguments
    parseInt parseFloat isNaN isFinite
    encodeURIComponent decodeURIComponent encodeURI decodeURI escape unescape
    setTimeout clearTimeout setInterval clearInterval queueMicrotask
    structuredClone atob btoa TextEncoder TextDecoder
    ArrayBuffer SharedArrayBuffer DataView Int8Array Uint8Array
    Uint8ClampedArray Int16Array Uint16Array Int32Array Uint32Array
    Float32Array Float64Array BigInt64Array BigUint64Array
    window document navigator location performance history screen
    requestAnimationFrame cancelAnimationFrame fetch XMLHttpRequest
    URL URLSearchParams Blob FileReader Worker Intl WebAssembly
    process global require module exports Buffer __dirname __filename
    wx GameGlobal canvas
    """.split()
)


def load_allowlist(path=None):
    """The default set, optionally extended by names from a file."""
    names = set(DEFAULT_EXTERNAL_NAMES)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise FatalConfigError(f"cannot read allowlist {path}: {exc}") from exc
        for line in lines:
            entry = line.split("#", 1)[0].strip()
            if entry:
                names.add(entry)
    return frozenset(names)
