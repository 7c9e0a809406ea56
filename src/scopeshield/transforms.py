"""Performance-preserving obfuscation transforms, applied per file as span
edits that read only their candidates and the file as written.

String literals become indexed calls into the file's one decoder, whose one
state variable holds the string table: the payloads until the first call
decodes them in place, so the table is decoded exactly once. A call right
after a word (``return"x"``) gets a space; any gap there keeps one anyway
(lexer), so the edits are the same with minifying on or off. Static property
accesses `obj.prop` become ``obj[v]`` with ``v`` a hoisted variable
holding the property name (one per distinct name in the file), so the
rewritten access stays a direct variable lookup.

The decoder is hoist-safe: it and its state are function/var declarations,
the ``var`` has no initializer and the decoder fills the table on its first
call, so calls from anywhere in the module (including code that runs before
the preamble's position) behave correctly. The property slots are not:
``var v="prop"`` holds its value only once the preamble has run, so in an
ES-module import cycle a function of this module that another module calls
before this module's body has run reads ``obj[undefined]``.

The candidates come from the parser, which has already dropped those read
in a scope containing ``eval``, ``with`` or a ``Function`` call, or nested
in one: a dynamic site may read them as written.
"""

import base64
from array import array

from .parser import string_value
from .patches import Edits


def encode_payload(value, key):
    """XOR the UTF-8 bytes with a rolling key, then base64."""
    data = value.encode("utf-8")
    xored = bytes(b ^ ((key + i) & 0xFF) for i, b in enumerate(data))
    return base64.b64encode(xored).decode("ascii")


def decode_payload(payload, key):
    """Python mirror of the JS decoder; the encode/decode round-trip oracle."""
    xored = base64.b64decode(payload)
    data = bytes(b ^ ((key + i) & 0xFF) for i, b in enumerate(xored))
    return data.decode("utf-8")


# Base64 + rolling-XOR + UTF-8 decoder written against bare ES5 so it runs on
# any engine; locals live in their own function scope.
_DECODER_JS = (
    "function {X}(s){{"
    "var A=\"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/\","
    "b=[],v=0,q=0,i,c;"
    "for(i=0;i<s.length;i++){{c=A.indexOf(s.charAt(i));if(c<0)continue;"
    "v=v*64+c;q+=6;if(q>=8){{q-=8;b.push((v>>q)&255);v&=(1<<q)-1;}}}}"
    "for(i=0;i<b.length;i++)b[i]^=({K}+i)&255;"
    "var o=\"\",j=0,x,y,z,w,p;"
    "while(j<b.length){{x=b[j++];"
    "if(x<128)p=x;"
    "else if(x<224){{y=b[j++];p=((x&31)<<6)|(y&63);}}"
    "else if(x<240){{y=b[j++];z=b[j++];p=((x&15)<<12)|((y&63)<<6)|(z&63);}}"
    "else{{y=b[j++];z=b[j++];w=b[j++];p=((x&7)<<18)|((y&63)<<12)|((z&63)<<6)|(w&63);}}"
    "if(p>=65536){{p-=65536;o+=String.fromCharCode(55296+(p>>10),56320+(p&1023));}}"
    "else o+=String.fromCharCode(p);}}"
    "return o;}}"
)


def decoder_preamble(table, key, names):
    """The table variable and a decoder that decodes it in place on its
    first call, all hoist-safe declarations.

    Locals inside the generated functions use $-suffixed names the rename
    pool can never produce, so they cannot shadow the injected table or
    transform names.
    """
    c, d, x = names
    payloads = ",".join('"' + payload + '"' for payload in table)
    return (
        f"var {c};function {d}(n$){{if(!{c}){{{c}=[{payloads}];"
        f"for(var k$=0;k$<{c}.length;k$++){c}[k$]={x}({c}[k$]);}}return {c}[n$];}}"
    ) + _DECODER_JS.format(X=x, K=key)


def encode_strings(key, fresh_names, source, candidates):
    """Encode the file's eligible string literals, ``candidates`` (the
    ``Spans`` of ``Candidates.strings``), into one table.

    Returns (``Edits``, preamble text, the table's payloads or None); the
    edits of one table entry share its decoder call text. Literals shorter
    than 2 characters, literals with malformed or legacy escapes and
    non-UTF-8-encodable values are skipped.
    """
    starts, ends = array("i"), array("i")
    indexes = array("i")  # the table index of each literal encoded
    index_of = {}  # value -> table index
    for start, end in candidates:
        try:
            value = string_value(source[start:end])
        except ValueError:
            continue
        if len(value) < 2:
            continue
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            continue
        starts.append(start)
        ends.append(end)
        indexes.append(index_of.setdefault(value, len(index_of)))
    if not starts:
        return Edits(), "", None

    names = [next(fresh_names) for _ in range(3)]  # table, decoder, transform
    table = [encode_payload(value, key) for value in index_of]
    calls = [f"{names[1]}({idx})" for idx in range(len(table))]
    spaced = {}  # table index -> its call after a space
    texts = []
    for start, idx in zip(starts, indexes):
        # a quote needs no separator from a word just before it (return"x"),
        # but the decoder call does; a gap there keeps a space (lexer)
        before = source[start - 1] if start else ""
        if before.isalnum() or before in ("_", "$"):
            texts.append(spaced.setdefault(idx, " " + calls[idx]))
        else:
            texts.append(calls[idx])
    return Edits(starts, ends, texts), decoder_preamble(table, key, names), table


def rewrite_property_access(fresh_names, accesses):
    """Rewrite the file's `obj.prop` accesses (``Candidates.accesses``,
    an ``Edits`` table of each access's span from the `.` and its property
    name) to ``obj[v]``.

    Returns (``Edits`` over the accesses' own span columns, preamble text,
    [(slot var, property name)] sorted by slot var); one slot per distinct
    property name in the file, declared by the preamble, which the caller
    injects at the module top. The edits of one name share its text.
    """
    access_text = {}  # property name -> "[slot var]"
    slots = []
    texts = []
    for name in accesses.texts:
        text = access_text.get(name)
        if text is None:
            var = next(fresh_names)
            slots.append((var, name))
            text = access_text[name] = f"[{var}]"
        texts.append(text)
    if not slots:
        return Edits(), "", []
    slots.sort()
    decls = ",".join(f'{var}="{prop}"' for var, prop in slots)
    return Edits(accesses.starts, accesses.ends, texts), f"var {decls};", slots
