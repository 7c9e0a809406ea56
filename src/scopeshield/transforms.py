"""Performance-preserving obfuscation transforms, applied per file as span
edits.

String literals are replaced by indexed calls into the file's one decoder,
whose table is decoded exactly once behind a guard variable; later calls read
the cache. Static property accesses ``obj.prop`` become ``obj[v]`` with ``v``
a hoisted variable holding the property name (one per distinct name in the
file), so the rewritten access stays a direct variable lookup.

The decoder is hoist-safe: it and its state are function/var declarations
and it fills its table on its first call, so calls from anywhere in the
module (including code that runs before the preamble's position) behave
correctly. The property slots are not: ``var v="prop"`` holds its value only
once the preamble has run, so in an ES-module import cycle a function of
this module that another module calls before this module's body has run
reads ``obj[undefined]``.

The candidates come from the parser, which has already dropped those read
in a scope containing ``eval``, ``with`` or a ``Function`` call, or nested
in one: a dynamic site may read them as written.
"""

import base64
from array import array
from bisect import bisect_left

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
    """Guard + cache + lazy table decode, all hoist-safe declarations.

    Locals inside the generated functions use $-suffixed names the rename
    pool can never produce, so they cannot shadow the injected table, guard,
    cache or transform names.
    """
    t, g, c, d, x = names
    payloads = ",".join('"' + payload + '"' for payload in table)
    body = (
        f"var {t},{g},{c};"
        f"function {d}(n$){{if(!{g}){{{g}=1;{t}=[{payloads}];{c}=[];"
        f"for(var k$=0;k$<{t}.length;k$++){c}[k$]={x}({t}[k$]);}}return {c}[n$];}}"
    )
    return body + _DECODER_JS.format(X=x, K=key)


def encode_strings(key, fresh_names, source, gaps, candidates):
    """Encode the file's eligible string literals, ``candidates`` (the
    ``Spans`` of ``Candidates.strings``), into one table. ``gaps`` are the
    gap edits the emit applies with these: a decoder call spaces itself from
    what the output holds before it.

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

    names = (next(fresh_names), next(fresh_names), next(fresh_names), next(fresh_names), next(fresh_names))
    decoder = names[3]  # names: table, guard, cache, decoder, transform
    table = [encode_payload(value, key) for value in index_of]
    calls = [f"{decoder}({idx})" for idx in range(len(table))]
    spaced = {}  # table index -> its call after a space
    texts = []
    for start, idx in zip(starts, indexes):
        # a quote needs no separator from a preceding keyword (return"x"),
        # but the decoder call does
        before = _output_before(source, gaps, start)
        if before.isalnum() or before in ("_", "$"):
            texts.append(spaced.setdefault(idx, " " + calls[idx]))
        else:
            texts.append(calls[idx])
    return Edits(starts, ends, texts), decoder_preamble(table, key, names), table


def _output_before(source, gaps, start):
    """The character the output holds before offset ``start`` of ``source``,
    a token's start, under the gap edits ``gaps`` ("" at the output's start):
    the text of a gap edit that ends there, else the character before it."""
    index = bisect_left(gaps.ends, start)
    if index < len(gaps) and gaps.ends[index] == start:
        if gaps.texts[index]:
            return gaps.texts[index]
        start = gaps.starts[index]
    return source[start - 1] if start > 0 else ""


def rewrite_property_access(fresh_names, accesses):
    """Rewrite the file's ``obj.prop`` accesses (``Candidates.accesses``)
    to ``obj[v]``: each span from the `.` to the end becomes ``[v]``.

    Returns (``Edits`` over the accesses' own span columns, preamble text,
    [(slot var, property name)] sorted by slot var); one slot per distinct
    property name in the file, declared by the preamble, which the caller
    injects at the module top. The edits of one name share its text.
    """
    access_text = {}  # property name -> "[slot var]"
    slots = []
    texts = []
    for name in accesses.names:
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
