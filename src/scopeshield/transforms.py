"""Performance-preserving obfuscation transforms, applied per file as patches.

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

from .parser import string_value
from .patches import Patch

INSTRUMENT_COUNTER = "__scopeshieldDecodes"


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


def decoder_preamble(table, key, names, instrument=False):
    """Guard + cache + lazy table decode, all hoist-safe declarations.

    Locals inside the generated functions use $-suffixed names the rename
    pool can never produce, so they cannot shadow the injected table, guard,
    cache or transform names.
    """
    t, g, c, d, x = names
    payloads = ",".join('"' + payload + '"' for payload in table)
    instr = (
        f"globalThis.{INSTRUMENT_COUNTER}=(globalThis.{INSTRUMENT_COUNTER}||0)+1;"
        if instrument
        else ""
    )
    body = (
        f"var {t},{g},{c};"
        f"function {d}(n$){{if(!{g}){{{g}=1;{instr}{t}=[{payloads}];{c}=[];"
        f"for(var k$=0;k$<{t}.length;k$++){c}[k$]={x}({t}[k$]);}}return {c}[n$];}}"
    )
    return body + _DECODER_JS.format(X=x, K=key)


def encode_strings(key, fresh_names, source, candidates, instrument=False):
    """Encode the file's eligible string literals, ``candidates`` (the
    (start, end) spans of ``Candidates.strings``), into one table.

    Returns (patches, preamble text, the table's payloads or None).
    Literals shorter than 2 characters, literals with malformed or legacy
    escapes and non-UTF-8-encodable values are skipped.
    """
    table = []
    index_of = {}
    patches = []
    picked = []
    for start, end in candidates:
        raw = source[start:end]
        try:
            value = string_value(raw)
        except ValueError:
            continue
        if len(value) < 2:
            continue
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            continue
        picked.append((start, end, value))
    if not picked:
        return [], "", None

    names = (next(fresh_names), next(fresh_names), next(fresh_names), next(fresh_names), next(fresh_names))
    decoder = names[3]  # names: table, guard, cache, decoder, transform
    calls = []  # table index -> decoder call text
    for start, end, value in picked:
        idx = index_of.get(value)
        if idx is None:
            idx = len(table)
            index_of[value] = idx
            table.append(encode_payload(value, key))
            calls.append(f"{decoder}({idx})")
        call = calls[idx]
        # a quote needs no separator from a preceding keyword (return"x"),
        # but the decoder call does
        if start > 0 and (source[start - 1].isalnum() or source[start - 1] in "_$"):
            call = " " + call
        patches.append(Patch(start, end, call))
    preamble = decoder_preamble(table, key, names, instrument)
    return patches, preamble, table


def rewrite_property_access(fresh_names, candidates):
    """Rewrite the file's ``obj.prop`` accesses, ``candidates`` (the
    (start, `.` start, end, property name) tuples of
    ``Candidates.accesses``), to ``obj[v]``.

    Returns (patches, preamble text, [(slot var, property name)] sorted by
    slot var); one slot per distinct property name in the file, declared by
    the preamble, which the caller injects at the module top.
    """
    access_text = {}  # property name -> "[slot var]"
    slots = []
    patches = []
    for _start, dot, end, name in candidates:
        text = access_text.get(name)
        if text is None:
            var = next(fresh_names)
            slots.append((var, name))
            text = access_text[name] = f"[{var}]"
        patches.append(Patch(dot, end, text))
    if not slots:
        return [], "", []
    slots.sort()
    decls = ",".join(f'{var}="{prop}"' for var, prop in slots)
    return patches, f"var {decls};", slots
