import random

from scopeshield.parser import string_value
from scopeshield.pipeline import front_end
from scopeshield.renamer import name_sequence
from scopeshield.transforms import (
    decode_payload,
    encode_payload,
    encode_strings,
    rewrite_property_access,
)

from conftest import COUNT_FROM_CHAR_CODE, edit_rows, patched, run_node
from corpusgen import GENERATORS


def setup(src, file_id="t.js"):
    """The Candidates of ``src`` as written."""
    return front_end(src, file_id)[2]


def fresh():
    return name_sequence(excluded=frozenset())


def encode(src, candidates, key):
    return encode_strings(key, fresh(), src, candidates.strings)


def rewrite_props(candidates):
    return rewrite_property_access(fresh(), candidates.accesses)


def apply_strings(src, key=7):
    candidates = setup(src)
    edits, preamble, _table = encode(src, candidates, key)
    rows = edit_rows(edits)
    if preamble:
        insert = candidates.preamble_offset
        rows.append((insert, insert, preamble + "\n"))
    return patched(src, rows)


# ---- payload codec ----

def test_payload_round_trip():
    rng = random.Random(5)
    samples = ["hi", "hello world", "ünïcödé ✓ 💡", "line\nbreak\ttab", "x" * 500]
    for _ in range(50):
        samples.append("".join(chr(rng.randrange(32, 0x2FFF)) for _ in range(rng.randrange(2, 40))))
    for key in (0, 7, 255):
        for value in samples:
            assert decode_payload(encode_payload(value, key), key) == value


# ---- string encoding ----

def test_no_literals_no_preamble():
    src = "var count = 1 + 2;"
    candidates = setup(src)
    edits, preamble, table = encode(src, candidates, 7)
    assert len(edits) == 0 and preamble == "" and table is None


def test_decode_runs_once_for_thousand_calls():
    src = (
        'function speak() { return "hi there"; }\n'
        "var out = [];\n"
        "for (var i = 0; i < 1000; i++) { out.push(speak()); }\n"
        "console.log(out[999]);\n"
    )
    transformed = apply_strings(src)
    assert '"hi there"' not in transformed
    # one String.fromCharCode call per decoded character: one table decode
    assert run_node(code=COUNT_FROM_CHAR_CODE + transformed) == "hi there\n8\n"


def test_duplicate_literals_share_one_table_entry():
    src = 'var a = "dup"; var b = "dup"; var c = "other";'
    candidates = setup(src)
    _edits, _pre, table = encode(src, candidates, 3)
    # oracle: table length equals the number of distinct eligible literals
    distinct = {"dup", "other"}
    assert len(table) == len(distinct)


def test_short_strings_and_directives_skipped():
    src = '"use strict"; var bang = "!"; var ok = "long enough";'
    transformed = apply_strings(src)
    assert '"use strict"' in transformed
    assert '"!"' in transformed
    assert '"long enough"' not in transformed


def test_object_keys_kept_but_values_encoded():
    src = 'var cfg = {"mode": "fast-path"};\nconsole.log(cfg.mode);'
    transformed = apply_strings(src)
    assert '"mode"' in transformed
    assert '"fast-path"' not in transformed
    assert run_node(code=transformed) == "fast-path\n"


def test_dynamic_scope_literals_skipped():
    src = 'function f(){ var tag = "inside-eval"; return eval("tag"); }\nvar out = "outside";'
    transformed = apply_strings(src)
    assert '"inside-eval"' in transformed
    assert '"outside"' not in transformed


def test_import_paths_untouched():
    src = 'import {x} from "./dep.js";\nvar s = "payload";'
    transformed = apply_strings(src)
    assert '"./dep.js"' in transformed
    assert '"payload"' not in transformed


def test_keyword_boundary_kept():
    src = 'function f(){ return"zero done"; }\nconsole.log(f());'
    transformed = apply_strings(src)
    assert run_node(code=transformed) == "zero done\n"


def test_unicode_survives_the_js_decoder():
    src = 'var msg = "héllo ✓ 💡 end"; console.log(msg);'
    transformed = apply_strings(src)
    assert run_node(code=transformed) == "héllo ✓ 💡 end\n"


# ---- property access ----

def test_property_access_rewritten_via_hoisted_slot():
    src = "player.score += 1;\nconsole.log(player.score);"
    src = "var player = {score: 41};\n" + src
    candidates = setup(src)
    edits, preamble, slots = rewrite_props(candidates)
    assert len(slots) == 2  # score, log
    assert slots == sorted(slots)
    score_var = next(var for var, prop in slots if prop == "score")
    assert f'{score_var}="score"' in preamble
    out = patched(src, edit_rows(edits) + [(0, 0, preamble + "\n")])
    assert f"player[{score_var}]+=1" in out.replace(" ", "")
    assert run_node(code=out) == "42\n"


def test_no_member_accesses_no_patches():
    src = "var plain = 1 + 2;"
    candidates = setup(src)
    edits, preamble, slots = rewrite_props(candidates)
    assert len(edits) == 0 and preamble == "" and slots == []


def test_repeated_accesses_share_slot():
    src = (
        "var o = {score: 1};\n"
        "o.score += 1; o.score += 2; o.score += 3; o.score += 4; o.score *= 2;\n"
        "console.log(o.score);"
    )
    candidates = setup(src)
    _edits, _pre, slots = rewrite_props(candidates)
    # count-oracle: one slot per distinct property name
    names = set(candidates.accesses.texts)
    assert len(slots) == len(names)


def test_candidates_in_source_order_without_super_or_delete_targets():
    src = (
        'class B extends A { m() { return super.x + this.y; } }\n'
        'var o = {"k": "key", n: 1};\n'
        "delete (o.a); delete ((o.b).c); delete o.d;\n"
        'o.e = "one" + "two";'
    )
    candidates = setup(src)
    assert [src[start:end] for start, end in candidates.strings] == ['"key"', '"one"', '"two"']
    assert candidates.accesses.texts == ["y", "b", "e"]


def test_delete_targets_skipped():
    src = "var o = {a: 1, b: 2};\ndelete o.a;\nconsole.log(o.b, o.a);"
    candidates = setup(src)
    edits, preamble, _slots = rewrite_props(candidates)
    out = patched(src, edit_rows(edits) + ([(0, 0, preamble + "\n")] if preamble else []))
    assert "delete o.a" in out
    assert run_node(code=out) == "2 undefined\n"


def test_method_calls_keep_this_binding():
    src = (
        "var counter = {n: 10, bump: function (d) { this.n += d; return this.n; }};\n"
        "console.log(counter.bump(5), counter.n);"
    )
    candidates = setup(src)
    edits, preamble, _slots = rewrite_props(candidates)
    out = patched(src, edit_rows(edits) + [(0, 0, preamble + "\n")])
    assert run_node(code=out) == "15 15\n"


def apply_both(src):
    """``src`` with its accesses rewritten and its strings encoded."""
    candidates = setup(src)
    names = fresh()
    edits, preamble, _slots = rewrite_property_access(names, candidates.accesses)
    str_edits, str_pre, _table = encode_strings(7, names, src, candidates.strings)
    insert = candidates.preamble_offset
    rows = edit_rows(edits) + edit_rows(str_edits) + [(insert, insert, preamble + str_pre + "\n")]
    return patched(src, rows)


def test_candidates_read_outside_a_dynamic_scope_holding_them_are_rewritten():
    # the computed key is read before the eval method's scope starts, and
    # `.call` after the eval function's scope ends: both run in the outer scope
    src = (
        'var s = "1 + 1", o = {["key"]() { return eval(s); }};\n'
        'var n = function () { return eval("this.v * 2"); }.call({v: 21});\n'
        "console.log(o.key(), n);"
    )
    out = apply_both(src)
    assert '["key"]' not in out and ".call(" not in out
    assert '"this.v * 2"' in out  # read inside the eval function
    assert run_node(code=out) == run_node(code=src) == "2 42\n"


def test_every_candidate_rewritten_once():
    # one table and one slot map cover the whole file: each eligible
    # candidate is patched exactly once, whatever its position
    rng = random.Random(17)
    for gen in GENERATORS:
        for file_id, src in gen(rng).items():
            candidates = setup(src, file_id)
            strings, accesses = candidates.strings, candidates.accesses
            edits, _pre, _slots = rewrite_property_access(fresh(), accesses)
            assert edits.starts == accesses.starts
            eligible = [start for start, end in strings if len(string_value(src[start:end])) >= 2]
            edits, _pre, _table = encode_strings(7, fresh(), src, strings)
            assert list(edits.starts) == eligible
