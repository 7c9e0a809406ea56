import random

from scopeshield.parser import _string_value
from scopeshield.patches import Patch, emit
from scopeshield.pipeline import front_end
from scopeshield.renamer import name_sequence
from scopeshield.transforms import (
    INSTRUMENT_COUNTER,
    decode_payload,
    encode_payload,
    encode_strings,
    rewrite_property_access,
)

from conftest import run_node
from corpusgen import GENERATORS


def setup(src, file_id="t.js"):
    """(Candidates, ScopeTree) of ``src`` as written."""
    _text, tree, candidates, _summary = front_end(src, file_id, minify=False)
    return candidates, tree


def fresh():
    return name_sequence(excluded=frozenset())


def encode(src, candidates, tree, key, instrument=False):
    return encode_strings(
        key, fresh(), tree.dynamic_region(), src, candidates.strings, instrument=instrument
    )


def rewrite_props(candidates, tree):
    return rewrite_property_access(fresh(), tree.dynamic_region(), candidates.accesses)


def apply_strings(src, instrument=False, key=7):
    candidates, tree = setup(src)
    patches, preamble, _table = encode(src, candidates, tree, key, instrument)
    if preamble:
        insert = candidates.preamble_offset
        patches.append(Patch(insert, insert, preamble + "\n"))
    return emit(src, patches)


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
    candidates, tree = setup(src)
    patches, preamble, table = encode(src, candidates, tree, 7)
    assert patches == [] and preamble == "" and table is None


def test_decode_runs_once_for_thousand_calls():
    src = (
        'function speak() { return "hi there"; }\n'
        "var out = [];\n"
        "for (var i = 0; i < 1000; i++) { out.push(speak()); }\n"
        f"console.log(out[999], globalThis.{INSTRUMENT_COUNTER});\n"
    )
    transformed = apply_strings(src, instrument=True)
    assert '"hi there"' not in transformed
    assert run_node(code=transformed) == "hi there 1\n"


def test_duplicate_literals_share_one_table_entry():
    src = 'var a = "dup"; var b = "dup"; var c = "other";'
    candidates, tree = setup(src)
    _patches, _pre, table = encode(src, candidates, tree, 3)
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
    candidates, tree = setup(src)
    patches, preamble, slots = rewrite_props(candidates, tree)
    assert len(slots) == 2  # score, log
    assert slots == sorted(slots)
    score_var = next(var for var, prop in slots if prop == "score")
    assert f'{score_var}="score"' in preamble
    out = emit(src, patches + [Patch(0, 0, preamble + "\n")])
    assert f"player[{score_var}]+=1" in out.replace(" ", "")
    assert run_node(code=out) == "42\n"


def test_no_member_accesses_no_patches():
    src = "var plain = 1 + 2;"
    candidates, tree = setup(src)
    patches, preamble, slots = rewrite_props(candidates, tree)
    assert patches == [] and preamble == "" and slots == []


def test_repeated_accesses_share_slot():
    src = (
        "var o = {score: 1};\n"
        "o.score += 1; o.score += 2; o.score += 3; o.score += 4; o.score *= 2;\n"
        "console.log(o.score);"
    )
    candidates, tree = setup(src)
    _patches, _pre, slots = rewrite_props(candidates, tree)
    # count-oracle: one slot per distinct property name
    names = {name for _start, _dot, _end, name in candidates.accesses}
    assert len(slots) == len(names)


def test_candidates_in_source_order_without_super_or_delete_targets():
    src = (
        'class B extends A { m() { return super.x + this.y; } }\n'
        'var o = {"k": "key", n: 1};\n'
        "delete (o.a); delete ((o.b).c); delete o.d;\n"
        'o.e = "one" + "two";'
    )
    candidates, _tree = setup(src)
    assert [src[start:end] for start, end in candidates.strings] == ['"key"', '"one"', '"two"']
    assert [name for _start, _dot, _end, name in candidates.accesses] == ["y", "b", "e"]


def test_delete_targets_skipped():
    src = "var o = {a: 1, b: 2};\ndelete o.a;\nconsole.log(o.b, o.a);"
    candidates, tree = setup(src)
    patches, preamble, _slots = rewrite_props(candidates, tree)
    out = emit(src, patches + ([Patch(0, 0, preamble + "\n")] if preamble else []))
    assert "delete o.a" in out
    assert run_node(code=out) == "2 undefined\n"


def test_method_calls_keep_this_binding():
    src = (
        "var counter = {n: 10, bump: function (d) { this.n += d; return this.n; }};\n"
        "console.log(counter.bump(5), counter.n);"
    )
    candidates, tree = setup(src)
    patches, preamble, _slots = rewrite_props(candidates, tree)
    out = emit(src, patches + [Patch(0, 0, preamble + "\n")])
    assert run_node(code=out) == "15 15\n"


def test_every_candidate_outside_dynamic_regions_rewritten():
    # one table and one slot map cover the whole file: each eligible
    # candidate is patched exactly once, whatever its position
    rng = random.Random(17)
    for gen in GENERATORS:
        for file_id, src in gen(rng).items():
            candidates, tree = setup(src, file_id)
            inside = tree.dynamic_region()
            strings, accesses = candidates.strings, candidates.accesses
            props = [dot for start, dot, _end, _name in accesses if not inside(start)]
            patches, _pre, _slots = rewrite_property_access(fresh(), inside, accesses)
            assert sorted(p.start for p in patches) == sorted(props)
            eligible = [
                start
                for start, end in strings
                if not inside(start) and len(_string_value(src[start:end])) >= 2
            ]
            patches, _pre, _table = encode_strings(7, fresh(), inside, src, strings)
            assert sorted(p.start for p in patches) == sorted(eligible)
