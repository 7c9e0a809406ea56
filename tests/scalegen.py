"""Synthetic scaling corpus for the size, growth and NID tests.

The corpus is a set of independent modules (no imports, no shared globals)
generated deterministically from per-file seeds, so runs are reproducible and
every file can be processed without coordination.
"""

import random
from math import ceil
from pathlib import Path

_NOUNS = (
    "order entry player score level bonus item cache packet frame sprite "
    "widget record bucket token vector matrix signal buffer segment handle "
    "market ticket wallet session avatar terrain physics"
).split()
_VERBS = (
    "process update compute merge filter collect resolve validate encode "
    "schedule dispatch animate simulate accumulate normalize"
).split()
_STRINGS = (
    "ready pending failed completed unknown critical northwest southeast "
    "crimson amber violet turquoise inventory leaderboard checkpoint"
).split()


def _camel(rng, words):
    head = rng.choice(words)
    tail = rng.choice(words).capitalize()
    return head + tail + str(rng.randrange(100))


def _synth_function(rng, index):
    fn = _camel(rng, _VERBS)
    items = _camel(rng, _NOUNS)
    rate = _camel(rng, _NOUNS)
    total = _camel(rng, _NOUNS)
    entry = _camel(rng, _NOUNS)
    limit = rng.randrange(3, 40)
    factor = rng.randrange(2, 9)
    label = rng.choice(_STRINGS)
    other = rng.choice(_STRINGS)
    return (
        f"function {fn}{index}({items},{rate}){{"
        f"var {total}=0;"
        f'var tag="{label}-{other}-{rng.randrange(1000)}";'
        f"for(var i=0;i<{items}.length;i++){{"
        f"var {entry}={items}[i];"
        f"if({entry}.amount>{limit}){{{total}+={entry}.amount*{rate};}}"
        f"else if({entry}.weight<{factor}){{{total}+={entry}.weight+{factor};}}"
        f"else{{{total}+=1;}}"
        f"}}"
        f"return {total}>0?{total}+tag.length:{entry}&&0;"
        f"}}\n"
    )


def synth_module(seed, target_bytes=65536):
    """Deterministic self-contained module of roughly ``target_bytes``."""
    rng = random.Random(seed)
    parts = [f'var moduleTag{seed & 0xFFFF}="synthetic-{seed}";\n']
    size = len(parts[0])
    index = 0
    while size < target_bytes:
        block = _synth_function(rng, index)
        parts.append(block)
        size += len(block)
        index += 1
    return "".join(parts)


def generate_scaling_corpus(root, total_bytes, file_bytes=65536, seed=1):
    """Write independent modules under ``root`` until ``total_bytes``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    count = max(1, ceil(total_bytes / file_bytes))
    written = 0
    for i in range(count):
        text = synth_module(seed * 100003 + i, file_bytes)
        path = root / f"mod_{i:05d}.js"
        path.write_text(text, encoding="utf-8")
        written += len(text)
    return written
