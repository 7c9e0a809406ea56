"""Seeded generator of arrow heads, valid or not, for checking the parser's
reading of `( … )` against node.

Each snippet is a parenthesized head of 0 to 3 items, a tail and a context.
Items are parameters (names, defaults, rest), destructuring patterns,
expressions no parameter list holds (`?.`, `super.x`, reserved and
contextual words, templates with a comma in an interpolation), nested heads
and nested arrows. The comma between two items is sometimes missing or
doubled. A tail may be a `=>` on the same line or the next, or no `=>`. So
a head may parse as an arrow, as a parenthesized expression, or not at all.
"""

import random

NAMES = ["a", "b", "c", "x"]
WORDS = ["async", "await", "yield", "let", "static", "of"]
TAILS = [" => 0", " => {}", " + 1", "", "\n=> 1"]
# where the head stands; "#" marks it
CONTEXTS = [
    "#;",
    "var f = #;",
    "class A extends B { constructor() { super(); #; } }",
    "({ m() { #; } });",
    "function g() { return #; }",
    "f(#);",
    "((#));",
    "[#];",
    "`${#}`;",
]


def _expression(rng):
    name = rng.choice(NAMES)
    return rng.choice(
        [
            name,
            "1",
            f"{name} + 1",
            f"{name}.y",
            f"{name}?.y",
            "super.x",
            f"f({name})",
            f"`${{{name}, b}}`",
            rng.choice(WORDS),
        ]
    )


def _item(rng, depth):
    name = rng.choice(NAMES)
    shapes = [
        lambda: name,
        lambda: name,
        lambda: f"{name} = {_expression(rng)}",
        lambda: f"...{name}",
        lambda: f"{{{name}}}",
        lambda: f"[{name}]",
        lambda: _expression(rng),
        lambda: rng.choice(WORDS),
    ]
    if depth < 2:
        shapes.append(lambda: head(rng, depth + 1))
        shapes.append(lambda: head(rng, depth + 1) + rng.choice(TAILS[:2]))
    return rng.choice(shapes)()


def head(rng, depth=0):
    """A parenthesized list of 0 to 3 items, commas sometimes missing or
    doubled."""
    text = ""
    for index in range(rng.randrange(4)):
        if index:
            text += rng.choice([", ", ", ", ", ", " ", ", , "])
        text += _item(rng, depth)
    return f"({text})"


def arrow_snippet(rng):
    """One head with a tail, in a context."""
    return rng.choice(CONTEXTS).replace("#", head(rng) + rng.choice(TAILS))


def arrow_snippets(count, seed=20261019):
    rng = random.Random(seed)
    return [arrow_snippet(rng) for _ in range(count)]
