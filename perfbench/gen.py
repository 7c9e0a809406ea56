"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed writes the same
bytes. Generated programs are deterministic (no clock, no randomness at run
time) and print checksums computed by running the generated functions, so the
node stdout of an obfuscated tree must equal the original's byte for byte.

The workload shapes are fixed here; changing them changes what every later
measurement means.
"""

import json
import random
from pathlib import Path

BIG_FILE_BYTES = 1 << 20
MANY_MODULES_TOTAL_BYTES = 4 << 20
MANY_MODULES_FILE_BYTES = 64 << 10
LINKED_APP_FILES = 2000
LINKED_APP_GROUP = 50  # files per directory
LINKED_APP_EVAL_EVERY = 400  # one eval-carrying file in this many
LINKED_APP_DIRECTIVE_EVERY = 10  # one "use strict" prologue in this many
LINKED_APP_HOT_ITERATIONS = 100000
LINKED_APP_HOT_DEPTH = 3

_VERBS = (
    "compute update merge filter collect resolve validate encode schedule "
    "dispatch animate simulate accumulate normalize render measure"
).split()
_NOUNS = (
    "order entry player score level bonus item cache packet frame sprite "
    "widget record bucket token vector matrix signal buffer segment handle "
    "market ticket wallet session avatar terrain"
).split()
_LOCALS = (
    "total amount index counter result offset weight factor current buffer "
    "element state value payload cursor window limit"
).split()
_WORDS = (
    "ready pending failed completed unknown critical northwest southeast "
    "crimson amber violet turquoise inventory leaderboard checkpoint harbor "
    "falcon engine puzzle island rocket anchor canyon temple"
).split()


def _camel(rng, words, suffix):
    return rng.choice(words) + rng.choice(_NOUNS).capitalize() + suffix


class _Names:
    """Descriptive local names, distinct within one function."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def __call__(self):
        while True:
            name = _camel(self.rng, _LOCALS, str(self.rng.randrange(100)))
            if name not in self.used:
                self.used.add(name)
                return name


def _literal(rng):
    return "%s-%s-%d" % (rng.choice(_WORDS), rng.choice(_WORDS), rng.randrange(50))


def _loop_object(rng, fn, new):
    return (
        "function %(fn)s(%(p1)s,%(p2)s){var %(acc)s=%(p1)s|0;"
        'var %(obj)s={%(k1)s:%(p2)s|0,%(k2)s:%(c1)d,%(k3)s:"%(s1)s"};'
        "for(var %(i)s=0;%(i)s<%(n)d;%(i)s++){let %(t)s=(%(i)s*%(m)d+%(obj)s.%(k1)s)|0;"
        "if(%(t)s%%3===0){%(acc)s=(%(acc)s+%(t)s)|0;}else{%(acc)s=(%(acc)s^%(obj)s.%(k2)s)|0;}"
        "%(obj)s.%(k1)s=(%(obj)s.%(k1)s+1)|0;}"
        'var %(txt)s="%(s2)s"+%(obj)s.%(k3)s;'
        "return(%(acc)s+%(txt)s.length*%(m)d+%(txt)s.charCodeAt(%(i)s%%%(txt)s.length))|0;}"
    ) % dict(
        fn=fn, p1=new(), p2=new(), acc=new(), obj=new(), i=new(), t=new(), txt=new(),
        k1=rng.choice(_NOUNS), k2=rng.choice(_LOCALS), k3="label",
        c1=rng.randrange(1, 999), n=rng.randrange(3, 12), m=rng.randrange(2, 9),
        s1=_literal(rng), s2=_literal(rng),
    )


def _closure_switch(rng, fn, new):
    return (
        "function %(fn)s(%(p1)s,%(p2)s){const %(mk)s=function(%(b)s){var %(st)s=%(b)s;"
        "return function(%(d)s){%(st)s=(%(st)s*%(m)d+%(d)s)|0;return %(st)s;};};"
        "var %(ctr)s=%(mk)s(%(p1)s);var %(sum)s=0;"
        "for(let %(k)s=0;%(k)s<%(n)d;%(k)s++){switch(%(k)s%%3){"
        "case 0:%(sum)s=(%(sum)s+%(ctr)s(%(k)s))|0;break;"
        'case 1:%(sum)s=(%(sum)s^"%(s1)s".length)|0;break;'
        "default:%(sum)s=(%(sum)s-%(p2)s)|0;}}"
        'const %(fx)s=(%(v)s)=>(%(v)s*%(c1)d+"%(s2)s".charCodeAt(1))|0;'
        "return %(fx)s(%(sum)s);}"
    ) % dict(
        fn=fn, p1=new(), p2=new(), mk=new(), b=new(), st=new(), d=new(), ctr=new(),
        sum=new(), k=new(), fx=new(), v=new(),
        c1=rng.randrange(1, 999), n=rng.randrange(3, 12), m=rng.randrange(2, 9),
        s1=_literal(rng), s2=_literal(rng),
    )


def _class_method(rng, fn, new):
    cls = fn[0].upper() + fn[1:] + "Model"
    return (
        "class %(cls)s{constructor(%(a)s,%(b)s){this.%(f1)s=%(a)s|0;this.%(f2)s=%(b)s|0;"
        'this.%(f3)s="%(s1)s";}'
        "get %(g)s(){return(this.%(f1)s*%(m)d+this.%(f2)s)|0;}"
        "%(meth)s(%(x)s){this.%(f1)s=(this.%(f1)s+%(x)s)|0;return this.%(g)s^this.%(f3)s.length;}}"
        "function %(fn)s(%(p1)s,%(p2)s){var %(inst)s=new %(cls)s(%(p1)s,%(p2)s);var %(r)s=0;"
        "for(var %(i)s=0;%(i)s<%(n)d;%(i)s++){%(r)s=(%(r)s+%(inst)s.%(meth)s(%(i)s))|0;}"
        "return(%(r)s+`%(s2)s:${%(inst)s.%(f2)s}`.length)|0;}"
    ) % dict(
        cls=cls, fn=fn, a=new(), b=new(), x=new(), p1=new(), p2=new(), inst=new(),
        r=new(), i=new(),
        f1=rng.choice(_NOUNS), f2=rng.choice(_LOCALS), f3="caption",
        g="weighted" + rng.choice(_NOUNS).capitalize(),
        meth=rng.choice(_VERBS) + "Step",
        n=rng.randrange(3, 12), m=rng.randrange(2, 9),
        s1=_literal(rng), s2=_literal(rng),
    )


def _array_try(rng, fn, new):
    return (
        "function %(fn)s(%(p1)s,%(p2)s){var %(arr)s=[];var %(j)s=0;"
        "while(%(j)s<%(n)d){%(arr)s.push((%(j)s*%(m)d+%(p1)s)|0);%(j)s++;}var %(tot)s=0;"
        "try{for(const %(el)s of %(arr)s){"
        'if(%(el)s>%(c1)d)throw new Error("%(s1)s");%(tot)s=(%(tot)s+%(el)s)|0;}}'
        "catch(%(err)s){%(tot)s=(%(tot)s+%(err)s.message.length)|0;}"
        "return(%(tot)s^%(p2)s^%(arr)s.length)|0;}"
    ) % dict(
        fn=fn, p1=new(), p2=new(), arr=new(), j=new(), tot=new(), el=new(), err=new(),
        n=rng.randrange(3, 12), m=rng.randrange(2, 9), c1=rng.randrange(100, 900),
        s1=_literal(rng),
    )


_TEMPLATES = (_loop_object, _closure_switch, _class_method, _array_try)


def _function(rng, fn):
    """One top-level function named ``fn(a, b)`` returning an int32."""
    return rng.choice(_TEMPLATES)(rng, fn, _Names(rng))


def synth_module(rng, target_bytes, export_name):
    """A minified module of at most about ``target_bytes`` whose only export,
    ``export_name(seed)``, calls every generated function and folds the
    results into an unsigned 32-bit checksum."""
    parts = []
    names = []
    size = 0
    while True:
        fn = _camel(rng, _VERBS, str(len(names)))
        part = _function(rng, fn)
        if names and size + len(part) > target_bytes:
            break
        parts.append(part)
        names.append(fn)
        size += len(part)
    table = "registeredHandlers"
    parts.append("var %s=[%s];" % (table, ",".join(names)))
    parts.append(
        "export function %s(seedValue){var hashState=seedValue|0;"
        "for(var slot=0;slot<%s.length;slot++){"
        "hashState=(Math.imul(hashState,31)+%s[slot](hashState&1023,slot))|0;}"
        "return hashState>>>0;}" % (export_name, table, table)
    )
    return "".join(parts)


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


_PACKAGE_JSON = json.dumps({"type": "module", "private": True}) + "\n"


def _driver(modules, export_name):
    """CommonJS entry that imports each module and prints its checksum.

    The ``.cjs`` suffix keeps it out of the obfuscated JS set, so the
    modules stay free of imports."""
    return (
        "const modules = %s;\n"
        "(async () => {\n"
        "  for (const name of modules) {\n"
        '    const mod = await import("./" + name);\n'
        "    console.log(name, mod.%s(7));\n"
        "  }\n"
        "})();\n"
    ) % (json.dumps(modules), export_name)


def gen_big_file(root, seed, scale=1.0):
    """One ~1 MB minified module plus its driver."""
    rng = random.Random("big-file:%d" % seed)
    root = Path(root)
    text = synth_module(rng, int(BIG_FILE_BYTES * scale), "runAll")
    js_bytes = _write(root, "big.js", text)
    _write(root, "package.json", _PACKAGE_JSON)
    _write(root, "run.cjs", _driver(["big.js"], "runAll"))
    return {"entry": "run.cjs", "js_files": ["big.js"], "js_bytes": js_bytes}


def gen_many_modules(root, seed, scale=1.0):
    """Independent 64 KB modules: no imports, no shared globals."""
    rng = random.Random("many-modules:%d" % seed)
    root = Path(root)
    count = int(MANY_MODULES_TOTAL_BYTES * scale) // MANY_MODULES_FILE_BYTES
    names = ["mod_%03d.js" % i for i in range(count)]
    js_bytes = 0
    for name in names:
        js_bytes += _write(root, name, synth_module(rng, MANY_MODULES_FILE_BYTES, "run"))
    _write(root, "package.json", _PACKAGE_JSON)
    _write(root, "run.cjs", _driver(names, "run"))
    return {"entry": "run.cjs", "js_files": names, "js_bytes": js_bytes}


def _linked_path(i):
    return "lib/g%02d/m%04d.js" % (i // LINKED_APP_GROUP, i)


def _relative(src, dst):
    src_dir = src.rsplit("/", 1)[0]
    dst_dir, dst_name = dst.rsplit("/", 1)
    if src_dir == dst_dir:
        return "./" + dst_name
    return "../" + dst_dir.rsplit("/", 1)[1] + "/" + dst_name


def _linked_module(rng, i, deps):
    """Module ``i`` of the linked app: imports ``step`` and ``total`` from
    each dependency, reads the shared global ``APP_SCALE`` and exports its
    own ``step<i>`` (bounded-depth call fan-out) and ``total<i>`` (memoised
    sum over everything it reaches)."""
    path = _linked_path(i)
    new = _Names(rng)
    out = []
    if i % LINKED_APP_DIRECTIVE_EVERY == 0:
        out.append('"use strict";\n')
    for d in deps:
        out.append(
            'import {step%d,total%d} from "%s";\n' % (d, d, _relative(path, _linked_path(d)))
        )
    helper = _camel(rng, _VERBS, "Local%d" % i)
    out.append(_function(rng, helper) + "\n")
    obj, acc, x, depth = new(), new(), new(), new()
    calls = "".join(
        "%s=(%s+step%d(%s&4095,%s-1))|0;" % (acc, acc, d, acc, depth) for d in deps
    )
    out.append(
        "export function step%(i)d(%(x)s,%(depth)s){"
        'var %(obj)s={reading:%(x)s|0,unit:"%(s1)s",scale:APP_SCALE};'
        "var %(acc)s=(%(obj)s.reading*%(obj)s.scale+%(obj)s.unit.length)|0;"
        'if(%(obj)s.unit==="%(s2)s"){%(acc)s=(%(acc)s+1)|0;}'
        "if(%(depth)s>0){%(calls)s}"
        "return(%(acc)s^%(m)d)|0;}\n"
        % dict(i=i, x=x, depth=depth, obj=obj, acc=acc, calls=calls,
               m=rng.randrange(1, 4096), s1=_literal(rng), s2=_literal(rng))
    )
    if i % LINKED_APP_EVAL_EVERY == LINKED_APP_EVAL_EVERY // 2:
        base = new()
        out.append(
            "function evalProbe%(i)d(%(base)s){return eval(\"%(base)s*2+APP_SCALE\")|0;}\n"
            % dict(i=i, base=base)
        )
        own = "(%s(APP_SCALE,%d)+evalProbe%d(%d))|0" % (helper, i, i, i)
    else:
        own = "%s(APP_SCALE,%d)|0" % (helper, i)
    memo = new()
    sums = "".join("+total%d()" % d for d in deps)
    out.append(
        "var %(memo)s;export function total%(i)d(){"
        "if(%(memo)s===undefined){%(memo)s=(%(own)s%(sums)s)|0;}return %(memo)s;}\n"
        % dict(i=i, memo=memo, own=own, sums=sums)
    )
    return path, "".join(out)


def gen_linked_app(root, seed, scale=1.0):
    """An ES-module project: a relative-import DAG over ~2,000 small files
    and an entry ``main.js`` running a bounded hot loop."""
    rng = random.Random("linked-app:%d" % seed)
    root = Path(root)
    count = int(LINKED_APP_FILES * scale)
    js_bytes = 0
    js_files = []
    for i in range(count):
        if i == 0:
            deps = []
        else:
            # i-1 keeps every file reachable from the top; two more at random
            extra = rng.sample(range(i - 1), min(2, i - 1)) if i > 1 else []
            deps = sorted({i - 1, *extra})
        path, text = _linked_module(rng, i, deps)
        js_bytes += _write(root, path, text)
        js_files.append(path)
    tops = list(range(count - 3, count))
    main = ['"use strict";\n']
    for t in tops:
        main.append(
            'import {step%d,total%d} from "./%s";\n' % (t, t, _linked_path(t))
        )
    steps = "[" + ",".join("step%d" % t for t in tops) + "]"
    totals = "+".join("total%d()" % t for t in tops)
    main.append(
        "globalThis.APP_SCALE=%d;\n"
        "var entryPoints=%s;\n"
        "var checksum=0;\n"
        "for(var iteration=0;iteration<%d;iteration++){"
        "checksum=(Math.imul(checksum,31)+entryPoints[iteration%%%d](iteration&1023,%d))|0;}\n"
        'console.log("hot",checksum>>>0);\n'
        'console.log("total",(%s)>>>0);\n'
        % (rng.randrange(2, 9), steps, LINKED_APP_HOT_ITERATIONS, len(tops),
           LINKED_APP_HOT_DEPTH, totals)
    )
    js_bytes += _write(root, "main.js", "".join(main))
    js_files.append("main.js")
    _write(root, "package.json", _PACKAGE_JSON)
    return {"entry": "main.js", "js_files": js_files, "js_bytes": js_bytes}


GENERATORS = {
    "big-file": gen_big_file,
    "many-modules": gen_many_modules,
    "linked-app": gen_linked_app,
}
