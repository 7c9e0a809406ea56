import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scopeshield.lexer import lex
from scopeshield.patches import emit
from scopeshield.scopes import Occurrences

sys.path.insert(0, str(Path(__file__).parent))

NODE = shutil.which("node")


def run_node(code=None, path=None, cwd=None, timeout=30):
    """Run a snippet or file under node and return stdout; fails the test on
    a nonzero exit."""
    if NODE is None:
        pytest.skip("node is not installed")
    argv = [NODE, "-e", code] if code is not None else [NODE, str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=timeout)
    assert proc.returncode == 0, f"node failed: {proc.stderr}"
    return proc.stdout


def access_rows(accesses):
    """The (`.` start, end, property name) of each access of an
    ``Accesses`` table."""
    return list(zip(accesses.dots, accesses.ends, accesses.names))


# A script to run in front of a program: it counts the program's
# String.fromCharCode calls and prints the count once the program has run.
COUNT_FROM_CHAR_CODE = (
    "(function(){var f=String.fromCharCode,n=0;"
    "String.fromCharCode=function(){n++;return f.apply(String,arguments);};"
    'process.on("exit",function(){console.log(n);});})();\n'
)


def lex_all(source, file_id="<input>", minify=False):
    """The tokens of ``source``, as one list: ``lex`` drained."""
    return [tok for batch in lex(source, file_id, minify) for tok in batch]


def patched(source, patches):
    """``source`` with ``patches`` applied by ``emit``, with no renames."""
    return emit(source, patches, Occurrences(), {})


def nl_before(tokens):
    """The indexes of the tokens a line break precedes."""
    return {i for i, t in enumerate(tokens) if t.nl}


@pytest.fixture(scope="session")
def node():
    if NODE is None:
        pytest.skip("node is not installed")
    return NODE
