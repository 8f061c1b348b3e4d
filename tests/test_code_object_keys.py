"""Profiles key code objects by (file, first line, name).

cProfile and pstats identify a function by ``(file, first line,
name)``.  Two code objects of one module that share that key (a nested
comprehension written on one line, two lambdas on one line) are merged
by pstats, and which one's counts survive depends on memory addresses,
so a layer's traced ``calls_per_kitem`` in the benchmark would move
from run to run with no change to the code.  Every module under
``src/repro`` must give each of its code objects a key of its own.
"""

from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def test_no_two_code_objects_share_a_profile_key():
    clashes = []
    for path in sorted(SRC.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        keys = Counter((code.co_firstlineno, code.co_name)
                       for code in _code_objects(module))
        clashes += ["%s:%d %s" % (path.relative_to(SRC), line, name)
                    for (line, name), count in sorted(keys.items())
                    if count > 1]
    assert clashes == []
