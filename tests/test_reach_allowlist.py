"""tools/reach_allowlist.txt names existing src/ defs, each with a reason.

``tools/reach.py`` runs minutes of jobs before it can report a stale
line; this checks the list itself, without running any job.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowlist_line_names_a_def_and_gives_a_reason():
    reach = _reach()
    names = {"%s:%s" % (path, qualname)
             for (path, _line), qualname in reach.defs().items()}
    allowed = reach.read_allowlist()
    assert allowed
    assert sorted(name for name in allowed if name not in names) == []
    assert sorted(name for name, reason in allowed.items()
                  if not reason) == []

