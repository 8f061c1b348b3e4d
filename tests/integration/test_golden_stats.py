"""Golden-snapshot regression test.

Recomputes every (application, policy) cell at the tiny preset and
diffs the full ``MachineStats.to_dict()`` against the committed
fixture.  Any drift — a new counter, a changed fault count, a perturbed
cycle total — fails with a per-key diff.  Intentional changes are
blessed by rerunning ``tools/update_golden.py`` and committing the new
fixture.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURE = ROOT / "tests" / "integration" / "golden_tiny_stats.json"


def _load_update_golden():
    spec = importlib.util.spec_from_file_location(
        "update_golden", ROOT / "tools" / "update_golden.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("update_golden", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def recomputed():
    return _load_update_golden().compute_golden()


def test_fixture_covers_every_app_policy_cell(golden):
    from repro.core.policies import POLICY_NAMES
    from repro.workloads import ALL_APPLICATIONS
    expected = {"%s/%s" % (a, p)
                for a in ALL_APPLICATIONS for p in POLICY_NAMES}
    assert set(golden) == expected


def test_stats_match_the_committed_golden_fixture(golden, recomputed):
    _assert_matches(golden, recomputed,
                    "the simulator (intentional? rerun "
                    "tools/update_golden.py and commit the diff)")


def test_guarded_event_loop_matches_the_committed_golden_fixture(golden):
    """An empty fault plan and an unreachable deadline switch on the
    event loop's per-key guard checks (deadline, fault ticks, pause
    windows); over the whole matrix they must change nothing."""
    from repro.faults.plan import FaultPlan
    recomputed = _load_update_golden().compute_golden(
        faults=FaultPlan(), deadline=10 ** 12)
    _assert_matches(golden, recomputed, "the guarded event loop")


def test_deadline_inside_the_run_still_raises():
    from repro.sim.config import tiny_config
    from repro.sim.machine import DeadlineExceeded, Machine
    from repro.workloads import make_workload
    machine = Machine(tiny_config(), policy="scoma", deadline=50000)
    with pytest.raises(DeadlineExceeded) as excinfo:
        machine.run(make_workload("fft", preset="tiny"))
    assert str(excinfo.value) == (
        "simulated-time deadline 50000 exceeded at cycle 52725")


def _assert_matches(golden, recomputed, source):
    assert set(recomputed) == set(golden), \
        "cell set drifted: rerun tools/update_golden.py"
    problems = []
    for cell in sorted(golden):
        diff = _diff("", golden[cell], recomputed[cell])
        problems.extend("%s: %s" % (cell, d) for d in diff)
    assert not problems, (
        "%d stat(s) from %s diverged from the golden fixture:\n  %s"
        % (len(problems), source, "\n  ".join(problems[:40])))


def _diff(prefix, want, got):
    """Flatten nested dict/list mismatches into dotted-path messages."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            if key not in want:
                out.append("%s: unexpected new key" % path)
            elif key not in got:
                out.append("%s: missing" % path)
            else:
                out.extend(_diff(path, want[key], got[key]))
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return ["%s: length %d != %d" % (prefix, len(want), len(got))]
        out = []
        for i, (w, g) in enumerate(zip(want, got)):
            out.extend(_diff("%s[%d]" % (prefix, i), w, g))
        return out
    if want != got:
        return ["%s: %r != %r" % (prefix, want, got)]
    return []


def test_diff_helper_reports_dotted_paths():
    want = {"a": {"b": 1, "c": [1, 2]}, "d": 3}
    got = {"a": {"b": 2, "c": [1, 9]}, "d": 3}
    diff = _diff("", want, got)
    assert "a.b: 1 != 2" in diff
    assert "a.c[1]: 2 != 9" in diff
    assert len(diff) == 2
