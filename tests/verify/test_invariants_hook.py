"""Barrier-release invariant checks and the hand-corruption test."""

import pytest

from repro.core.directory import DirState
from repro.sim.invariants import (InvariantViolation, check_machine,
                                  install_barrier_checks)
from repro.sim.machine import Machine
from repro.verify import suite_by_name
from repro.verify.litmus import LitmusWorkload

pytestmark = pytest.mark.verify


def _machine(name="mp_scoma"):
    test = suite_by_name()[name]
    return Machine(test.build_config(), policy=test.policy), test


def _corrupt_one_directory_entry(machine) -> str:
    """Flip a SHARED directory line to HOME_EXCL while clients still
    hold copies; returns a description of what was corrupted."""
    for home in machine.nodes:
        for page in home.directory.pages():
            for lip, dl in enumerate(page.lines):
                if dl.state == DirState.SHARED and dl.sharers:
                    dl.state = DirState.HOME_EXCL
                    return "gpage %d line %d" % (page.gpage, lip)
    raise AssertionError("no shared directory line to corrupt")


def test_clean_run_passes_barrier_checks():
    machine, test = _machine()
    install_barrier_checks(machine)
    machine.run(LitmusWorkload(test))
    assert check_machine(machine) == []


def test_hand_corrupted_directory_entry_is_reported():
    machine, test = _machine()
    corrupted = []

    def corrupt(release_time):
        # After the warm-up barrier every node holds shared copies, so
        # there is a SHARED line to corrupt before the walk runs.
        if not corrupted:
            corrupted.append(_corrupt_one_directory_entry(machine))

    # Barrier probes fire in registration order: corrupt, then check.
    machine.probes.add("barrier", corrupt)
    install_barrier_checks(machine)
    with pytest.raises(InvariantViolation) as excinfo:
        machine.run(LitmusWorkload(test))
    assert corrupted
    assert any("HOME_EXCL but clients" in p for p in excinfo.value.problems)
    assert "cycle" in str(excinfo.value)
    assert excinfo.value.when > 0


def test_violation_message_previews_at_most_three_problems():
    exc = InvariantViolation(["p%d" % i for i in range(5)], when=7)
    assert exc.problems == ["p0", "p1", "p2", "p3", "p4"]
    assert "(5 total)" in str(exc)
    assert "p3" not in str(exc).replace("(5 total)", "")


def test_hook_uninstalls_with_none():
    machine, _test = _machine()
    hook = install_barrier_checks(machine)
    assert machine.probes.barrier == (hook,)
    machine.probes.remove("barrier", hook)
    assert machine.probes.barrier == ()
