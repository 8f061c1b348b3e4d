"""Probe liveness, the probe registry, and the mutation seams.

Every observer of a machine registers on ``machine.probes``
(``repro.sim.probes``).  If a fast path stops reaching a probe point
(say, ``_access`` inlines ``_miss``), its observers silently go blind;
each liveness test here registers a counting probe on one point, drives
a run that must reach it and asserts the probe fired.

The protocol mutations still patch three methods at class level
(``docs/PERFORMANCE.md``, "Seams that must stay calls"); the class-seam
tests pin those.
"""

import pytest

import repro
from repro.core.controller import CoherenceController
from repro.core.finegrain import FineGrainTags, Tag
from repro.harness.runner import derive_page_cache_caps
from repro.harness.session import ExperimentSpec, execute_spec
from repro.interconnect.messages import MessageKind
from repro.sim.engine import SchedulePerturbation
from repro.sim.machine import Machine
from repro.sim.probes import POINTS
from repro.workloads import make_workload
from tests.conftest import Harness

FFT_SCOMA = ExperimentSpec(workload="fft", policy="scoma", preset="tiny")


def counting(point, calls):
    """A probe for ``point`` that records its arguments."""
    if point in ("fault", "pageout"):
        def probe(call, kernel, *args, **kwargs):
            calls.append(args)
            return call(*args, **kwargs)
    elif point in ("run", "access", "miss", "upgrade", "fetch",
                   "cache_full", "send"):
        def probe(call, *args):
            calls.append(args)
            return call(*args)
    else:
        def probe(*args, **attrs):
            calls.append(args)
    return probe


def build(spec):
    override = (list(spec.page_cache_override)
                if spec.page_cache_override is not None else None)
    return Machine(spec.resolved_config(), policy=spec.policy,
                   page_cache_override=override)


def run(machine, spec):
    return machine.run(make_workload(spec.workload, spec.preset))


def scoma70_spec():
    caps = derive_page_cache_caps(execute_spec(FFT_SCOMA), 0.7)
    return ExperimentSpec(workload="fft", policy="scoma-70", preset="tiny",
                          page_cache_override=tuple(caps))


def drive_point(point, calls):
    """Register a counting probe on ``point`` and run something that
    must fire it; returns the machine."""
    if point in ("pageout", "cache_full"):
        spec = scoma70_spec()
        machine = build(spec)
        machine.probes.add(point, counting(point, calls))
        result = run(machine, spec)
        assert len(calls) >= sum(n.client_page_outs
                                 for n in result.stats.nodes)
    elif point == "migrate":
        machine = Machine(repro.tiny_config(enable_migration=True,
                                            migration_threshold=16))
        machine.probes.add(point, counting(point, calls))
        machine.run(make_workload("water-spa", "tiny"))
        assert len(calls) == machine.migration.migrations
    elif point == "node_fail":
        machine = Machine(repro.tiny_config())
        machine.probes.add(point, counting(point, calls))
        machine.fail_node(1, now=7)
        assert calls == [(1, 7)]
    else:
        machine = build(FFT_SCOMA)
        machine.probes.add(point, counting(point, calls))
        run(machine, FFT_SCOMA)
    return machine


@pytest.mark.parametrize("point", POINTS)
def test_probe_point_fires(point):
    calls = []
    machine = drive_point(point, calls)
    assert calls, "probe point %r never fired" % point
    if point == "run":
        assert len(calls) == 1
    elif point == "access":
        assert len(calls) == machine.stats.references
    elif point == "fetch":
        assert len(calls) == sum(n.remote_misses + n.remote_upgrades
                                 for n in machine.stats.nodes)
    elif point == "fault":
        assert len(calls) == machine.stats.page_faults
    elif point == "send":
        assert len(calls) == machine.network.messages
    elif point == "mark":
        # Every nested interval a step opens (end=None) it closes
        # (begin=None).
        opens = sum(1 for args in calls if args[4] is None)
        closes = sum(1 for args in calls if args[3] is None)
        assert opens == closes > 0


def test_intra_node_send_fires_no_probe_and_draws_no_jitter():
    schedule = SchedulePerturbation(net_jitter=(5,))
    machine = Machine(repro.tiny_config(), schedule=schedule)
    calls = []
    machine.probes.add("send", counting("send", calls))
    assert machine.network.send(1, 1, 100, MessageKind.READ_REQ) == 100
    assert calls == []
    assert schedule._hop == 0
    assert machine.network.messages == 0
    arrival = machine.network.send(0, 1, 100, MessageKind.READ_REQ)
    assert arrival == 100 + machine.config.latency.net_latency + 5
    assert calls == [(0, 1, 100, MessageKind.READ_REQ)]
    assert schedule._hop == 1


# -- the registry -------------------------------------------------------


def test_probes_fire_in_registration_order():
    h = Harness()
    order = []

    def tagged(name):
        def probe(call, *args):
            done = call(*args)
            order.append(name)
            return done
        return probe

    h.machine.probes.add("access", tagged("first"))
    h.machine.probes.add("access", tagged("second"))
    h.read(0, h.vaddr(0))
    assert order == ["first", "second"]

    order.clear()
    h.machine.probes.add("node_fail", lambda node, now: order.append(1))
    h.machine.probes.add("node_fail", lambda node, now: order.append(2))
    h.machine.fail_node(3)
    assert order == [1, 2]


def test_access_probe_result_is_passed_to_the_next_probe():
    ref = Harness()
    plain = ref.read(0, ref.vaddr(0))
    h = Harness()
    seen = []

    def later(call, *args):
        seen.append(call(*args))
        return seen[-1]

    h.machine.probes.add("access", lambda call, *args: call(*args) + 100)
    h.machine.probes.add("access", later)
    assert h.read(0, h.vaddr(0)) == plain + 100
    assert [t - h.clock for t in seen] == [plain + 100]


def test_removing_the_last_access_probe_restores_the_plain_method():
    machine = Machine(repro.tiny_config())
    probe = counting("access", [])
    other = counting("access", [])
    machine.probes.add("access", probe)
    machine.probes.add("access", other)
    assert "_access" in vars(machine)
    machine.probes.remove("access", probe)
    assert machine.probes.access == (other,)
    machine.probes.remove("access", other)
    assert machine.probes.access == ()
    assert "_access" not in vars(machine)
    assert machine._access.__func__ is Machine._access
    with pytest.raises(ValueError):
        machine.probes.remove("access", probe)


def test_unknown_point_raises():
    machine = Machine(repro.tiny_config())
    with pytest.raises(ValueError, match="promote"):
        machine.probes.add("promote", print)
    with pytest.raises(ValueError):
        machine.probes.remove("vibes", print)


# -- class seams the mutations patch ------------------------------------


@pytest.mark.parametrize("cls, name", [
    (CoherenceController, "handle_invalidate"),
    (Machine, "_invalidate_siblings"),
    (FineGrainTags, "set"),
])
def test_class_seams_are_called(monkeypatch, cls, name):
    # The protocol mutations patch these at class level.
    calls = []
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    execute_spec(FFT_SCOMA)
    assert calls, "%s.%s was never called" % (cls.__name__, name)
    if cls is FineGrainTags:
        # The skip-tag-invalidate mutation needs every transition to
        # Invalid to go through FineGrainTags.set.
        assert any(args[2] == Tag.INVALID for args in calls)
