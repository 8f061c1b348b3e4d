"""Probe-point census: which points an observer binds, and nothing more.

A built machine with no observer installed has every point empty and
no chain bound on any owner, so the model makes no call for
observability.  An installed metrics registry binds exactly its own
points, a trace collector exactly its own, and ``Machine.close``
unbinds them all.
"""

import pytest

import repro
from repro import obs
from repro.obs import tracing
from repro.sim.machine import Machine
from repro.sim.probes import (_CONTROLLER_METHODS, _KERNEL_METHODS,
                              _MACHINE_METHODS, _NETWORK_METHODS,
                              _POLICY_METHODS, POINTS)
from repro.workloads import make_workload

#: The registry's points at build time (``run`` adds ``access``).
METRICS_POINTS = {"run", "fetch", "fault", "cache_full", "pageout",
                  "migrate", "node_fail", "barrier"}

#: The trace collector's points.
COLLECTOR_POINTS = {"miss", "upgrade", "fault", "pageout", "send", "mark"}


def populated(machine):
    """Points with at least one probe registered."""
    return {point for point in POINTS if getattr(machine.probes, point)}


def bound(machine):
    """Wrapped points whose chain is bound on one of its owners."""
    owners = [(machine, _MACHINE_METHODS),
              (machine.network, _NETWORK_METHODS),
              (machine.policy, _POLICY_METHODS)]
    for node in machine.nodes:
        owners += [(node.controller, _CONTROLLER_METHODS),
                   (node.kernel, _KERNEL_METHODS)]
    return {point for owner, methods in owners
            for point, method in methods.items() if method in vars(owner)}


def wrapped(points):
    every = {**_MACHINE_METHODS, **_NETWORK_METHODS, **_POLICY_METHODS,
             **_CONTROLLER_METHODS, **_KERNEL_METHODS}
    return {point for point in points if point in every}


def build():
    return Machine(repro.tiny_config(), policy="dyn-lru")


def test_nothing_installed_binds_nothing():
    machine = build()
    assert populated(machine) == set()
    assert bound(machine) == set()


def test_a_registry_binds_exactly_the_metrics_points():
    with obs.collecting():
        machine = build()
    assert populated(machine) == METRICS_POINTS
    assert bound(machine) == wrapped(METRICS_POINTS)


def test_a_collector_binds_exactly_its_points():
    with tracing.collecting():
        machine = build()
    assert populated(machine) == COLLECTOR_POINTS
    assert bound(machine) == wrapped(COLLECTOR_POINTS)


@pytest.mark.parametrize("app", ["kvstore", "txn2pc"])
def test_a_registry_run_has_one_access_probe(app):
    # The access-latency histogram and the serving tap share one frame
    # per reference.
    with obs.collecting():
        machine = build()
    machine.run(make_workload(app, "tiny"))
    assert [probe.__module__ for probe in machine.probes.access] == [
        "repro.obs.metrics"]
    machine.close()


def test_close_unbinds_every_observer():
    with obs.collecting(), tracing.collecting():
        machine = build()
        machine.run(make_workload("fft", "tiny"))
    assert "access" in populated(machine)
    machine.close()
    assert populated(machine) == set()
    assert bound(machine) == set()
