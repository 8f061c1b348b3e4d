"""Seam liveness: the methods other layers patch are still called.

Taps, the tracer, the trace recorder and the protocol mutations work by
wrapping a handful of methods (``docs/PERFORMANCE.md``, "Seams that must
stay calls").  If a fast path inlines one of them, the wrapper is
silently bypassed and its client goes blind.  Each test here wraps one
seam with a counter, installed the way its real patcher installs it
(instance attribute or class attribute), runs a tiny-preset cell that
must reach it, and asserts the counter moved.
"""

import pytest

from repro.core.controller import CoherenceController
from repro.core.finegrain import FineGrainTags, Tag
from repro.harness.runner import derive_page_cache_caps
from repro.harness.session import ExperimentSpec, execute_spec
from repro.sim.machine import Machine
from repro.workloads import make_workload

FFT_SCOMA = ExperimentSpec(workload="fft", policy="scoma", preset="tiny")


def counting(original, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    return wrapper


def build(spec):
    override = (list(spec.page_cache_override)
                if spec.page_cache_override is not None else None)
    return Machine(spec.resolved_config(), policy=spec.policy,
                   page_cache_override=override)


def run(machine, spec):
    return machine.run(make_workload(spec.workload, spec.preset))


@pytest.mark.parametrize("name", ["_access", "_miss", "_upgrade"])
def test_machine_instance_seams_are_called(name):
    # Serving taps, ValueTracker and TraceRecorder wrap _access; the
    # TraceCollector wraps _miss and _upgrade -- all per instance.
    machine = build(FFT_SCOMA)
    calls = []
    setattr(machine, name, counting(getattr(machine, name), calls))
    run(machine, FFT_SCOMA)
    assert calls, "Machine.%s was never called" % name


def test_kernel_fault_seam_is_called():
    machine = build(FFT_SCOMA)
    calls = []
    for node in machine.nodes:
        node.kernel.fault = counting(node.kernel.fault, calls)
    run(machine, FFT_SCOMA)
    assert calls, "NodeKernel.fault was never called"


def test_kernel_page_out_client_seam_is_called():
    caps = derive_page_cache_caps(execute_spec(FFT_SCOMA), 0.7)
    spec = ExperimentSpec(workload="fft", policy="scoma-70", preset="tiny",
                          page_cache_override=tuple(caps))
    machine = build(spec)
    calls = []
    for node in machine.nodes:
        kernel = node.kernel
        kernel.page_out_client = counting(kernel.page_out_client, calls)
    result = run(machine, spec)
    assert calls, "NodeKernel.page_out_client was never called"
    assert len(calls) >= sum(n.client_page_outs for n in result.stats.nodes)


@pytest.mark.parametrize("cls, name", [
    (CoherenceController, "handle_invalidate"),
    (Machine, "_invalidate_siblings"),
    (FineGrainTags, "set"),
])
def test_class_seams_are_called(monkeypatch, cls, name):
    # The protocol mutations patch these at class level.
    calls = []
    monkeypatch.setattr(cls, name, counting(getattr(cls, name), calls))
    execute_spec(FFT_SCOMA)
    assert calls, "%s.%s was never called" % (cls.__name__, name)
    if cls is FineGrainTags:
        # The skip-tag-invalidate mutation needs every transition to
        # Invalid to go through FineGrainTags.set.
        assert any(args[2] == Tag.INVALID for args in calls)
