"""Cold start: numpy never loads, and multiprocessing only where used.

Importing numpy costs about as much as the rest of a ``repro`` launch.
The workloads draw their seeded inputs from the standard library
(``repro.workloads.rng``), so no workload loads it, in ``setup`` or
while it yields ops.  ``multiprocessing`` is needed only for a
``jobs > 1`` pool.  Each case runs in a fresh interpreter, because this
test process may long since have loaded both modules.
"""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HEAVY = ("numpy", "multiprocessing")


def _loaded_after(script: str) -> "list[str]":
    """Run ``script`` in a fresh interpreter; return which of
    :data:`HEAVY` it left in ``sys.modules``."""
    probe = script + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in %r if m in sys.modules]))\n" % (HEAVY,))
    out = subprocess.run([sys.executable, "-c", probe], cwd=str(SRC),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_imports_litmus_chaos_and_fft_load_neither_module():
    script = """
import random
import repro, repro.faults, repro.harness.cli, repro.verify
from repro.faults import FaultPlan, Verdict, run_chaos
from repro.harness.session import ExperimentSpec, execute_spec
from repro.verify.litmus import LITMUS_SUITE
from repro.workloads.serving import chaos_scenarios

test = LITMUS_SUITE[0]
plan = FaultPlan.sample(random.Random(3), test.build_config().num_nodes)
assert run_chaos(test, plan, seed=3).verdict is not None
scenario = chaos_scenarios()["txn2pc"]
plan = FaultPlan.sample(random.Random(5), scenario.num_nodes)
assert run_chaos(scenario, plan, seed=5).verdict is not None
assert execute_spec(ExperimentSpec("fft", "scoma", preset="tiny")).stats
"""
    assert _loaded_after(script) == []


def test_no_workload_loads_numpy_in_setup_or_its_first_ops():
    script = """
from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
from repro.workloads import ALL_APPLICATIONS, make_workload
from repro.workloads.synthetic import PATTERNS, SyntheticWorkload

workloads = [make_workload(app, "tiny") for app in ALL_APPLICATIONS]
workloads += [SyntheticWorkload(pattern, shared_kb=16, random_order=True)
              for pattern in PATTERNS]
workloads.append(SyntheticWorkload("block", shared_kb=16))
for workload in workloads:
    workload.setup(AddressSpaceLayout(GlobalIpcServer(4, 1024), 1024), 4)
    for cpu in range(4):
        assert next(iter(workload.generator(cpu, 4)))
"""
    assert _loaded_after(script) == []
