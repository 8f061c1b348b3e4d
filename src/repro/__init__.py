"""PRISM: An Integrated Architecture for Scalable Shared Memory.

A full reproduction of Ekanadham, Lim, Pattnaik and Snir's HPCA 1998
paper: a simulated DSM machine whose coherence controller dispatches on
per-page-frame *modes* (Local / S-COMA / LA-NUMA / Command), independent
per-node kernels with node-private translations, run-time page-mode
policies, lazy home migration, and a benchmark harness that regenerates
every table and figure of the paper's evaluation.

Quickstart::

    from repro import Machine, MachineConfig, make_workload

    machine = Machine(MachineConfig(), policy="dyn-lru")
    result = machine.run(make_workload("fft", "small"))
    print(result.stats.summary())
"""

from repro.core.modes import PageMode
from repro.core.policies import POLICY_NAMES, PageModePolicy, make_policy
from repro.sim.config import (CacheConfig, MachineConfig, default_config,
                              paper_scale_config, tiny_config)
from repro.sim.latency import PAPER_TABLE1, LatencyModel, paper_latency_model
from repro.sim.machine import Machine, RunResult
from repro.sim.stats import MachineStats
from repro.workloads import APPLICATIONS, PRESET_NAMES, make_workload

__version__ = "1.0.0"

__all__ = [
    "APPLICATIONS", "CacheConfig", "LatencyModel", "Machine",
    "MachineConfig", "MachineStats", "PAPER_TABLE1", "POLICY_NAMES",
    "PRESET_NAMES", "PageMode", "PageModePolicy", "RunResult",
    "default_config", "make_policy", "make_workload", "paper_latency_model",
    "paper_scale_config", "tiny_config",
]
