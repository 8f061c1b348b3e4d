"""Machine construction entry point.

:func:`build_machine` is the stable import path for building a
:class:`~repro.sim.machine.Machine`; the benchmark harness imports it
from here.
"""

from __future__ import annotations

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine


def build_machine(config: "MachineConfig | None" = None,
                  **kwargs) -> Machine:
    """A :class:`Machine` for ``config`` (keyword arguments pass through)."""
    return Machine(config, **kwargs)
