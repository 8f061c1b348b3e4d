"""The probe bus: one typed registry of observation points per machine.

Everything that watches a running :class:`~repro.sim.machine.Machine`
— the trace recorder, the causal tracer, the value tracker, the serving
metrics tap, the 2PC channel driver and the barrier invariant checks —
registers callables on ``machine.probes`` instead of patching methods.
The model fires the points and holds no observer.  The points are
fixed:

============  ================================================  ==========
point         probe signature                                   returns
============  ================================================  ==========
access        ``probe(call, cpu, vaddr, is_write, now)``        completion
miss          ``probe(call, cpu, frame, lip, line, is_write,    completion
              now)``
upgrade       ``probe(call, cpu, frame, lip, line, now)``       completion
fault         ``probe(call, kernel, vpage, now)``               ``(frame,
                                                                done)``
pageout       ``probe(call, kernel, frame, now, demote=False)`` completion
send          ``probe(call, src, dst, now, kind)``              arrival
migrate       ``probe(gpage, old_home, new_home)``              --
node_fail     ``probe(node_id, now)``                           --
barrier       ``probe(release_time)``                           --
mark          ``probe(name, kind, node, begin, end, **attrs)``  --
============  ================================================  ==========

The first six are *wrapped* points.  A probe there receives ``call``,
the next callable in the chain (for the kernel points already bound to
``kernel``), calls it with the point's own arguments and returns its
result — possibly adjusted: the 2PC driver adds the channel broadcast
to an access's completion time, and the schedule's jitter probe adds
extra flight cycles to a hop's arrival.  The registry composes the
chain in registration order, the first probe innermost, so the code
after ``call`` runs in the order the probes were added and each probe
gets the result the previous one returned.  The composed chain is bound
on the owner instance (the machine, every node kernel, or the network),
so the machine code calls the chain exactly where it called the plain
method; with no probe registered the instance attribute is absent and
the plain method runs with no test at all.  ``send`` is composed around
``Network._hop``, which ``Network.send`` calls only for an inter-node
hop, so an intra-node send fires no probe.  ``Machine._event_loop``
looks ``_access`` up once per run, so register access probes before
``machine.run`` (or from a workload's ``add_probes`` hook, which the
run calls after setup).

The last four are *event* points: the model calls each registered
probe in order, after the event happened.  An empty point costs a
truth test of, or a loop over, an empty tuple, and no call.

``mark`` carries a protocol step's inner intervals: queue waits, the
DRAM and intervention phases of a local miss, the home service and
invalidation fan-out of a remote one, a TLB reload, a remote page-in,
a retransmission back-off, a command-channel send or receive, and (as
zero-length ``fault:<action>`` marks) each fault the fault plane
injects.  ``kind`` is the critical-path segment the interval charges
(``repro.obs.events.SEGMENTS``).  ``[begin, end)`` is a completed
interval; ``end=None`` opens a nested one, which the next mark with
``begin=None`` closes.  The machine (TLB reloads, local misses), the
controllers, the kernels, the command channels and the fault plane
fire it; the causal tracer (``repro.obs.tracing``) is its one
consumer.

This module is the only code that installs anything on a machine.  The
exception left is the metric handles every component takes at
construction from ``machine.registry``: single attribute tests that
count inside protocol steps.
``Machine.close`` empties every point and drops the bound chains, using
the method tables below.
"""

from __future__ import annotations

from functools import partial

#: Every probe point, in the order of the table above.
POINTS = ("access", "miss", "upgrade", "fault", "pageout", "send",
          "migrate", "node_fail", "barrier", "mark")

#: Wrapped points: point -> the method its probes are composed around.
_MACHINE_METHODS = {"access": "_access", "miss": "_miss",
                    "upgrade": "_upgrade"}
_KERNEL_METHODS = {"fault": "fault", "pageout": "page_out_client"}
_NETWORK_METHODS = {"send": "_hop"}


class Probes:
    """The probe registry of one machine (``machine.probes``).

    Each point is an attribute holding a tuple of probes, empty by
    default, so a firing site tests or iterates a plain tuple.
    """

    __slots__ = ("machine",) + POINTS

    def __init__(self, machine) -> None:
        self.machine = machine
        for point in POINTS:
            setattr(self, point, ())

    def add(self, point: str, probe) -> None:
        """Register ``probe`` on ``point``; it fires after every probe
        already there."""
        self._set(point, self._get(point) + (probe,))

    def remove(self, point: str, probe) -> None:
        """Unregister ``probe`` from ``point`` (``ValueError`` if it is
        not registered there)."""
        probes = list(self._get(point))
        probes.remove(probe)
        self._set(point, tuple(probes))

    def _get(self, point: str) -> tuple:
        if point not in POINTS:
            raise ValueError("unknown probe point %r (want one of %s)"
                             % (point, ", ".join(POINTS)))
        return getattr(self, point)

    def _set(self, point: str, probes: tuple) -> None:
        setattr(self, point, probes)
        machine = self.machine
        if point in _MACHINE_METHODS:
            _bind(machine, _MACHINE_METHODS[point], probes, ())
        elif point in _KERNEL_METHODS:
            for node in machine.nodes:
                _bind(node.kernel, _KERNEL_METHODS[point], probes,
                      (node.kernel,))
        elif point in _NETWORK_METHODS:
            _bind(machine.network, _NETWORK_METHODS[point], probes, ())


def _bind(owner, method: str, probes: tuple, extra: tuple) -> None:
    """Bind the chain of ``probes`` around ``owner.method`` on the
    instance, or drop the instance binding when ``probes`` is empty."""
    vars(owner).pop(method, None)
    if not probes:
        return
    call = getattr(owner, method)
    for probe in probes:
        call = partial(probe, call, *extra)
    setattr(owner, method, call)
