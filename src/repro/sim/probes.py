"""The probe bus: one typed registry of observation points per machine.

Everything that watches a running :class:`~repro.sim.machine.Machine`
— the trace recorder, the causal tracer, the metrics registry, the
value tracker, the 2PC channel driver and the barrier invariant checks
— registers callables on ``machine.probes`` instead of patching methods.
The model fires the points and holds no observer.  The points are
fixed:

============  ================================================  ==========
point         probe signature                                   returns
============  ================================================  ==========
run           ``probe(call, workload)``                         result
access        ``probe(call, cpu, vaddr, is_write, now)``        completion
miss          ``probe(call, cpu, frame, lip, line, is_write,    completion
              now)``
upgrade       ``probe(call, cpu, frame, lip, line, now)``       completion
fetch         ``probe(call, entry, lip, want_excl, has_copy,    completion
              now)``
fault         ``probe(call, kernel, vpage, now)``               ``(frame,
                                                                done)``
cache_full    ``probe(call, kernel, gpage)``                    action
pageout       ``probe(call, kernel, frame, now, demote=False)`` completion
send          ``probe(call, src, dst, now, kind)``              arrival
migrate       ``probe(gpage, old_home, new_home)``              --
node_fail     ``probe(node_id, now)``                           --
barrier       ``probe(release_time)``                           --
mark          ``probe(name, kind, node, begin, end, **attrs)``  --
============  ================================================  ==========

The first nine are *wrapped* points.  A probe there receives ``call``,
the next callable in the chain (for the kernel points already bound to
``kernel``), calls it with the point's own arguments and returns its
result — possibly adjusted: the 2PC driver adds the channel broadcast
to an access's completion time, and the schedule's jitter probe adds
extra flight cycles to a hop's arrival.  The registry composes the
chain in registration order, the first probe innermost, and binds it
on the owner instance (the machine, every node controller or kernel,
the policy, or the network), so the model calls the chain exactly
where it called the plain method; with no probe registered the plain
method runs with no test at all.  ``send`` wraps ``Network._hop``,
which only an inter-node hop reaches.  ``run`` wraps the scheduler,
``Machine._run``, which ``machine.run`` calls after the workload's
setup and ``add_probes`` hook, and which looks ``_access`` up once:
register access probes before it, or from a run probe.

The last four are *event* points: the model calls each registered
probe in order, after the event happened.  An empty point costs a
truth test of, or a loop over, an empty tuple, and no call.
``mark`` carries a protocol step's inner intervals (queue waits, DRAM,
home service, invalidation fan-out, TLB reloads, page-ins, retry
back-offs, channel sends and receives, and a zero-length
``fault:<action>`` per injected fault) to the causal tracer.  ``kind``
is the critical-path segment the interval charges; ``[begin, end)`` is
a completed interval, ``end=None`` opens a nested one, which the next
mark with ``begin=None`` closes (both ``None``, with an ``error``
attr: aborts it).

This module is the only code that installs anything on a machine; the
model holds no observer.  ``Machine.close`` empties every point and
drops the bound chains, using the method tables below.
"""

from __future__ import annotations

from functools import partial

#: Every probe point, in the order of the table above.
POINTS = ("run", "access", "miss", "upgrade", "fetch", "fault",
          "cache_full", "pageout", "send", "migrate", "node_fail",
          "barrier", "mark")

#: Wrapped points: point -> the method its probes are composed around.
_MACHINE_METHODS = {"run": "_run", "access": "_access", "miss": "_miss",
                    "upgrade": "_upgrade"}
_CONTROLLER_METHODS = {"fetch": "fetch"}
_KERNEL_METHODS = {"fault": "fault", "pageout": "page_out_client"}
_POLICY_METHODS = {"cache_full": "on_cache_full"}
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
        elif point in _CONTROLLER_METHODS:
            for node in machine.nodes:
                _bind(node.controller, _CONTROLLER_METHODS[point], probes, ())
        elif point in _KERNEL_METHODS:
            for node in machine.nodes:
                _bind(node.kernel, _KERNEL_METHODS[point], probes,
                      (node.kernel,))
        elif point in _POLICY_METHODS:
            _bind(machine.policy, _POLICY_METHODS[point], probes, ())
        elif point in _NETWORK_METHODS:
            _bind(machine.network, _NETWORK_METHODS[point], probes, ())


def _bind(owner, method: str, probes: tuple, extra: tuple) -> None:
    """Bind the chain of ``probes`` around ``owner.method`` on the
    instance, or drop the instance binding when ``probes`` is empty.

    Bound and dropped with ``setattr``/``delattr``: reading
    ``vars(owner)`` would materialize the instance's ``__dict__``, and
    every attribute read of the owner would then take the slower dict
    path for the rest of its life.
    """
    try:
        delattr(owner, method)
    except AttributeError:
        pass
    if not probes:
        return
    call = getattr(owner, method)
    for probe in probes:
        call = partial(probe, call, *extra)
    setattr(owner, method, call)
