"""Discrete-event primitives for the PRISM simulator.

The machine model (``repro.sim.machine``) advances per-CPU clocks and
resolves each memory reference atomically; contention at shared hardware
is modelled with :class:`Resource` objects that serialize access FCFS
("next free time" semantics).  Synchronization between the simulated
CPUs uses :class:`Barrier` and :class:`LockTable`.

This approximation — one outstanding miss per CPU, transactions resolved
atomically at their issue order — matches the blocking, in-order
processors of the paper's era and keeps the simulator fast enough to run
SPLASH-style kernels in pure Python.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class Resource:
    """A shared hardware resource with FCFS occupancy.

    ``acquire(now, duration)`` returns the time at which the requested
    use *completes*; the wait (if the resource is busy) is the contention
    the paper's simulator accounts for "at all system resources".
    """

    __slots__ = ("name", "next_free", "busy_cycles", "acquisitions")

    def __init__(self, name: str) -> None:
        self.name = name
        self.next_free = 0
        self.busy_cycles = 0
        self.acquisitions = 0

    def acquire(self, now: int, duration: int) -> int:
        """Occupy the resource for ``duration`` cycles starting no
        earlier than ``now``; returns the completion time."""
        start = self.next_free if self.next_free > now else now
        end = start + duration
        self.next_free = end
        self.busy_cycles += duration
        self.acquisitions += 1
        return end

    def utilization(self, total_cycles: int) -> float:
        """Busy fraction of the resource over ``total_cycles``.

        A zero-cycle window has no meaningful busy fraction and reports
        0.0; fractions above 1.0 (overlapping charges) clamp to 1.0.  A
        *negative* window is always a caller bug (an end time before a
        start time), so it raises :class:`ValueError` instead of being
        silently reported as an idle resource.
        """
        if total_cycles < 0:
            raise ValueError(
                "utilization window must be non-negative, got %d cycles"
                % total_cycles)
        if total_cycles == 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Resource(%r, next_free=%d)" % (self.name, self.next_free)


class SchedulePerturbation:
    """Bounded, deterministic perturbation of the simulator's schedule.

    The machine resolves references atomically in per-CPU clock order,
    so the *interleaving* of a run is a function of two things: where
    each CPU's clock starts, and how long remote transactions take.
    This object perturbs exactly those two inputs:

    * ``cpu_offsets`` — per-CPU start-time skews (cycles).  CPU ``i``
      begins the run at ``cpu_offsets[i % len]`` instead of 0.
    * ``net_jitter``  — extra flight cycles added to successive network
      hops, consumed cyclically (hop ``k`` pays ``net_jitter[k % len]``).

    Both are explicit tuples rather than a PRNG stream so a schedule is
    (a) fully deterministic, (b) trivially serializable into a failure
    report, and (c) *shrinkable* — the fuzzer minimizes a reproducing
    schedule by zeroing and halving entries (see ``repro.verify.fuzz``).

    Perturbation changes simulated timing (and therefore statistics);
    what it must never change is the *values* reads observe relative to
    a legal serialization — that is what ``repro.verify`` checks.
    """

    __slots__ = ("cpu_offsets", "net_jitter", "_hop")

    def __init__(self, cpu_offsets=(), net_jitter=()) -> None:
        self.cpu_offsets = tuple(int(x) for x in cpu_offsets)
        self.net_jitter = tuple(int(x) for x in net_jitter)
        if any(x < 0 for x in self.cpu_offsets):
            raise ValueError("cpu offsets must be non-negative")
        if any(x < 0 for x in self.net_jitter):
            raise ValueError("network jitter must be non-negative")
        self._hop = 0

    def reset(self) -> None:
        """Rewind the jitter stream (call before reusing a schedule)."""
        self._hop = 0

    def cpu_offset(self, cpu_id: int) -> int:
        """Start-time skew for one CPU."""
        if not self.cpu_offsets:
            return 0
        return self.cpu_offsets[cpu_id % len(self.cpu_offsets)]

    def next_jitter(self) -> int:
        """Extra flight cycles for the next network hop."""
        if not self.net_jitter:
            return 0
        value = self.net_jitter[self._hop % len(self.net_jitter)]
        self._hop += 1
        return value

    @classmethod
    def random(cls, rng, num_cpus: int, max_cpu_skew: int = 2000,
               max_net_jitter: int = 200,
               jitter_slots: int = 16) -> "SchedulePerturbation":
        """Draw a bounded random schedule from ``rng`` (a
        ``random.Random``)."""
        offsets = tuple(rng.randrange(max_cpu_skew + 1)
                        for _ in range(num_cpus))
        jitter = tuple(rng.randrange(max_net_jitter + 1)
                       for _ in range(jitter_slots))
        return cls(cpu_offsets=offsets, net_jitter=jitter)

    def describe(self) -> str:
        """Compact human-readable rendering (failure reports)."""
        return ("cpu_offsets=%r net_jitter=%r"
                % (list(self.cpu_offsets), list(self.net_jitter)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SchedulePerturbation(%s)" % self.describe()


@dataclass
class Barrier:
    """An engine-level barrier across ``parties`` simulated CPUs.

    CPUs arrive at possibly different simulated times; all of them leave
    at ``max(arrival times) + cost``.
    """

    parties: int
    cost: int = 0
    waiting: "list[int]" = field(default_factory=list)   # cpu ids
    arrival_max: int = 0
    episodes: int = 0

    def arrive(self, cpu_id: int, now: int) -> "list[tuple[int, int]] | None":
        """Register an arrival.

        Returns ``None`` while the barrier is still filling.  When the
        last party arrives, returns ``[(cpu_id, release_time), ...]`` for
        every waiting CPU (including the caller) and resets the barrier
        for reuse.
        """
        if now > self.arrival_max:
            self.arrival_max = now
        self.waiting.append(cpu_id)
        if len(self.waiting) < self.parties:
            return None
        release = self.arrival_max + self.cost
        released = [(cpu, release) for cpu in self.waiting]
        self.waiting = []
        self.arrival_max = 0
        self.episodes += 1
        return released


class LockTable:
    """Simulated locks with FCFS handoff.

    An acquire of a free lock is granted immediately (plus ``cost``
    cycles of read-modify-write traffic).  An acquire of a held lock
    *blocks* the CPU: the machine parks it until the holder releases, at
    which point :meth:`release` hands the lock to the first waiter and
    returns its wake-up time.
    """

    def __init__(self, cost: int = 0) -> None:
        self.cost = cost
        self._holder: "dict[int, int]" = {}
        # FCFS waiter queues; deque so a contended handoff pops the
        # head in O(1) instead of list.pop(0)'s O(n) shift.
        self._waiters: "dict[int, deque[int]]" = {}
        self.acquires = 0
        self.contended_acquires = 0

    def acquire(self, lock_id: int, cpu_id: int, now: int) -> "int | None":
        """Try to acquire ``lock_id`` at time ``now``.

        Returns the grant time, or ``None`` if the lock is held (the CPU
        is queued and will be woken by the holder's release).
        """
        if lock_id in self._holder:
            waiters = self._waiters.get(lock_id)
            if waiters is None:
                waiters = self._waiters[lock_id] = deque()
            waiters.append(cpu_id)
            self.contended_acquires += 1
            return None
        self._holder[lock_id] = cpu_id
        self.acquires += 1
        return now + self.cost

    def release(self, lock_id: int, cpu_id: int, now: int) -> "tuple[int, int] | None":
        """Release ``lock_id``.

        If a CPU is waiting, hand it the lock and return
        ``(next_cpu_id, grant_time)``; otherwise return ``None``.
        """
        holder = self._holder.get(lock_id)
        if holder != cpu_id:
            raise RuntimeError(
                "cpu %d releasing lock %d held by %r" % (cpu_id, lock_id, holder))
        waiters = self._waiters.get(lock_id)
        if waiters:
            next_cpu = waiters.popleft()
            if not waiters:
                del self._waiters[lock_id]
            self._holder[lock_id] = next_cpu
            self.acquires += 1
            return next_cpu, now + self.cost
        del self._holder[lock_id]
        return None

