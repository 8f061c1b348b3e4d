"""Operation vocabulary emitted by workload reference generators.

A workload supplies one generator per simulated CPU; each yielded tuple
is one of:

* ``(OP_COMPUTE, cycles)``   — local computation, no memory traffic.
* ``(OP_READ, vaddr)``       — load from a virtual address.
* ``(OP_WRITE, vaddr)``      — store to a virtual address.
* ``(OP_BARRIER, barrier_id)`` — global barrier across all CPUs.
* ``(OP_LOCK, lock_id)``     — acquire a lock (blocks if held).
* ``(OP_UNLOCK, lock_id)``   — release a lock.
* ``(OP_RUN, base, stride, count, writes, pos)`` — ``count``
  references to ``base, base+stride, ...`` (virtual addresses);
  reference ``i`` is a store if ``writes[pos + i]`` is 1 (or True),
  else a load.  ``writes`` is the producer's own flag sequence, not a
  copy, so a run of any mix of loads and stores is one tuple.

The machine expands a run op inline in its dispatch loop, so a strided
sweep costs one generator resume instead of one per reference, while
simulating the exact same per-reference sequence — including
preemption between any two references of the run.

Plain integers (not an Enum) keep the hot dispatch loop fast.
"""

OP_COMPUTE = 0
OP_READ = 1
OP_WRITE = 2
OP_BARRIER = 3
OP_LOCK = 4
OP_UNLOCK = 5
OP_RUN = 6
