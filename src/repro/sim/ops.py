"""Operation vocabulary emitted by workload reference generators.

A workload supplies one generator per simulated CPU; each yielded tuple
is one of:

* ``(OP_COMPUTE, cycles)``   — local computation, no memory traffic.
* ``(OP_READ, vaddr)``       — load from a virtual address.
* ``(OP_WRITE, vaddr)``      — store to a virtual address.
* ``(OP_BARRIER, barrier_id)`` — global barrier across all CPUs.
* ``(OP_LOCK, lock_id)``     — acquire a lock (blocks if held).
* ``(OP_UNLOCK, lock_id)``   — release a lock.
* ``(OP_READ_RUN, base, stride, count)``  — ``count`` loads from
  ``base, base+stride, ...`` (virtual addresses).
* ``(OP_WRITE_RUN, base, stride, count)`` — the store equivalent.

The run ops are *block* operations: the machine expands them inline in
its dispatch loop, so a strided sweep costs one generator resume (and
one yielded tuple) instead of one per reference, while simulating the
exact same per-reference sequence — including preemption between any
two references of the run when another CPU's clock falls earlier.

Plain integers (not an Enum) keep the hot dispatch loop fast.
"""

OP_COMPUTE = 0
OP_READ = 1
OP_WRITE = 2
OP_BARRIER = 3
OP_LOCK = 4
OP_UNLOCK = 5
OP_READ_RUN = 6
OP_WRITE_RUN = 7

OP_NAMES = {
    OP_COMPUTE: "compute",
    OP_READ: "read",
    OP_WRITE: "write",
    OP_BARRIER: "barrier",
    OP_LOCK: "lock",
    OP_UNLOCK: "unlock",
    OP_READ_RUN: "read_run",
    OP_WRITE_RUN: "write_run",
}
