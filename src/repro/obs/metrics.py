"""The metrics registry as a probe consumer.

``repro.obs.attach`` calls :func:`attach` while a machine is built.
Every metric comes from a probe point (:mod:`repro.sim.probes`) or
from a counter the model keeps anyway, rolled up by the ``run`` probe;
docs/OBSERVABILITY.md tabulates which.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter

from repro.obs.registry import find_metrics, quantile


def attach(registry, machine) -> None:
    """Register ``registry``'s probes on a machine being built (with
    the handles every run reports, at zero until it runs)."""
    probes = machine.probes
    policy = machine.policy.name
    fetch_latency = registry.histogram("core.fetch_latency_cycles")
    fetch_counts, fetch_buckets = fetch_latency.counts, fetch_latency.buckets
    transactions = registry.counter("core.remote_transactions")
    fault_service = {
        kind: registry.histogram("kernel.fault_service_cycles", kind=kind)
        for kind in ("private", "home", "client")}
    page_outs = {demote: registry.counter("kernel.page_outs",
                                          demote=str(demote).lower())
                 for demote in (False, True)}
    epoch = []

    def run(call, workload):
        request_plan = getattr(workload, "request_plan", None)
        if request_plan is None:
            access = latency_probe(registry.histogram(
                "sim.access_latency_cycles", policy=policy))
            settle = None
        else:
            access, settle = serving_tap(
                registry, request_plan(len(machine.cpus)), policy)
        # Registered after the workload's probes, so outermost: it
        # observes the completion the whole chain returns.
        probes.add("access", access)
        start = perf_counter()
        try:
            result = call(workload)
        finally:
            if settle is not None:
                settle()
            _roll_up_counters(registry, machine, transactions)
        wall = perf_counter() - start
        _roll_up_run(registry, machine)
        # Host-side throughput, next to the simulated telemetry.
        registry.gauge("host.wall_seconds").set(round(wall, 6))
        registry.gauge("host.refs_per_sec").set(
            round(machine.stats.references / wall, 1) if wall > 0 else 0.0)
        return result

    # The hot probes update their histograms in place: no call per
    # observation (see latency_probe).
    def fetch(call, entry, lip, want_excl, has_copy, now):
        done = call(entry, lip, want_excl, has_copy, now)
        cycles = done - now
        fetch_counts[bisect_left(fetch_buckets, cycles)] += 1
        fetch_latency.sum += cycles
        return done

    def fault(call, kernel, vpage, now):
        frame, done = call(vpage, now)
        # Classified by the PIT entry the fault installed.
        node = kernel.node
        entry = node.pit.entry_or_none(frame)
        hist = fault_service["private" if entry.gpage < 0 else "home"
                             if entry.dynamic_home == node.node_id
                             else "client"]
        cycles = done - now
        hist.counts[bisect_left(hist.buckets, cycles)] += 1
        hist.sum += cycles
        return frame, done

    def cache_full(call, kernel, gpage):
        action = call(kernel, gpage)
        outcome = ("lanuma" if action.kind == "lanuma" else "demote"
                   if action.demote else "evict")
        registry.counter("core.cache_full_actions", policy=policy,
                         action=outcome).inc()
        return action

    def pageout(call, kernel, frame, now, demote=False):
        done = call(frame, now, demote)
        page_outs[demote].inc()
        return done

    def migrate(gpage, old_home, new_home):
        registry.counter("core.migrations").inc()

    def node_fail(node_id, now):
        registry.counter("sim.node_failures", node=str(node_id)).inc()
        registry.gauge("sim.failed_nodes").set(len(machine.failed_nodes))
        pruned, reset = machine.last_scrub
        if pruned or reset:
            registry.counter("sim.failover_sharers_pruned").inc(pruned)
            registry.counter("sim.failover_hints_reset").inc(reset)

    def barrier(release_time):
        # Per-epoch telemetry: each shared resource's cumulative busy
        # fraction and each node's page-cache occupancy, in series
        # looked up at the first barrier.
        if not epoch:
            epoch.append([(registry.series("sim.resource_utilization",
                                           resource=res.name).sample,
                           res.utilization)
                          for res in machine.shared_resources()])
            epoch.append([(registry.series("kernel.page_cache_frames",
                                           node=node.node_id).sample,
                           node.pools) for node in machine.nodes])
        for sample, utilization in epoch[0]:
            sample(release_time, round(utilization(release_time), 4))
        for sample, pools in epoch[1]:
            sample(release_time, pools.client_scoma_in_use)

    for point, probe in (("run", run), ("fetch", fetch), ("fault", fault),
                         ("cache_full", cache_full), ("pageout", pageout),
                         ("migrate", migrate), ("node_fail", node_fail),
                         ("barrier", barrier)):
        probes.add(point, probe)


def _roll_up_counters(registry, machine, transactions) -> None:
    """The counters a run reports even when it raises."""
    blocked = 0
    for node in machine.nodes:
        stats = node.stats
        transactions.inc(stats.remote_misses + stats.remote_upgrades)
        blocked += stats.wild_writes_blocked
    if blocked:
        registry.counter("core.wild_writes_blocked").inc(blocked)
    faults = machine.faults
    if faults is not None:
        if faults.stats.dedup_drops:
            registry.counter("faults.dedup_drops").inc(
                faults.stats.dedup_drops)
        for (action, msg), count in faults.noted.items():
            registry.counter("faults." + action, msg=msg).inc(count)


def _roll_up_run(registry, machine) -> None:
    """End-of-run roll-ups: protocol message mix, PIT traffic and hit
    ratio, frame-pool occupancy gauges, execution cycles."""
    pit_lookups = pit_hash = 0
    for node in machine.nodes:
        sent = node.msglog.sent
        for kind in sorted(sent, key=lambda k: k.name):
            registry.counter("core.protocol_messages",
                             kind=kind.name).inc(sent[kind])
        pit_lookups += node.pit.lookups
        pit_hash += node.pit.hash_lookups
        registry.gauge("core.pit_fast_ratio", node=node.node_id).set(
            round(node.pit.fast_ratio(), 4))
        for pool, value in node.pools.occupancy().items():
            registry.gauge("kernel.frame_pool." + pool,
                           node=node.node_id).set(value)
    registry.counter("core.pit_lookups").inc(pit_lookups)
    registry.counter("core.pit_hash_lookups").inc(pit_hash)
    registry.gauge("core.pit_fast_ratio").set(
        round(1.0 - pit_hash / pit_lookups, 4) if pit_lookups else 1.0)
    registry.gauge("sim.execution_cycles").set(
        machine.stats.execution_cycles)


def latency_probe(hist):
    """An ``access`` probe recording each reference's latency.

    It bumps ``hist``'s bucket slot and sum in place, as
    :meth:`~repro.obs.registry.Histogram.observe` would (the count is
    the bucket total), so a reference costs this one frame.
    """
    counts, buckets = hist.counts, hist.buckets

    def access(call, cpu, vaddr, is_write, now):
        done = call(cpu, vaddr, is_write, now)
        cycles = done - now
        counts[bisect_left(buckets, cycles)] += 1
        hist.sum += cycles
        return done
    return access


def serving_tap(registry, schedules, policy):
    """The ``access`` probe of a run with a request plan, and its settle.

    The probe does :func:`latency_probe`'s work and, in the same frame,
    the per-request ``serving.*`` metrics.  ``schedules[cpu]`` is that
    CPU's request plan, ``(kind, accesses)`` pairs in issue order; a
    request's latency runs from its first access to its last access's
    completion.  ``settle`` sets ``serving.requests{op}`` and
    ``serving.requests_total`` from the run's totals.
    """
    requests = [iter(schedule) for schedule in schedules]
    # Per CPU, its request in flight: accesses left (0: none), kind and
    # first access's issue time.
    left = [0] * len(schedules)
    kind_of = [None] * len(schedules)
    issued = [0] * len(schedules)
    # Per request kind: [latency histogram, counter, requests served].
    served = {}
    completions = registry.series("serving.completed_requests")
    total = registry.gauge("serving.requests_total")
    latency = registry.histogram("sim.access_latency_cycles", policy=policy)
    counts, buckets = latency.counts, latency.buckets
    completed = 0

    def access(call, cpu, vaddr, is_write, now):
        nonlocal completed
        done = call(cpu, vaddr, is_write, now)
        cycles = done - now
        counts[bisect_left(buckets, cycles)] += 1
        latency.sum += cycles
        cid = cpu.cpu_id
        pending = left[cid]
        if not pending:
            planned = next(requests[cid], None)
            if planned is None:
                return done
            kind_of[cid], pending = planned
            issued[cid] = now
        if pending > 1:
            left[cid] = pending - 1
            return done
        left[cid] = 0
        kind = kind_of[cid]
        tally = served.get(kind)
        if tally is None:
            tally = served[kind] = [
                registry.histogram("serving.request_latency_cycles",
                                   op=kind),
                registry.counter("serving.requests", op=kind), 0]
        hist = tally[0]
        cycles = done - issued[cid]
        hist.counts[bisect_left(hist.buckets, cycles)] += 1
        hist.sum += cycles
        tally[2] += 1
        completed += 1
        if completions.due > 1:
            completions.due -= 1
        else:
            completions.sample(done, completed)
        return done

    def settle():
        for _hist, counter, count in served.values():
            counter.inc(count)
        total.set(completed)
    return access, settle


def serving_summary(snapshot: "dict[str, object]") -> "list[str]":
    """Human-readable serving lines from one metrics snapshot.

    Returns ``[]`` when the snapshot carries no serving metrics, so
    callers can print unconditionally.
    """
    lines = []
    for labels, hist in find_metrics(snapshot.get("histograms", {}),
                                     "serving.request_latency_cycles"):
        lines.append(
            "serving %-12s %6d requests  p50=%-6d p99=%-6d cycles"
            % (labels.get("op", "?"), hist["count"],
               quantile(hist, 0.50), quantile(hist, 0.99)))
    for _labels, series in find_metrics(snapshot.get("series", {}),
                                        "serving.completed_requests"):
        points = series.get("points") or []
        if points:
            end_time, total = points[-1]
            rate = 1000.0 * total / end_time if end_time else 0.0
            lines.append(
                "serving throughput    %6d requests in %d cycles "
                "(%.2f req/kcycle)" % (total, end_time, rate))
    return lines
