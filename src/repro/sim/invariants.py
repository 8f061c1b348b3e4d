"""Machine-wide coherence invariant checker.

Walks every directory entry, fine-grain tag array, PIT entry and CPU
cache in a machine and cross-checks them.  Used by the integration and
property-based tests (and handy when developing protocol changes):

* ``HOME_EXCL``   — no client node holds a copy; home tags Exclusive.
* ``SHARED``      — no node holds Exclusive tags; no CPU holds the line
  Modified or Exclusive; every node with a copy appears in the sharer
  set (the sharer set may be a superset: stale sharers are legal).
* ``CLIENT_EXCL`` — exactly the owner node holds the line (S-COMA tag
  Exclusive, or cached copies for LA-NUMA frames); no other node has
  any copy.
* at most one CPU machine-wide holds a line Modified, and then no other
  CPU holds any copy of it;
* PIT reverse mappings are consistent with forward mappings;
* node presence masks agree with the CPU caches.
"""

from __future__ import annotations

from repro.core.directory import DirState
from repro.core.finegrain import Tag
from repro.core.modes import PageMode
from repro.mem.cache import LineState


class InvariantViolation(RuntimeError):
    """A machine-wide coherence invariant failed mid-run.

    Raised by the barrier-release checks installed with
    :func:`install_barrier_checks` (``repro run --check-invariants``
    and the litmus runner).  ``problems`` carries every violation the
    walk found; ``when`` is the simulated release time it fired at.
    """

    def __init__(self, problems: "list[str]", when: int) -> None:
        self.problems = list(problems)
        self.when = when
        preview = "; ".join(self.problems[:3])
        if len(self.problems) > 3:
            preview += "; ... (%d total)" % len(self.problems)
        super().__init__(
            "coherence invariants violated at cycle %d: %s"
            % (when, preview))


def install_barrier_checks(machine):
    """Run :func:`check_machine` at every barrier release of ``machine``
    and raise :class:`InvariantViolation` on the first failure.

    Barrier releases are the natural checkpoints: every CPU is parked,
    no transaction is mid-flight, so directories, tags, PITs and caches
    must agree machine-wide.  The check is a ``barrier`` probe; it is
    returned so ``machine.probes.remove("barrier", probe)`` can
    uninstall it.
    """

    def hook(release_time: int) -> None:
        problems = check_machine(machine)
        if problems:
            raise InvariantViolation(problems, release_time)

    machine.probes.add("barrier", hook)
    return hook


def check_machine(machine) -> "list[str]":
    """Returns a list of human-readable invariant violations (empty if
    the machine is coherent)."""
    problems: "list[str]" = []
    problems += _check_presence(machine)
    problems += _check_pit_maps(machine)
    problems += _check_directory(machine)
    return problems


def _check_presence(machine) -> "list[str]":
    problems = []
    for node in machine.nodes:
        derived: "dict[int, int]" = {}
        for cpu in node.cpus:
            bit = 1 << cpu.local_id
            for cache in (cpu.hierarchy.l1, cpu.hierarchy.l2):
                for line in cache.resident_lines():
                    derived[line] = derived.get(line, 0) | bit
        recorded = node.presence._holders
        for line, mask in derived.items():
            if recorded.get(line, 0) != mask:
                problems.append(
                    "node %d line %d: presence %#x != caches %#x"
                    % (node.node_id, line, recorded.get(line, 0), mask))
        for line in recorded:
            if line not in derived:
                problems.append("node %d line %d: stale presence entry"
                                % (node.node_id, line))
    return problems


def _check_pit_maps(machine) -> "list[str]":
    problems = []
    for node in machine.nodes:
        for entry in node.pit.frames():
            if entry.mode.is_global:
                back = node.pit._by_gpage.get(entry.gpage)
                if back != entry.frame:
                    problems.append(
                        "node %d: gpage %d reverse-maps to %r, not frame %d"
                        % (node.node_id, entry.gpage, back, entry.frame))
    return problems


def _node_copy_kind(machine, node, gpage: int, lip: int) -> "tuple[bool, bool, int]":
    """(has_copy, node_exclusive, max_cpu_state) for one node/line."""
    entry = node.pit.by_gpage(gpage, None)
    # by_gpage charges statistics; compensate to keep checks side-effect
    # free for the counters the tests look at.
    node.pit.lookups -= 1
    node.pit.hash_lookups -= 1
    if entry is None:
        return False, False, int(LineState.INVALID)
    line = entry.frame * machine.config.lines_per_page + lip
    max_state = int(LineState.INVALID)
    # Read every CPU, not the presence mask: _check_presence judges it.
    for cpu in node.cpus:
        state = int(cpu.hierarchy.state(line))
        if state > max_state:
            max_state = state
    if entry.tags is not None:
        tag = entry.tags.get(lip)
        has = tag in (Tag.SHARED, Tag.EXCLUSIVE) or max_state > 0
        return has, tag == Tag.EXCLUSIVE, max_state
    return max_state > 0, max_state >= int(LineState.EXCLUSIVE), max_state


def _check_directory(machine) -> "list[str]":
    problems = []
    lpp = machine.config.lines_per_page
    for home in machine.nodes:
        for page in home.directory.pages():
            gpage = page.gpage
            home_entry = home.pit.entry_or_none(page.home_frame)
            if home_entry is None:
                problems.append("home %d: gpage %d has no home PIT entry"
                                % (home.node_id, gpage))
                continue
            for lip in range(lpp):
                dl = page.lines[lip]
                home_tag = (home_entry.tags.get(lip)
                            if home_entry.tags is not None else None)
                holders = []
                modified_cpus = 0
                exclusive_nodes = []
                for node in machine.nodes:
                    if node.node_id == home.node_id:
                        continue
                    has, excl, max_state = _node_copy_kind(
                        machine, node, gpage, lip)
                    if has:
                        holders.append(node.node_id)
                    if excl:
                        exclusive_nodes.append(node.node_id)
                    if max_state == int(LineState.MODIFIED):
                        modified_cpus += 1
                where = "gpage %d line %d (home %d)" % (gpage, lip,
                                                        home.node_id)
                if dl.state == DirState.HOME_EXCL:
                    if holders:
                        problems.append("%s: HOME_EXCL but clients %r hold "
                                        "copies" % (where, holders))
                    if home_tag not in (None, Tag.EXCLUSIVE):
                        problems.append("%s: HOME_EXCL but home tag %s"
                                        % (where, home_tag.name))
                elif dl.state == DirState.SHARED:
                    if exclusive_nodes:
                        problems.append("%s: SHARED but %r exclusive"
                                        % (where, exclusive_nodes))
                    stale = [n for n in holders if n not in dl.sharers]
                    if stale:
                        problems.append("%s: nodes %r hold copies but are "
                                        "not sharers" % (where, stale))
                    if home_tag == Tag.EXCLUSIVE and dl.sharers:
                        problems.append("%s: SHARED with sharers but home "
                                        "tag E" % where)
                elif dl.state == DirState.CLIENT_EXCL:
                    others = [n for n in holders if n != dl.owner]
                    if others:
                        problems.append("%s: CLIENT_EXCL(%d) but %r also "
                                        "hold copies" % (where, dl.owner,
                                                         others))
                    if home_tag == Tag.EXCLUSIVE:
                        problems.append("%s: CLIENT_EXCL but home tag E"
                                        % where)
                if modified_cpus > 1:
                    problems.append("%s: %d CPUs hold the line MODIFIED"
                                    % (where, modified_cpus))
    return problems
