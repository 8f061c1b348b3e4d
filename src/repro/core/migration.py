"""Lazy page migration (section 3.5).

Each page has a fixed *static home* and a migratable *dynamic home*.
The dynamic home holds the directory and enforces coherence; the static
home tracks where the dynamic home currently is and coordinates
migrations.  Because PRISM's global addresses do not encode node
locations and virtual-to-physical translations are node private, a home
can migrate without invalidating any address translation: clients with
stale PIT information simply have their requests forwarded (old dynamic
home -> static home -> current dynamic home) and learn the new home
from the response.

The migration *policy* here follows the paper's hint (hardware counters
of coherence traffic per page, as in the SGI Origin2000): when a page
has absorbed ``threshold`` remote requests and one remote node issued
the majority of them, the home migrates to that node.
"""

from __future__ import annotations

from repro.core.directory import NO_SHARERS, DirState
from repro.core.finegrain import Tag
from repro.core.modes import PageMode
from repro.interconnect.messages import MessageKind


class MigrationManager:
    """Machine-wide coordinator for lazy home migration."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.enabled = machine.config.enable_migration
        self.threshold = machine.config.migration_threshold
        #: gpage -> current dynamic home (kept by each static home; a
        #: single dict because the static home mapping is a pure
        #: function of gpage).
        self.dynamic_home: "dict[int, int]" = {}
        #: Per-page requester counters at the current dynamic home.
        self._requesters: "dict[int, dict[int, int]]" = {}
        #: Migrations decided during a transaction, applied between
        #: references (a directory cannot move mid-transaction).
        self.pending: "list[tuple[int, int]]" = []
        self.migrations = 0

    def home_of(self, gpage: int) -> int:
        """Current dynamic home of ``gpage``."""
        home = self.dynamic_home.get(gpage)
        if home is None:
            return self.machine.static_home_of(gpage)
        return home

    def note_request(self, gpage: int, requester: int, dir_page) -> None:
        """Called by the home controller on every remote request."""
        if not self.enabled:
            return
        counts = self._requesters.setdefault(gpage, {})
        counts[requester] = counts.get(requester, 0) + 1
        total = sum(counts.values())
        if total < self.threshold:
            return
        top_node, top_count = max(counts.items(), key=lambda kv: kv[1])
        counts.clear()
        if top_count * 2 > total and top_node != self.home_of(gpage):
            self.pending.append((gpage, top_node))

    def drain(self) -> None:
        """Apply queued migrations (called between references)."""
        while self.pending:
            gpage, target = self.pending.pop()
            self.migrate(gpage, target)

    def migrate(self, gpage: int, new_home_id: int) -> None:
        """Move the dynamic home of ``gpage`` to ``new_home_id``.

        Coordination involves only the static home and the two dynamic
        homes — no other node is contacted and no translations are
        invalidated (the essence of *lazy* migration).
        """
        machine = self.machine
        old_home_id = self.home_of(gpage)
        if new_home_id == old_home_id:
            return
        old_home = machine.nodes[old_home_id]
        new_home = machine.nodes[new_home_id]
        static_id = machine.static_home_of(gpage)
        machine.nodes[static_id].msglog.record(MessageKind.MIGRATE_REQ, 2)

        dir_page = old_home.directory.remove_page(gpage)
        old_entry = old_home.pit.entry_or_none(dir_page.home_frame)

        # The new home needs a real, tagged frame behind the page.
        new_entry = None
        for entry in (new_home.pit.by_gpage(gpage, None),):
            if entry is not None:
                new_entry = entry
        if new_entry is not None and new_entry.mode == PageMode.LANUMA:
            # Re-back the page with a real frame: page out the imaginary
            # mapping first, then allocate.
            new_home.kernel.page_out_client(new_entry.frame, 0)
            new_entry = None
        if new_entry is None:
            frame = new_home.pools.alloc_real()
            new_entry = new_home.pit.install(
                frame, gpage=gpage, static_home=static_id,
                dynamic_home=new_home_id, home_frame=frame,
                mode=PageMode.SCOMA)
            new_home.stats.frames_allocated += 1
        else:
            # Promote the client S-COMA frame into the home frame.
            new_home.kernel._client_lru.pop(new_entry.frame, None)
            new_home.pools.client_scoma_in_use -= 1
            new_entry.dynamic_home = new_home_id
            new_entry.home_frame = new_entry.frame

        # Transfer line states: the old home becomes an ordinary client.
        new_tags = new_entry.tags
        old_tags = old_entry.tags if old_entry is not None else None
        for lip, dl in enumerate(dir_page.lines):
            if dl.state == DirState.HOME_EXCL:
                # Data moves with the page; old home keeps a shared copy.
                dl.state = DirState.SHARED
                dl.sharers = {old_home_id}
                if old_tags is not None:
                    old_tags.set(lip, Tag.SHARED)
                new_tags.set(lip, Tag.SHARED)
            elif dl.state == DirState.SHARED:
                if dl.sharers is NO_SHARERS:
                    dl.sharers = {old_home_id}
                else:
                    dl.sharers.add(old_home_id)
                dl.sharers.discard(new_home_id)
                if old_tags is not None:
                    old_tags.set(lip, Tag.SHARED)
                new_tags.set(lip, Tag.SHARED)
            else:  # CLIENT_EXCL
                if dl.owner == new_home_id:
                    # The new home already owns the line exclusively.
                    dl.state = DirState.HOME_EXCL
                    dl.owner = -1
                    new_tags.set(lip, Tag.EXCLUSIVE)
                elif new_tags is not None:
                    new_tags.set(lip, Tag.INVALID)
                if old_tags is not None:
                    old_tags.set(lip, Tag.INVALID)

        # Old home's frame becomes a client S-COMA frame.
        if old_entry is not None:
            old_entry.dynamic_home = new_home_id
            old_entry.home_frame = new_entry.frame
            old_home.kernel._client_lru[old_entry.frame] = None
            old_home.pools.client_scoma_in_use += 1
            dir_page.clients.add(old_home_id)
        dir_page.clients.discard(new_home_id)

        new_home.directory.adopt_page(dir_page, new_entry.frame)
        self.dynamic_home[gpage] = new_home_id
        self._requesters.pop(gpage, None)
        new_home.stats.homes_migrated_in += 1
        machine.nodes[static_id].msglog.record(MessageKind.MIGRATE_ACK, 2)
        self.migrations += 1
        for probe in machine.probes.migrate:
            probe(gpage, old_home_id, new_home_id)
