"""Tablets: the unit of storage and of server-side iteration.

A tablet owns a row-range *extent*, a memtable, and a stack of immutable
sorted runs.  Every read starts from one fused run merge
(:meth:`Tablet._read`):

    memtable + sstables → row-bisect slices → one stable merge →
    one pass: column filter, tombstones, versioning

A scan with no iterators cuts that output straight into column
batches.  Table-configured iterators (combiners, filters) and
scan-time iterators stack on one per-cell leaf over it
(:class:`_ReadLeaf`); compaction runs the table's stack on the same
leaf.

Minor compactions (flush) move the memtable into a new run when it
exceeds ``flush_bytes``; full compactions rewrite all runs through the
table's iterator stack, making combiner results durable.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain as _chain
from itertools import islice
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.dbsim.iterators import (
    Columns,
    SortedKVIterator,
    _column_match,
    drain,
)
from repro.dbsim.errors import ServerCrashedError
from repro.dbsim.key import Cell, Key, Range
from repro.dbsim.memtable import MemTable
from repro.dbsim.sstable import SSTable
from repro.dbsim.stats import MeteredStats, OpStats
from repro.obs import trace as _trace

#: A table-configured iterator layer: callable wrapping a source iterator.
IteratorFactory = Callable[[SortedKVIterator], SortedKVIterator]


def _cell_row(cell: Cell) -> str:
    return cell.key.row


def _cell_sort_key(cell: Cell):
    return cell.key.sort_tuple()


class Tablet:
    """One tablet of one table: extent + memtable + sorted runs."""

    def __init__(self, extent: Range, max_versions: int = 1,
                 flush_bytes: int = 1 << 20,
                 stats: Optional[OpStats] = None):
        self.extent = extent
        self.max_versions = max_versions
        self.flush_bytes = flush_bytes
        self._stats = stats if stats is not None else OpStats()
        self._registry = None     # metrics registry (bound by the Instance)
        #: hosting TabletServer (set by host/unhost); data ops consult
        #: its ``crashed`` flag so a downed server fails typed instead
        #: of silently serving reads
        self.server = None
        self.table: Optional[str] = None
        self._sink = self._stats  # counter target: stats, or a metered tee
        self._on_index_seek = None  # registry hook for sstable index seeks
        self.memtable = MemTable()
        self.sstables: List[SSTable] = []
        self._clock = 0  # per-tablet logical timestamps: last write wins
        #: write-ahead log: durable record of unflushed mutations
        self.wal: List[Cell] = []

    # -- stats / metrics binding --------------------------------------------

    @property
    def stats(self) -> OpStats:
        return self._stats

    @stats.setter
    def stats(self, value: OpStats) -> None:
        # servers re-point hosted tablets at their own counter block;
        # keep the metered tee (if bound) aimed at the new base
        self._stats = value
        self._rebuild_sink()

    def bind_metrics(self, registry, table: str) -> None:
        """Attach a metrics registry: from here on this tablet's work is
        also counted under ``dbsim.table.<table>.*``."""
        self._registry = registry
        self.table = table
        self._gauge_prev = {"memtable_bytes": 0, "memtable_entries": 0,
                            "sstables": 0}
        # pre-register every instrument so an export taken before any
        # activity still shows the table's full schema (at zero)
        prefix = f"dbsim.table.{table}"
        for name in ("seeks", "entries_read", "entries_written", "flushes",
                     "compactions", "bloom_hits", "bloom_misses",
                     "index_seeks", "batched_mutations"):
            registry.counter(f"{prefix}.{name}")
        for name in self._gauge_prev:
            registry.gauge(f"{prefix}.{name}")
        self._rebuild_sink()
        self._update_gauges()

    def unbind_metrics(self) -> None:
        """Detach from the registry, withdrawing this tablet's gauge
        contributions (used when a tablet is retired by split/delete)."""
        if self._registry is None:
            return
        prefix = f"dbsim.table.{self.table}"
        for name, prev in self._gauge_prev.items():
            if prev:
                self._registry.gauge(f"{prefix}.{name}").add(-prev)
        self._registry = None
        self._rebuild_sink()

    def _rebuild_sink(self) -> None:
        if self._registry is not None and self.table is not None:
            prefix = f"dbsim.table.{self.table}"
            self._sink = MeteredStats(self._stats, self._registry, prefix)
            self._on_index_seek = self._registry.counter(
                f"{prefix}.index_seeks").inc
        else:
            self._sink = self._stats
            self._on_index_seek = None

    def absorb_scan_stats(self, stats: OpStats) -> None:
        """Fold one finished scan's private OpStats (built with the
        ``sink=`` argument of :meth:`scan_iterator`) into the tablet's
        shared block and its metered tee.  The caller serializes calls
        (the net server holds its service lock)."""
        if stats.seeks:
            self._sink.seeks += stats.seeks
        if stats.entries_read:
            self._sink.entries_read += stats.entries_read

    def _bump_aux(self, name: str, amount: int = 1) -> None:
        """Count an I/O-path event that exists only in the registry
        (bloom/batching counters are not part of the OpStats cost
        model, whose field set is pinned by serialization tests)."""
        if self._registry is not None:
            self._registry.counter(
                f"dbsim.table.{self.table}.{name}").inc(amount)

    def _update_gauges(self, memtable_bytes: Optional[int] = None) -> None:
        # table-level gauges are the sum over the table's tablets, so
        # each tablet adds the *change* in its own contribution
        if self._registry is None:
            return
        prefix = f"dbsim.table.{self.table}"
        if memtable_bytes is None:
            memtable_bytes = self.memtable.approximate_bytes
        now = {"memtable_bytes": memtable_bytes,
               "memtable_entries": len(self.memtable),
               "sstables": len(self.sstables)}
        for name, value in now.items():
            delta = value - self._gauge_prev[name]
            if delta:
                self._registry.gauge(f"{prefix}.{name}").add(delta)
        self._gauge_prev = now

    def check_up(self) -> None:
        """Raise :class:`ServerCrashedError` when the hosting server is
        down (between ``crash()`` and ``recover()``).  Unhosted tablets
        (``server is None``) are always up — the unit-test path."""
        server = self.server
        if server is not None and server.crashed:
            raise ServerCrashedError(
                f"tablet server {server.name} is down "
                f"(crashed, not yet recovered)")

    # -- writes -------------------------------------------------------------

    def _apply(self, key: Key, value: str) -> None:
        """Stamp, WAL-append, and buffer one mutation (no accounting):
        timestamp 0 is replaced by a fresh logical tick so later writes
        version-sort first; the WAL append precedes the memtable — the
        durability contract crash recovery replays."""
        if not self.extent.contains_row(key.row):
            raise ValueError(
                f"row {key.row!r} outside tablet extent "
                f"[{self.extent.start_row!r}, {self.extent.stop_row!r})")
        if key.timestamp == 0:
            self._clock += 1
            key = Key(key.row, key.family, key.qualifier, key.visibility,
                      self._clock, key.delete)
        cell = Cell(key, value)
        self.wal.append(cell)
        self.memtable.write(cell)

    def write(self, key: Key, value: str) -> None:
        """Insert one cell."""
        self.check_up()
        self._apply(key, value)
        self._sink.entries_written += 1
        size = self.memtable.approximate_bytes
        self._update_gauges(memtable_bytes=size)
        if size >= self.flush_bytes:
            self.flush()

    def write_batch(self, cells: Iterable[Cell]) -> int:
        """Apply a batch of mutations with batch-granular accounting:
        cells are stamped in order (preserving the per-cell timestamp
        sequence ``write`` would assign, so scans are bit-identical to
        cell-at-a-time ingest) and appended to the WAL and memtable in
        bulk; counters, gauges and the auto-flush check run **once per
        batch** — not per cell.  Returns the number of cells applied."""
        self.check_up()
        extent = self.extent
        contains = extent.contains_row
        clock = self._clock
        nbytes = 0
        stamped: List[Cell] = []
        append = stamped.append
        for cell in cells:
            key = cell.key
            if not contains(key.row):
                raise ValueError(
                    f"row {key.row!r} outside tablet extent "
                    f"[{extent.start_row!r}, {extent.stop_row!r})")
            nbytes += (len(key.row) + len(key.family) + len(key.qualifier)
                       + len(cell.value) + 24)
            if key.timestamp == 0:
                clock += 1
                cell = Cell(Key(key.row, key.family, key.qualifier,
                                key.visibility, clock, key.delete),
                            cell.value)
            append(cell)
        return self._commit_batch(stamped, nbytes, clock)

    def write_raw_batch(self, mutations: Iterable[tuple]) -> int:
        """``write_batch`` over raw ``(row, family, qualifier,
        visibility, timestamp, delete, value)`` tuples — the
        BatchWriter wire format.  Each mutation is materialised as a
        :class:`Cell` exactly once, *after* its timestamp is assigned,
        instead of being built client-side and rebuilt here to stamp
        it.  Semantics are identical to ``write_batch``."""
        self.check_up()
        extent = self.extent
        contains = extent.contains_row
        clock = self._clock
        nbytes = 0
        stamped: List[Cell] = []
        append = stamped.append
        for row, family, qualifier, visibility, ts, delete, value in mutations:
            if not contains(row):
                raise ValueError(
                    f"row {row!r} outside tablet extent "
                    f"[{extent.start_row!r}, {extent.stop_row!r})")
            nbytes += (len(row) + len(family) + len(qualifier)
                       + len(value) + 24)
            if ts == 0:
                clock += 1
                ts = clock
            append(Cell(Key(row, family, qualifier, visibility, ts, delete),
                        value))
        return self._commit_batch(stamped, nbytes, clock)

    def _commit_batch(self, stamped: List[Cell], nbytes: int,
                      clock: int) -> int:
        """Shared tail of the batch write paths: bulk WAL + memtable
        append, then once-per-batch accounting and the auto-flush
        check."""
        if not stamped:
            return 0
        self._clock = clock
        self.wal.extend(stamped)
        self.memtable.extend(stamped, nbytes)
        n = len(stamped)
        self._sink.entries_written += n
        self._bump_aux("batched_mutations", n)
        size = self.memtable.approximate_bytes
        self._update_gauges(memtable_bytes=size)
        if size >= self.flush_bytes:
            self.flush()
        return n

    def delete(self, key: Key) -> None:
        """Write a tombstone hiding all versions of the cell at or
        before this mutation."""
        self.write(Key(key.row, key.family, key.qualifier, key.visibility,
                       key.timestamp, True), "")

    def flush(self) -> None:
        """Minor compaction: memtable → new immutable run; the WAL
        entries it covered are no longer needed."""
        self.check_up()
        if len(self.memtable) == 0:
            return
        if not _trace.ENABLED:
            self._flush()
            return
        with _trace.span("tablet.flush", stats=self._stats,
                         table=self.table, entries=len(self.memtable)):
            self._flush()

    def _flush(self) -> None:
        self.sstables.append(SSTable(self.memtable.snapshot()))
        self.memtable.clear()
        self.wal.clear()
        self._sink.flushes += 1
        self._update_gauges(memtable_bytes=0)

    # -- failure simulation ----------------------------------------------------

    def crash(self) -> None:
        """Lose in-memory state (memtable); sorted runs and the WAL are
        durable and survive."""
        self.memtable.clear()
        self._update_gauges(memtable_bytes=0)

    def recover(self) -> None:
        """Replay the WAL into a fresh memtable (idempotent: replayed
        cells carry their original timestamps, so re-application cannot
        reorder versions)."""
        for cell in self.wal:
            self.memtable.write(cell)
        self._update_gauges()

    # -- reads ---------------------------------------------------------------

    def _read(self, clipped: Range, columns: Columns, sink) -> List[Cell]:
        """The tablet's one storage read: every scan and every
        compaction starts here, with or without iterators above it —
        :meth:`_runs`, then :meth:`_merge`."""
        if sink is None:
            sink = self._sink
        return self._merge(self._runs(clipped, sink), columns, sink)

    def _runs(self, clipped: Range, sink) -> List[List[Cell]]:
        """Step 1 of the read, the only one that touches shared tablet
        state: each run is sliced to ``clipped`` with two row bisects —
        memtable first (a private snapshot), then sstables in list
        order.  Every opened run counts one ``seeks`` (and each sstable
        one index-seek tick); a point lookup consults each sstable's
        row bloom filter first and skips runs proven absent
        (``bloom_hits``; runs that must be read count
        ``bloom_misses``).  The slices are private copies."""
        start = clipped.effective_start()
        stop = clipped.effective_stop()
        row_of = _cell_row
        runs: List[List[Cell]] = []
        cells = self.memtable.snapshot()
        sink.seeks += 1
        lo = bisect_left(cells, start, key=row_of)
        hi = bisect_left(cells, stop, lo, key=row_of)
        if hi > lo:
            runs.append(cells if hi - lo == len(cells) else cells[lo:hi])
        point_row = clipped.single_row()
        for run in self.sstables:
            if not run.overlaps(clipped):
                continue
            if point_row is not None:
                if not run.may_contain_row(point_row):
                    self._bump_aux("bloom_hits")
                    continue
                self._bump_aux("bloom_misses")
            sink.seeks += 1
            if self._on_index_seek is not None:
                self._on_index_seek()
            cells = run._cells
            lo = bisect_left(cells, start, key=row_of)
            hi = bisect_left(cells, stop, lo, key=row_of)
            if hi > lo:
                runs.append(cells[lo:hi])
        return runs

    def _merge(self, runs: List[List[Cell]], columns: Columns,
               sink) -> List[Cell]:
        """Steps 2 and 3 of the read, over :meth:`_runs`' private
        slices.

        2. One stable merge: timsort gallops over the presorted runs
           and, being stable, keeps concatenation order on key ties —
           the memtable wins over sstables, an earlier sstable over a
           later one.
        3. One pass applies the column filter, tombstone suppression
           and versioning.  Every column-matching cell counts in
           ``entries_read``, tombstones and hidden versions included.
        """
        if len(runs) == 1:
            merged: List[Cell] = runs[0]
        else:
            merged = list(_chain.from_iterable(runs))
            merged.sort(key=_cell_sort_key)
        mv = self.max_versions
        out: List[Cell] = []
        append = out.append
        entries = 0
        del_cid = None
        del_ts = 0
        last_cid = None
        seen = 0
        for cell in merged:
            key = cell.key
            if columns is not None and not _column_match(key, columns):
                continue  # column-filtered: not counted as read
            entries += 1
            cid = (key.row, key.family, key.qualifier, key.visibility)
            if key.delete:
                del_cid = cid
                del_ts = key.timestamp
                continue
            if cid == del_cid and key.timestamp <= del_ts:
                continue
            if cid == last_cid:
                seen += 1
                if seen > mv:
                    continue
            else:
                last_cid = cid
                seen = 1
            append(cell)
        sink.entries_read += entries
        return out

    def scan_iterator(self, rng: Range,
                      table_iterators: Sequence[IteratorFactory] = (),
                      scan_iterators: Sequence[IteratorFactory] = (),
                      sink=None) -> SortedKVIterator:
        """The table's iterators, then the scan's, stacked on one
        :class:`_ReadLeaf` over :meth:`_read`, clipped to this
        tablet's extent.  The returned stack is *unseeked*.

        ``sink`` redirects the read's OpStats counting away from the
        tablet's shared block: the shared sink's ``+=`` updates are not
        atomic, so a server running scans concurrently hands each scan
        a private :class:`OpStats` and folds it back with
        :meth:`absorb_scan_stats` under its own serialization.
        """
        return _stack(_ReadLeaf(self, self.extent.clip(rng), sink),
                      table_iterators, scan_iterators)

    def scan(self, rng: Range = Range(), columns: Columns = None,
             table_iterators: Sequence[IteratorFactory] = (),
             scan_iterators: Sequence[IteratorFactory] = ()) -> List[Cell]:
        """Run the read to completion and return its cells."""
        self.check_up()
        if table_iterators or scan_iterators:
            stack = self.scan_iterator(rng, table_iterators,
                                       scan_iterators)
            return drain(stack, rng, columns)
        clipped = self.extent.clip(rng)
        return [] if clipped is None else self._read(clipped, columns,
                                                     None)

    def scan_columns(self, rng: Range = Range(), columns: Columns = None,
                     table_iterators: Sequence[IteratorFactory] = (),
                     scan_iterators: Sequence[IteratorFactory] = (),
                     batch_cells: int = 2048, sink=None):
        """Bulk columnar read: the scan's cells as
        :class:`~repro.net.cells.ColumnBatch`\\ es of up to
        ``batch_cells`` entries.

        Only the part of the read that touches shared tablet state —
        :meth:`_runs` — runs now, so a server can hold its service lock
        for that alone.  The returned generator does the rest on the
        private slices: the merge and pass, any iterator stack (drained
        one batch at a time), and a crash check before each batch (a
        crash mid-scan surfaces as :class:`ServerCrashedError` on the
        next batch).
        """
        self.check_up()
        clipped = self.extent.clip(rng)
        if clipped is None:
            return iter(())
        if sink is None:
            sink = self._sink
        runs = self._runs(clipped, sink)
        return self._columns(runs, clipped, columns, table_iterators,
                             scan_iterators, batch_cells, sink)

    def _columns(self, runs: List[List[Cell]], clipped: Range,
                 columns: Columns,
                 table_iterators: Sequence[IteratorFactory],
                 scan_iterators: Sequence[IteratorFactory],
                 batch_cells: int, sink):
        from repro.net.cells import ColumnBatch  # lazy: dbsim ← net cycle

        if table_iterators or scan_iterators:
            stack = _stack(_ReadLeaf(self, clipped, sink, runs),
                           table_iterators, scan_iterators)
            stack.seek(clipped, columns)
            cells = _stack_cells(stack)
        else:
            cells = iter(self._merge(runs, columns, sink))
        while True:
            chunk = list(islice(cells, batch_cells))
            if not chunk:
                return
            self.check_up()
            yield ColumnBatch.from_cells(chunk)

    # -- maintenance ------------------------------------------------------------

    def compact(self, table_iterators: Sequence[IteratorFactory] = ()) -> None:
        """Major compaction: rewrite all data through the table stack
        (versioning + combiners become durable; single run remains)."""
        self.check_up()
        if not _trace.ENABLED:
            self._compact(table_iterators)
            return
        with _trace.span("tablet.compact", stats=self._stats,
                         table=self.table,
                         runs=len(self.sstables)) as sp:
            self._compact(table_iterators)
            sp.set(entries_out=self.entry_estimate())

    def _compact(self, table_iterators: Sequence[IteratorFactory]) -> None:
        cells = self.scan(Range(), None, table_iterators)
        self.memtable.clear()
        self.wal.clear()
        self.sstables = [SSTable(cells)] if cells else []
        self._sink.compactions += 1
        self._update_gauges(memtable_bytes=0)

    def split(self, split_row: str) -> Tuple["Tablet", "Tablet"]:
        """Split into two tablets at ``split_row`` (goes to the right
        child, matching Accumulo's exclusive-end split semantics)."""
        if not self.extent.contains_row(split_row):
            raise ValueError(f"split row {split_row!r} outside extent")
        self.flush()
        left = Tablet(Range(self.extent.start_row, split_row),
                      self.max_versions, self.flush_bytes, self.stats)
        right = Tablet(Range(split_row, self.extent.stop_row),
                       self.max_versions, self.flush_bytes, self.stats)
        left._clock = right._clock = self._clock
        for run in self.sstables:
            # one bisect + two slices per run (runs are sorted by key)
            lrun, rrun = run.split_at(split_row)
            if len(lrun):
                left.sstables.append(lrun)
            if len(rrun):
                right.sstables.append(rrun)
        return left, right

    def entry_estimate(self) -> int:
        """Stored-entry count across memtable and runs (pre-versioning)."""
        return len(self.memtable) + sum(len(t) for t in self.sstables)


def _stack(leaf: SortedKVIterator,
           table_iterators: Sequence[IteratorFactory],
           scan_iterators: Sequence[IteratorFactory]) -> SortedKVIterator:
    stack = leaf
    for factory in table_iterators:
        stack = factory(stack)
    for factory in scan_iterators:
        stack = factory(stack)
    return stack


def _stack_cells(stack: SortedKVIterator) -> Iterator[Cell]:
    while stack.has_top():
        yield stack.top()
        stack.advance()


class _ReadLeaf(SortedKVIterator):
    """Per-cell view of :meth:`Tablet._read`: the one leaf that table
    and scan iterators stack on.

    A seek is clipped to the stack's range (the tablet extent ∩ the
    scan range); a disjoint seek leaves the leaf explicitly empty,
    and a later seek can reuse it.  ``runs``, when given, are
    :meth:`Tablet._runs` slices already taken for exactly that range:
    a seek to it merges them instead of reading the tablet again, so
    the stack above can run without the tablet's owner serializing it.
    Every call re-checks the hosting server's ``crashed`` flag, so an
    open stack dies with its server instead of streaming a dead
    server's tablet.
    """

    __slots__ = ("_tablet", "_server", "_clip", "_sink", "_runs", "_cells",
                 "_pos", "_end")

    def __init__(self, tablet: Tablet, clip: Optional[Range], sink,
                 runs: Optional[List[List[Cell]]] = None):
        self._tablet = tablet
        self._server = tablet.server
        self._clip = clip
        self._sink = sink
        self._runs = runs
        self._cells: List[Cell] = []
        self._pos = self._end = 0

    def seek(self, rng: Range, columns: Columns = None) -> None:
        tablet = self._tablet
        tablet.check_up()
        clipped = None if self._clip is None else self._clip.clip(rng)
        runs, self._runs = self._runs, None
        if clipped is None:
            self._cells = []
        elif runs is not None and clipped == self._clip:
            self._cells = tablet._merge(runs, columns, self._sink)
        else:
            self._cells = tablet._read(clipped, columns, self._sink)
        self._pos = 0
        self._end = len(self._cells)

    def has_top(self) -> bool:
        if self._server is not None and self._server.crashed:
            self._tablet.check_up()  # raises ServerCrashedError
        return self._pos < self._end

    def top(self) -> Cell:
        if self._server is not None and self._server.crashed:
            self._tablet.check_up()
        if self._pos >= self._end:
            raise StopIteration("iterator exhausted")
        return self._cells[self._pos]

    def advance(self) -> None:
        if self._server is not None and self._server.crashed:
            self._tablet.check_up()
        if self._pos < self._end:
            self._pos += 1
