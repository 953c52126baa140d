"""Reference oracle for the tablet's one read path.

Every tablet read — a bare scan, the columnar drain, a stack of table
or scan iterators on the per-cell leaf, and compaction — starts from
one fused run merge (``Tablet._read``).  This test checks it against
the classic per-cell Accumulo stack built from the library iterators
over the *same* memtable and runs:

    VersioningIterator(DeleteFilterIterator(MergeIterator(
        [ListIterator(memtable), ListIterator(run), ...])))

Random tablet histories interleave puts (auto and explicit
timestamps, so versions and cross-run key ties occur), deletes,
flushes and compactions under ``max_versions`` 1-3.  Scans draw their
range from full, exact-row, prefix, arbitrary and extent-disjoint
ranges, and their column filter from none, family and
family+qualifier.  Every cell must match, timestamps and delete flags
included, and so must the ``seeks``/``entries_read`` tallies.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dbsim.iterators import (DeleteFilterIterator, ListIterator,
                                   MergeIterator, PredicateFilterIterator,
                                   SummingCombiner, VersioningIterator,
                                   drain)
from repro.dbsim.key import Key, Range
from repro.dbsim.stats import OpStats
from repro.dbsim.tablet import Tablet

#: the tablet's extent; ranges outside it must read nothing
EXTENT = Range("b", "g")
ROWS = ["b", "ba", "c", "d", "f"]
FAMS = ["", "f"]
QUALS = ["x", "y"]

write = st.tuples(
    st.sampled_from(["put", "put", "put", "delete"]),
    st.sampled_from(ROWS), st.sampled_from(FAMS), st.sampled_from(QUALS),
    # 0 = take the tablet's next logical tick; small explicit values
    # collide across runs, exercising memtable-over-sstable ties
    st.sampled_from([0, 0, 1, 2]),
    st.integers(0, 9))
history_op = st.one_of(write, write, write,
                       st.tuples(st.just("flush")),
                       st.tuples(st.just("compact")))
history = st.lists(history_op, min_size=1, max_size=40)

ranges = st.one_of(
    st.just(Range()),
    st.sampled_from(ROWS).map(Range.exact_row),
    st.sampled_from(["b", "c", "d", "z"]).map(Range.prefix),
    st.tuples(st.sampled_from(ROWS), st.sampled_from(ROWS + ["g"])).map(
        lambda t: Range(min(t), max(t))),
    st.sampled_from([Range("a", "b"), Range("g", None), Range(None, "ab"),
                     Range("x", "z")]),
)
columns = st.one_of(
    st.none(),
    st.sampled_from(FAMS).map(lambda f: [(f, None)]),
    st.tuples(st.sampled_from(FAMS), st.sampled_from(QUALS)).map(
        lambda fq: [fq]),
)


def _build(ops, max_versions, table_iterators=()):
    tablet = Tablet(EXTENT, max_versions=max_versions)
    for op in ops:
        if op[0] == "flush":
            tablet.flush()
        elif op[0] == "compact":
            tablet.compact(table_iterators)
        else:
            kind, row, fam, qual, ts, value = op
            key = Key(row, fam, qual, "", ts)
            if kind == "delete":
                tablet.delete(key)
            else:
                tablet.write(key, str(value))
    return tablet


def _reference(tablet, rng, cols, table_iterators=()):
    """The per-cell library stack over the tablet's memtable and runs,
    pruned as a tablet prunes (run bounds; bloom filter on a point
    lookup), counting into its own OpStats."""
    stats = OpStats()
    clipped = EXTENT.clip(rng)
    if clipped is None:
        return [], stats
    leaves = [ListIterator(tablet.memtable.snapshot(), stats)]
    point_row = clipped.single_row()
    for run in tablet.sstables:
        if not run.overlaps(clipped):
            continue
        if point_row is not None and not run.may_contain_row(point_row):
            continue
        leaves.append(ListIterator(run.cells(), stats))
    stack = VersioningIterator(DeleteFilterIterator(MergeIterator(leaves)),
                               tablet.max_versions)
    for factory in table_iterators:
        stack = factory(stack)
    return drain(stack, clipped, cols), stats


def _read(tablet, fn):
    """Run ``fn`` against a fresh counter block; return its result and
    the block."""
    tablet.stats = OpStats()
    return fn(), tablet.stats


def _keep_all(src):
    return PredicateFilterIterator(src, lambda cell: True)


def _check_compaction(tablet, table_iterators=()):
    """Compaction rewrites exactly the reference stack's full read
    into one run, counting that read like a scan."""
    want, want_stats = _reference(tablet, Range(), None, table_iterators)
    _, stats = _read(tablet, lambda: tablet.compact(table_iterators))
    assert (stats.seeks, stats.entries_read, stats.compactions) == \
        (want_stats.seeks, want_stats.entries_read, 1)
    assert len(tablet.memtable) == 0
    assert [c for run in tablet.sstables for c in run.cells()] == want


@given(ops=history, max_versions=st.integers(1, 3), rng=ranges,
       cols=columns)
@settings(max_examples=200, deadline=None)
# the same key in the memtable and a run: the memtable copy wins
@example(ops=[("put", "c", "", "x", 2, 1), ("flush",),
              ("put", "c", "", "x", 2, 5)],
         max_versions=1, rng=Range(), cols=None)
# the same key in two runs: the earlier run wins
@example(ops=[("put", "c", "", "x", 2, 1), ("flush",),
              ("put", "c", "", "x", 2, 5), ("flush",)],
         max_versions=1, rng=Range(), cols=None)
# a tombstone hides the put carrying its own timestamp
@example(ops=[("put", "c", "", "x", 2, 1), ("flush",),
              ("delete", "c", "", "x", 2, 0)],
         max_versions=2, rng=Range(), cols=None)
# a point lookup skips a run its bloom filter proves absent
@example(ops=[("put", "b", "", "x", 0, 1), ("put", "d", "", "x", 0, 1),
              ("flush",)],
         max_versions=1, rng=Range.exact_row("c"), cols=None)
def test_read_path_matches_reference_stack(ops, max_versions, rng, cols):
    tablet = _build(ops, max_versions)
    want, want_stats = _reference(tablet, rng, cols)

    got, stats = _read(tablet, lambda: tablet.scan(rng, cols))
    assert got == want
    assert (stats.seeks, stats.entries_read) == \
        (want_stats.seeks, want_stats.entries_read)

    batches, stats = _read(tablet, lambda: list(
        tablet.scan_columns(rng, cols, batch_cells=3)))
    assert [c for b in batches for c in b.cells()] == want
    assert all(0 < len(b) <= 3 for b in batches)
    assert (stats.seeks, stats.entries_read) == \
        (want_stats.seeks, want_stats.entries_read)

    # a scan-time iterator puts the read on the per-cell leaf
    stacked, stats = _read(tablet, lambda: tablet.scan(
        rng, cols, scan_iterators=(_keep_all,)))
    assert stacked == want
    assert (stats.seeks, stats.entries_read) == \
        (want_stats.seeks, want_stats.entries_read)

    _check_compaction(tablet)


numeric_write = st.tuples(
    st.sampled_from(["put", "put", "put", "delete"]),
    st.sampled_from(ROWS), st.sampled_from(FAMS), st.sampled_from(QUALS),
    st.sampled_from([0, 0, 0, 1, 2]), st.integers(-3, 9))
numeric_history = st.lists(
    st.one_of(numeric_write, numeric_write, numeric_write,
              st.tuples(st.just("flush")), st.tuples(st.just("compact"))),
    min_size=1, max_size=40)


@given(ops=numeric_history,
       max_versions=st.sampled_from([1, 2, 3, 2 ** 31]),
       rng=ranges, cols=columns)
@settings(max_examples=100, deadline=None)
def test_combiner_table_scan_and_compaction_match_reference(
        ops, max_versions, rng, cols):
    combiner = (SummingCombiner,)
    tablet = _build(ops, max_versions, combiner)

    want, _ = _reference(tablet, rng, cols, combiner)
    got, _ = _read(tablet, lambda: tablet.scan(rng, cols, combiner))
    assert got == want

    _check_compaction(tablet, combiner)
