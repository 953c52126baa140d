"""Graphulo server-side operations.

These are the database-resident forms of the GraphBLAS kernels — the
paper's stated goal ("use Accumulo server components such as iterators
to perform graph analytics"):

* :func:`table_mult` — SpGEMM as Graphulo's TableMult: both operands
  (stored-transpose ``AT`` and ``B``) are scanned through the columnar
  path into the client-side SpGEMM engine, and one reduced cell per
  output is written to the result table, whose combiner folds it with
  what the table already holds.  Running the multiply inside the
  tablet servers, as Graphulo does, is not implemented;
* :func:`degree_table` — maintain the D4M schema's Tdeg (one Reduce);
* :func:`apply_to_table` / :func:`filter_table` — server-side Apply /
  value filters via the iterator stack;
* :func:`table_bfs` — k-hop BFS by repeated BatchScanner row fetches of
  the frontier (Graphulo's adjacency-table BFS).

All take a :class:`~repro.dbsim.client.Connector`; result tables are
created on demand with the right combiner.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Set

import numpy as np

from repro.assoc.keyset import union_keys
from repro.dbsim.client import Connector
from repro.dbsim.iterators import (
    ApplyIterator,
    MaxCombiner,
    MinCombiner,
    PredicateFilterIterator,
    SummingCombiner,
)
from repro.dbsim.key import Cell, Range, decode_number
from repro.dbsim.server import TableConfig
from repro.dbsim.stats import OpStats
from repro.obs import trace as _trace
from repro.semiring.builtin import MAX_MONOID, MIN_MONOID, PLUS_MONOID, TIMES
from repro.semiring.ops import BinaryOp, Semiring
from repro.sparse.construct import from_coo
from repro.sparse.spgemm import mxm

#: name → combiner factory for result tables (the ⊕ of the semiring).
COMBINERS = {
    "sum": SummingCombiner,
    "min": MinCombiner,
    "max": MaxCombiner,
}
#: the same ⊕ as a semiring monoid, for TableMult's SpGEMM engine.
_MONOIDS = {"sum": PLUS_MONOID, "min": MIN_MONOID, "max": MAX_MONOID}


def create_combiner_table(conn: Connector, name: str, combiner: str = "sum",
                          splits: Sequence[str] = ()) -> None:
    """Create a table whose versions of a cell fold with ``combiner`` —
    the Accumulo idiom for accumulating writes (⊕ on collision)."""
    if combiner not in COMBINERS:
        raise ValueError(f"combiner must be one of {sorted(COMBINERS)}, "
                         f"got {combiner!r}")
    config = TableConfig(
        max_versions=2 ** 31,  # combiner consumes all versions
        table_iterators=(COMBINERS[combiner],),
    )
    conn.create_table(name, config, splits=splits)


def _spec():
    """Fresh empty iterator-stack spec.  Imported lazily: dbsim modules
    must not import :mod:`repro.net` at module scope (net imports dbsim)."""
    from repro.net.iterspec import IterSpec
    return IterSpec()


def _default_mul(a: float, b: float) -> float:
    """Default ⊗ for TableMult (arithmetic multiply).  Kept as a named
    module-level function so TableMult can recognise it and use the
    vectorised TIMES operator instead of a promoted Python call."""
    return a * b


def table_mult(conn: Connector, table_at: str, table_b: str, out: str,
               mul: Callable[[float, float], float] = _default_mul,
               combiner: str = "sum", authorizations=None,
               via: str = "engine", strategy: str = "auto",
               expansion_budget: Optional[int] = None) -> OpStats:
    """Graphulo TableMult: ``C = Aᵀ ⊕.⊗ B`` with ``AT`` stored row-wise
    (Accumulo can only iterate rows, hence the stored transpose — the
    same reason the D4M schema keeps TedgeT).

    Both tables are scanned through the columnar path into key-aligned
    sparse matrices (the D4M table ↔ associative-array isomorphism) held
    by the client; the adaptive SpGEMM engine
    (:func:`repro.sparse.spgemm.mxm` — ``strategy`` and
    ``expansion_budget`` are forwarded) computes the product under the
    semiring (``combiner`` as ⊕, ``mul`` as ⊗; a Python callable is
    promoted to a :class:`~repro.semiring.ops.BinaryOp`), and one
    already-reduced cell per output is written to ``out``.  ``out``'s
    combiner folds that cell with whatever the table already holds, so
    repeated calls accumulate.  ``via`` accepts only ``"engine"``.
    Returns the instance-wide stats delta for the whole operation (the
    cost model).
    """
    if via != "engine":
        raise ValueError(f"via must be 'engine', got {via!r}")
    inst = conn.instance
    with _trace.span("graphulo.table_mult", stats=inst.total_stats,
                     table_at=table_at, table_b=table_b, out=out,
                     combiner=combiner):
        before = inst.total_stats().snapshot()
        if not conn.table_exists(out):
            create_combiner_table(conn, out, combiner=combiner)

        def scan_keyed(table):
            """Scan a table into (row keys, col keys, values) triples.
            Columnar batches feed the key/value lists directly — no Cell
            objects exist between tablet storage and the engine."""
            rows, cols, vals = [], [], []
            scanner = conn.scanner(table, authorizations=authorizations)
            for batch in scanner.scan_columns():
                rows.extend(batch.rows)
                cols.extend(batch.qualifiers)
                vals.extend(map(decode_number, batch.values))
            return np.asarray(rows, dtype=str), np.asarray(cols, dtype=str), \
                np.asarray(vals, dtype=np.float64)

        at_r, at_c, at_v = scan_keyed(table_at)
        b_r, b_c, b_v = scan_keyed(table_b)
        # align the shared inner dimension (the tables' row keys)
        inner = union_keys(np.unique(at_r), np.unique(b_r))
        u_keys = np.unique(at_c)
        v_keys = np.unique(b_c)
        mat_at = from_coo(len(inner), len(u_keys),
                          np.searchsorted(inner, at_r),
                          np.searchsorted(u_keys, at_c), at_v)
        mat_b = from_coo(len(inner), len(v_keys),
                         np.searchsorted(inner, b_r),
                         np.searchsorted(v_keys, b_c), b_v)

        mulop = TIMES if mul is _default_mul else \
            BinaryOp.from_python("table_mult_mul", mul)
        semiring = Semiring(f"table_mult_{combiner}", _MONOIDS[combiner],
                            mulop)
        c = mxm(mat_at.T, mat_b, semiring=semiring, strategy=strategy,
                expansion_budget=expansion_budget)
        rows, cols, vals = c.to_coo()
        with conn.batch_writer(out) as writer:
            for i, j, v in zip(rows, cols, vals):
                writer.put(str(u_keys[i]), "", str(v_keys[j]), float(v))
        conn.compact(out)
        return inst.total_stats().delta(before)


def degree_table(conn: Connector, table: str, out: str,
                 count_entries: bool = False, authorizations=None) -> OpStats:
    """Build/refresh a degree table: ``out[row, "", "deg"] = Σ_cols v``
    (or the entry count with ``count_entries=True``) — the D4M Tdeg."""
    inst = conn.instance
    if _trace.ENABLED:
        with _trace.span("graphulo.degree_table", stats=inst.total_stats,
                         table=table, out=out):
            return _degree_table(conn, table, out, count_entries,
                                 authorizations)
    return _degree_table(conn, table, out, count_entries, authorizations)


def _degree_table(conn: Connector, table: str, out: str,
                  count_entries: bool, authorizations) -> OpStats:
    inst = conn.instance
    before = inst.total_stats().snapshot()
    if not conn.table_exists(out):
        create_combiner_table(conn, out, combiner="sum")
    # The Reduce runs inside the tablet server: a pushed-down
    # RowReduceIterator folds each row's cells into one ("", "deg")
    # cell, so exactly one cell per row crosses the wire and the out
    # table's SummingCombiner performs the final ⊕ across tablets.
    spec = _spec().reduce("sum", qualifier="deg", count=count_entries)
    scanner = conn.scanner(table, authorizations=authorizations,
                           iterspec=spec)
    with conn.batch_writer(out) as writer:
        put = writer.put
        for batch in scanner.scan_columns():
            for row, val in zip(batch.rows, batch.values):
                put(row, "", "deg", decode_number(val))
    conn.compact(out)
    return inst.total_stats().delta(before)


def apply_to_table(conn: Connector, table: str, out: str,
                   fn: Callable[[float], float],
                   drop_zero: bool = True, authorizations=None) -> OpStats:
    """Server-side Apply: scan ``table`` through an ApplyIterator and
    write the transformed cells to ``out``."""
    inst = conn.instance
    before = inst.total_stats().snapshot()
    if not conn.table_exists(out):
        conn.create_table(out)
    scanner = conn.scanner(
        table, scan_iterators=(lambda src: ApplyIterator(src, fn, drop_zero),),
        authorizations=authorizations)
    with conn.batch_writer(out) as writer:
        for cell in scanner:
            writer.put_cell(cell)
    conn.flush(out)
    return inst.total_stats().delta(before)


def filter_table(conn: Connector, table: str, out: str,
                 predicate: Callable[[Cell], bool],
                 authorizations=None) -> OpStats:
    """Server-side value/key filter into a new table."""
    inst = conn.instance
    before = inst.total_stats().snapshot()
    if not conn.table_exists(out):
        conn.create_table(out)
    scanner = conn.scanner(
        table,
        scan_iterators=(lambda src: PredicateFilterIterator(src, predicate),),
        authorizations=authorizations)
    with conn.batch_writer(out) as writer:
        for cell in scanner:
            writer.put_cell(cell)
    conn.flush(out)
    return inst.total_stats().delta(before)


def table_bfs(conn: Connector, edge_table: str, seeds: Iterable[str],
              hops: int, min_degree: Optional[float] = None,
              degree_table_name: Optional[str] = None,
              authorizations=None) -> Dict[str, int]:
    """k-hop BFS over an adjacency table (row = source vertex, column
    qualifier = destination vertex).

    Per hop: one BatchScanner fetch of the frontier's rows; neighbours
    become the next frontier.  With ``min_degree`` and a degree table,
    high-volume "supernode" rows below the threshold are skipped — the
    Graphulo degree-filtered BFS.  Returns ``vertex → hop discovered``
    (seeds at 0).
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    if min_degree is not None and degree_table_name is None:
        raise ValueError("min_degree filtering requires degree_table_name")
    if _trace.ENABLED:
        with _trace.span("graphulo.table_bfs",
                         stats=conn.instance.total_stats,
                         table=edge_table, hops=hops,
                         degree_filtered=min_degree is not None) as sp:
            dist = _table_bfs(conn, edge_table, seeds, hops, min_degree,
                              degree_table_name, authorizations)
            sp.set(reached=len(dist))
            return dist
    return _table_bfs(conn, edge_table, seeds, hops, min_degree,
                      degree_table_name, authorizations)


def _table_bfs(conn: Connector, edge_table: str, seeds: Iterable[str],
               hops: int, min_degree: Optional[float],
               degree_table_name: Optional[str],
               authorizations) -> Dict[str, int]:
    dist: Dict[str, int] = {}
    frontier: Set[str] = set()
    for s in seeds:
        dist[s] = 0
        frontier.add(s)
    if not frontier:
        raise ValueError("need at least one seed vertex")

    def frontier_above(vertices: Set[str]) -> Set[str]:
        """One coalesced BatchScanner fetch of the frontier's degree
        rows with a ``value >= min_degree`` filter pushed down the
        iterator stack — sub-threshold rows are dropped inside the
        tablet server and never cross the wire."""
        bs = conn.batch_scanner(degree_table_name,
                                iterspec=_spec().value_ge(min_degree))
        bs.set_ranges([Range.exact_row(v) for v in sorted(vertices)])
        keep: Set[str] = set()
        for batch in bs.scan_columns():
            keep.update(batch.rows)
        return keep & vertices

    for hop in range(1, hops + 1):
        if min_degree is not None:
            frontier = frontier_above(frontier)
        if not frontier:
            break
        # sorted disjoint exact-row ranges: the BatchScanner coalesces
        # them into one stack seek per tablet for this hop
        bs = conn.batch_scanner(edge_table, authorizations=authorizations)
        bs.set_ranges([Range.exact_row(v) for v in sorted(frontier)])
        nxt: Set[str] = set()
        for batch in bs.scan_columns():
            for dst in batch.qualifiers:
                if dst not in dist:
                    dist[dst] = hop
                    nxt.add(dst)
        frontier = nxt
    return dist
