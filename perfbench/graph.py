"""Benchmark inputs and their oracles.

A :class:`Graph` is an R-MAT graph generated from the run's seed, held
both as an in-memory adjacency matrix (the input of the
``repro.algorithms`` kernels, the floor) and as the cells loaded into
an edge table.  The ``expected_*`` functions compute what each
database operation must return; the ``read_*`` functions read a result
table back into the same shape, so a check is one ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.algorithms.centrality import pagerank
from repro.algorithms.jaccard import jaccard
from repro.algorithms.traversal import bfs
from repro.algorithms.truss import ktruss
from repro.dbsim import Range, decode_number
from repro.generators.kronecker import rmat_graph
from repro.schemas.incidence import edge_list_from_adjacency, incidence_unoriented
from repro.sparse.construct import from_coo
from repro.sparse.matrix import Matrix
from repro.sparse.spgemm import mxm

#: R-MAT generator seed: scale 8 gives 2,630 entries, scale 10 12,030.
RMAT_SEED = 0

#: Largest |db − in-memory| allowed between PageRank vectors.
PAGERANK_TOL = 1e-8


def vkey(v: int) -> str:
    """Row / qualifier key of vertex ``v``."""
    return f"v{v:04d}"


@dataclass
class Graph:
    """An undirected simple R-MAT graph and its edge-table form."""

    scale: int
    edge_factor: int
    seed: int
    a: Matrix
    #: sorted (row key, qualifier key) of every stored entry
    cells: List[Tuple[str, str]] = field(default_factory=list)
    #: row key → sorted neighbour keys
    rows: Dict[str, List[str]] = field(default_factory=dict)
    #: the entries, and the row keys, listed in the generator's vertex
    #: order: position ``i`` is the same edge (vertex) for every seed
    base_cells: List[Tuple[str, str]] = field(default_factory=list)
    base_rows: List[str] = field(default_factory=list)

    @classmethod
    def rmat(cls, scale: int, edge_factor: int, seed: int) -> "Graph":
        """The R-MAT graph of generator seed :data:`RMAT_SEED`, its
        vertices relabelled by a permutation drawn from ``seed``.  Every
        seed gives the same graph up to isomorphism, so the algorithms
        do the same work, on a different key layout per seed."""
        base = rmat_graph(scale, edge_factor=edge_factor, seed=RMAT_SEED)
        r, c, v = base.to_coo()
        perm = np.random.default_rng([seed, 2]).permutation(base.nrows)
        a = from_coo(base.nrows, base.ncols, perm[r], perm[c], v)
        base_cells = [(vkey(int(perm[u])), vkey(int(perm[w])))
                      for u, w in zip(r, c)]
        base_rows = list(dict.fromkeys(u for u, _ in base_cells))
        cells = sorted(base_cells)
        rows: Dict[str, List[str]] = {}
        for u, w in cells:
            rows.setdefault(u, []).append(w)
        return cls(scale, edge_factor, seed, a, cells, rows, base_cells,
                   base_rows)

    @property
    def entries(self) -> int:
        return len(self.cells)

    def splits(self, n: int) -> List[str]:
        """``n`` split rows at entry-count quantiles, so each tablet
        holds about the same number of cells (R-MAT rows are skewed)."""
        starts = []
        for i in range(1, n + 1):
            row = self.cells[i * len(self.cells) // (n + 1)][0]
            if row not in starts and row != self.cells[0][0]:
                starts.append(row)
        return starts

    def load(self, conn, table: str, n_splits: int) -> None:
        """Create ``table`` with ``n_splits`` split rows and write every
        entry with value 1.  The cells stay in the tablets' memtables
        until the flush threshold, as after an ingest."""
        conn.create_table(table, splits=self.splits(n_splits))
        with conn.batch_writer(table) as w:
            for u, v in self.cells:
                w.put(u, "", v, 1)


# -- in-memory kernels (the floor) -------------------------------------------

def floor_ktruss(g: Graph, k: int) -> Matrix:
    e = incidence_unoriented(g.a.nrows, edge_list_from_adjacency(g.a))
    return ktruss(e, k)


def floor_jaccard(g: Graph) -> Matrix:
    return jaccard(g.a)


def floor_tablemult(g: Graph) -> Matrix:
    return mxm(g.a.T, g.a)


def stored_subgraph(g: Graph) -> Tuple[Matrix, np.ndarray]:
    """The graph as the edge table stores it: isolated vertices have no
    cells, so they are not vertices of the table's graph.  Returns the
    adjacency matrix over the stored vertices and their original ids."""
    r, c, v = g.a.to_coo()
    ids = np.unique(np.concatenate([r, c]))
    pos = np.searchsorted(ids, r), np.searchsorted(ids, c)
    return from_coo(len(ids), len(ids), pos[0], pos[1], v), ids


def floor_pagerank(sub: Matrix) -> np.ndarray:
    return pagerank(sub)


# -- expected results, in the shape the read_* functions return -------------

def truss_edges(kept: Matrix) -> FrozenSet[Tuple[str, str]]:
    """Both directions of every edge in a k-truss incidence matrix."""
    out: Set[Tuple[str, str]] = set()
    if kept.nrows:
        for u, v in kept.indices.reshape(-1, 2):
            out.add((vkey(int(u)), vkey(int(v))))
            out.add((vkey(int(v)), vkey(int(u))))
    return frozenset(out)


def matrix_cells(m: Matrix) -> Dict[Tuple[str, str], float]:
    r, c, v = m.to_coo()
    return {(vkey(int(i)), vkey(int(j))): float(x)
            for i, j, x in zip(r, c, v)}


def rank_vector(ids: np.ndarray, ranks: np.ndarray) -> Dict[str, float]:
    return {vkey(int(i)): float(x) for i, x in zip(ids, ranks)}


def degree_filtered(g: Graph, degrees: Dict[str, float],
                    min_degree: float) -> Matrix:
    """``g`` with the out-edges of every vertex of degree below
    ``min_degree`` removed: such a vertex is reached but never
    expanded, the rule ``graphulo.table_bfs`` applies to each
    frontier."""
    keep = np.array([degrees.get(vkey(v), 0.0) >= min_degree
                     for v in range(g.a.nrows)])
    r, c, v = g.a.to_coo()
    rows = keep[r]
    return from_coo(g.a.nrows, g.a.ncols, r[rows], c[rows], v[rows])


def expected_bfs(filtered: Matrix, seed: str, hops: int) -> Dict[str, int]:
    """Hop distance of every vertex within ``hops`` of ``seed``."""
    dist = bfs(filtered, int(seed[1:]), directed=True)
    return {vkey(i): int(d) for i, d in enumerate(dist) if 0 <= d <= hops}


# -- reading database results ----------------------------------------------

def read_cells(conn, table: str) -> Dict[Tuple[str, str], float]:
    out: Dict[Tuple[str, str], float] = {}
    for batch in conn.scanner(table).scan_columns():
        for row, qual, val in zip(batch.rows, batch.qualifiers,
                                  batch.values):
            out[(row, qual)] = decode_number(val)
    return out


def read_edges(conn, table: str) -> FrozenSet[Tuple[str, str]]:
    return frozenset(read_cells(conn, table))


def read_ranks(conn, table: str) -> Dict[str, float]:
    return {row: val for (row, _), val in read_cells(conn, table).items()}


def ranks_match(got: Dict[str, float], want: Dict[str, float]) -> bool:
    return got.keys() == want.keys() and all(
        abs(got[v] - want[v]) <= PAGERANK_TOL for v in want)


def lookup_row(conn, table: str, row: str) -> List[str]:
    """One single-row Scanner lookup: the row's qualifiers, in order."""
    scanner = conn.scanner(table).set_range(Range.exact_row(row))
    return [cell.key.qualifier for cell in scanner]
