#!/usr/bin/env python3
"""Graph analytics *inside* the (simulated) NoSQL database.

This is the paper's thesis demonstrated end to end: a power-law graph
is ingested into a simulated Accumulo instance (sorted key-value
tablets spread over tablet servers), and the analytics run *server
side* through the iterator framework:

* degree table maintenance (D4M Tdeg; one Reduce),
* TableMult — SpGEMM from table to table: both operands are scanned
  into the client-side SpGEMM engine and one reduced cell per output
  is written into a summing-combiner table (two-hop /
  common-neighbour counts),
* degree-filtered k-hop BFS via BatchScanner row fetches.

Work counters (seeks, entries read/written) are reported per op — the
simulation's substitute for cluster wall-clock numbers.

Run:  python examples/nosql_graph_analytics.py [--scale 8]
"""

import argparse

import numpy as np

from repro.assoc import AssocArray
from repro.dbsim import (
    Connector,
    assoc_to_table,
    degree_table,
    table_bfs,
    table_mult,
    table_to_assoc,
)
from repro.dbsim.key import decode_number
from repro.dbsim.server import Instance
from repro.generators import rmat_graph


def graph_to_assoc(a) -> AssocArray:
    rows, cols, vals = a.to_coo()
    return AssocArray.from_triples([f"v{u:05d}" for u in rows],
                                   [f"v{v:05d}" for v in cols], vals)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=8,
                        help="RMAT scale (2^scale vertices)")
    parser.add_argument("--servers", type=int, default=4)
    parser.add_argument("--splits", type=int, default=7)
    args = parser.parse_args()

    graph = rmat_graph(args.scale, edge_factor=8, seed=0)
    assoc = graph_to_assoc(graph)
    print(f"RMAT graph: {graph.nrows} vertices, {graph.nnz} directed entries")

    inst = Instance(n_servers=args.servers)
    conn = Connector(inst)
    print(f"\ningesting into {args.servers} tablet servers with "
          f"{args.splits} splits ...")
    assoc_to_table(conn, assoc, "edges", n_splits=args.splits)
    for server in inst.servers:
        print(f"  {server.name}: {len(server.tablets)} tablets, "
              f"{server.stats}")

    print("\n[1] server-side degree table (D4M Tdeg)")
    stats = degree_table(conn, "edges", "deg", count_entries=True)
    print(f"    cost: {stats}")
    degs = sorted((decode_number(c.value), c.key.row)
                  for c in conn.scanner("deg"))
    print(f"    max-degree vertices: {[(r, int(d)) for d, r in degs[-3:]]}")

    print("\n[2] Graphulo TableMult: two-hop counts C = AᵀA, table to table")
    stats = table_mult(conn, "edges", "edges", "twohop")
    print(f"    cost: {stats}")
    c = table_to_assoc(conn, "twohop")
    ref = assoc.T @ assoc
    print(f"    result: {c.nnz} entries; matches client-side SpGEMM: "
          f"{c.equal(ref)}")

    print("\n[3] k-hop BFS through BatchScanner row fetches")
    seed_vertex = degs[-1][1]
    before = inst.total_stats().snapshot()
    dist = table_bfs(conn, "edges", [seed_vertex], hops=3)
    print(f"    from {seed_vertex}: reached {len(dist)} vertices in ≤3 hops")
    hist = np.bincount(list(dist.values()))
    print(f"    per-hop counts: {hist.tolist()}")
    print(f"    cost: {inst.total_stats().delta(before)}")

    print("\n[4] degree-filtered BFS (skip low-degree frontier vertices)")
    before = inst.total_stats().snapshot()
    dist_f = table_bfs(conn, "edges", [seed_vertex], hops=3, min_degree=4,
                       degree_table_name="deg")
    print(f"    reached {len(dist_f)} vertices; "
          f"cost: {inst.total_stats().delta(before)}")


if __name__ == "__main__":
    main()
