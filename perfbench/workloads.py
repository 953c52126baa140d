"""The three workloads.

All are closed loop with one client: each call waits for the previous
one, the way one analyst waits on a Graphulo job.

* ``algos-local`` — in-process ``Instance(n_servers=3)``; each pass runs
  Table k-truss, Table Jaccard, TableMult (AᵀA, engine) and Table
  PageRank on an R-MAT scale-8 edge table.  Storage, iterators,
  combiner compaction and the BatchWriter do the work; ``repro.net``
  does none.
* ``algos-cluster`` — the same passes on a 3-process ``LocalCluster``:
  the gap to ``algos-local`` is the RPC fabric's cost.
* ``serve-mixed`` — a 3-process cluster holding an R-MAT scale-10 edge
  table and its degree table, driven by a seeded stream of 2-hop
  degree-filtered BFS, single-row lookups and 64-cell batches that
  rewrite existing edges.  No TableMult and no combiner compaction, so
  storage-engine changes should read no change here.  A lookup's cost
  grows with the memtable it scans, from ~8 ms after a flush to ~50 ms
  before the next, so a run measures a fixed number of operations (see
  :data:`SERVE` ``ops_per_run_s``), not the operations that fit in its
  seconds: otherwise the host's speed would decide which stretch of
  the flush cycle a run measures.

``ops_per_s`` and ``setup_s`` are scaled to the nominal host speed by
a sampler thread (``hostspeed.py``): pinned with the workload to one
CPU on ``algos-local``, where all work runs on the benchmark's thread,
and unpinned on a cluster, whose client and servers share all CPUs.
The metrics are also reported as measured (``*_raw``).

Every database result is checked against the in-memory kernel on the
same graph; a wrong result or an exception is a failed operation.
"""

from __future__ import annotations

import multiprocessing
import resource
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from perfbench import graph as G
from perfbench import stats
from perfbench import hostspeed
from perfbench.hostspeed import HostSpeed
from perfbench.layers import ROOT, LayerTracer

from repro.dbsim import Connector, Instance, graphulo, graphulo_algorithms
from repro.obs.metrics import MetricsRegistry

#: set-ups before the first operation; ``setup_s`` is the median of
#: all set-ups of a run
SETUPS = 3
#: set-up time spent between operations, when one set-up takes less:
#: the host's speed drifts over seconds, so a millisecond in-process
#: set-up is sampled across the whole run, not in one burst
PROBE_S = 0.1

ALGOS = {"scale": 8, "edge_factor": 8, "splits": 3, "servers": 3, "k": 4,
         "warmup_scale": 6}
SERVE = {"scale": 10, "edge_factor": 8, "splits": 2, "servers": 3,
         "hops": 2, "min_degree": 4, "batch": 64, "warmup_ops": 60,
         "trace_block": 40,
         # measured operations per second of --seconds: about what a
         # 2-vCPU host completes
         "ops_per_run_s": 100,
         "mix": {"bfs": 0.04, "lookup": 0.16, "write": 0.8}}

#: repetitions of each in-memory kernel; the floor is their median
FLOOR_REPS = 5

#: OpStats counters, reported as ``dbsim.<name>``
OPSTATS = ("seeks", "entries_read", "entries_written", "flushes",
           "compactions")
#: client registry counters, reported under the same name
CLIENT_COUNTERS = ("net.client.requests", "net.client.retries",
                   "net.client.busy_retries", "net.client.scan_resumes",
                   "net.client.bytes_sent", "net.client.bytes_received")
SERVER_COUNTERS = ("net.server.busy_rejects", "net.server.pushdown.stacks",
                   "net.server.pushdown.cells_folded")


# -- operation accounting ---------------------------------------------------

@dataclass
class Ops:
    """Attempted / failed operations and latencies, per kind."""

    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    latency: Dict[str, List[float]] = field(default_factory=dict)
    #: latencies of traced operations, kept apart: tracing slows them
    traced: Dict[str, List[float]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: ``(start, end)`` of each untraced operation, of every kind
    spans: List[Tuple[float, float]] = field(default_factory=list)

    def run(self, kind: str, call: Callable[[], object],
            check: Callable[[object], bool],
            tracer: Optional[LayerTracer] = None,
            window: Optional["Window"] = None) -> Optional[float]:
        """Time ``call()``, then verify its result with ``check``.
        Returns the latency, or ``None`` when the op failed: raised, or
        returned a result the oracle rejects.  A ``window`` is closed
        between the call and the check, so its counters leave out the
        oracle's reads."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = call()
            else:
                with tracer.span(ROOT):
                    result = call()
            elapsed = time.perf_counter() - start
            if window is not None:
                window.close()
            ok = check(result)
        except Exception as exc:  # noqa: BLE001 - a failure, not a crash
            self.fail(kind, f"{kind}: {type(exc).__name__}: {exc}")
            return None
        if not ok:
            self.fail(kind, f"{kind}: result differs from the oracle")
            return None
        into = self.latency if tracer is None else self.traced
        into.setdefault(kind, []).append(elapsed)
        if tracer is None:
            self.spans.append((start, start + elapsed))
        return elapsed

    def fail(self, kind: str, message: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def discard(self) -> None:
        """Forget latencies (after a warm-up) but keep failures."""
        self.latency.clear()
        self.traced.clear()
        self.spans.clear()

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def completed(self) -> int:
        return sum(len(v) for v in self.latency.values())

    def busy_s(self, traced: bool = False) -> float:
        """Summed latency of the untraced (or the traced) operations."""
        lat = self.traced if traced else self.latency
        return sum(sum(v) for v in lat.values())

    def ops_per_s(self, speed: Optional[HostSpeed] = None) -> float:
        """Untraced operations per second of their summed latency;
        with ``speed``, of their summed time at the nominal host
        speed."""
        if speed is None:
            return stats.ratio(len(self.spans),
                               sum(end - start for start, end in self.spans))
        return stats.ratio(len(self.spans),
                           sum(speed.scaled(*span) for span in self.spans))


# -- backends ---------------------------------------------------------------

class Backend:
    """An in-process instance or a freshly booted process cluster."""

    def __init__(self, kind: str, n_servers: int):
        self.metrics = MetricsRegistry()
        self.cluster = None
        if kind == "local":
            self.conn = Connector(Instance(n_servers=n_servers,
                                           metrics=self.metrics))
        else:
            from repro.net.cluster import LocalCluster
            self.cluster = LocalCluster(n_servers=n_servers).start()
            try:
                self.conn = self.cluster.connect(metrics=self.metrics)
            except BaseException:
                self.cluster.stop()
                raise

    def opstats(self) -> Dict[str, int]:
        return self.conn.instance.total_stats().as_dict()

    def client_counters(self) -> Dict[str, float]:
        exported = self.metrics.export()
        return {n: exported.get(n, 0) for n in CLIENT_COUNTERS}

    def server_metrics(self) -> Dict[str, dict]:
        if self.cluster is None:
            return {}
        return self.conn.instance.cluster_metrics()["servers"]

    def close(self) -> None:
        """Stop the cluster and check that no server process or port
        outlives it."""
        if self.cluster is None:
            return
        try:
            self.conn.close()
        finally:
            self.cluster.stop()
        survivors = multiprocessing.active_children()
        if survivors:
            raise RuntimeError(f"server processes survived stop: "
                               f"{[p.name for p in survivors]}")
        for addr in [self.cluster.manager_addr, *self.cluster.server_addrs]:
            with socket.socket() as sock:
                sock.settimeout(1.0)
                if sock.connect_ex(tuple(addr)) == 0:
                    raise RuntimeError(f"server port {addr} still open "
                                       f"after stop")
        self.cluster = None


class SetUps:
    """Boots a backend and loads it, timing each set-up."""

    def __init__(self, kind: str, n_servers: int,
                 prepare: Callable[[Connector], None]):
        self.kind, self.n_servers, self.prepare = kind, n_servers, prepare
        self.times: List[float] = []
        self.spans: List[Tuple[float, float]] = []

    def _one(self) -> Backend:
        start = time.perf_counter()
        backend = Backend(self.kind, self.n_servers)
        try:
            self.prepare(backend.conn)
        except BaseException:
            backend.close()
            raise
        end = time.perf_counter()
        self.times.append(end - start)
        self.spans.append((start, end))
        return backend

    def first(self) -> Backend:
        """Set up :data:`SETUPS` times; keep the last backend."""
        for _ in range(SETUPS - 1):
            self._one().close()
        return self._one()

    def setup_s(self, speed: Optional[HostSpeed] = None) -> float:
        """Median set-up time; with ``speed``, at the nominal host
        speed."""
        if speed is None:
            return stats.median(self.times)
        return stats.median([speed.scaled(*span) for span in self.spans])

    def probe(self) -> None:
        """Between operations: more set-ups, for :data:`PROBE_S` in
        all, unless one set-up takes longer than that."""
        if stats.median(self.times) >= PROBE_S:
            return
        spent = 0.0
        while spent < PROBE_S:
            before = len(self.times)
            self._one().close()
            spent += self.times[before]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer tracing ------------------------------------------------------

def install_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry points of each layer (see ``layers.py``)."""
    import repro.net.cells as cells
    import repro.sparse.spgemm as spgemm
    from repro.dbsim import client, tablet
    from repro.net import client as net_client

    tracer.patch_function(spgemm, "mxm", "sparse.mxm")
    for fn in ("table_mult", "table_bfs", "degree_table"):
        tracer.patch_function(graphulo, fn, f"graphulo.{fn}")
    for fn in ("table_intersect", "table_ktruss", "table_jaccard",
               "table_pagerank"):
        tracer.patch_function(graphulo_algorithms, fn, f"graphulo.{fn}")
    bw = client.BatchWriter
    for meth in ("put", "put_cell"):
        tracer.patch(bw, meth, tracer.timed(bw.__dict__[meth],
                                            "dbsim.client.put"))
    tracer.patch(bw, "flush", tracer.timed(bw.__dict__["flush"],
                                           "dbsim.client.flush"))
    for cls in (client.Scanner, client.BatchScanner):
        tracer.patch(cls, "__iter__", tracer.timed_iter(
            cls.__dict__["__iter__"], "dbsim.client.scan", lambda c: 1))
        tracer.patch(cls, "scan_columns", tracer.timed_iter(
            cls.__dict__["scan_columns"], "dbsim.client.scan", len))
    conn_cls = client.Connector
    tracer.patch(conn_cls, "compact", tracer.timed(
        conn_cls.__dict__["compact"], "dbsim.client.compact"))
    for meth in ("create_table", "delete_table", "table_exists", "flush"):
        tracer.patch(conn_cls, meth, tracer.timed(
            conn_cls.__dict__[meth], "dbsim.client.admin"))
    tracer.patch(tablet.Tablet, "compact", tracer.timed(
        tablet.Tablet.__dict__["compact"], "dbsim.tablet.compact"))
    # unary calls; pipelined write sends, and the event-loop handoffs
    # that wait for scan chunks and write acks, are the rest of the RPC
    # client's time
    for owner, meth, span in (
            (net_client.RpcCore, "call", "net.client.call"),
            (net_client.RpcCore, "submit_mutate", "net.client.submit"),
            (net_client.RpcCore, "open_stream", "net.client.open_stream"),
            (net_client.RpcCore, "run", "net.client.wait"),
            (net_client.WritePipeline, "drain", "net.client.wait")):
        tracer.patch(owner, meth, tracer.timed(owner.__dict__[meth], span))
    tracer.patch_function(cells, "encode_block", "net.cells.encode")
    tracer.patch_function(cells, "decode_batch", "net.cells.decode")


#: span-name prefix → layer, for the self-time budget
LAYERS = ("sparse", "graphulo", "dbsim.client", "dbsim.tablet",
          "net.client", "net.cells")


def layer_of(span: str) -> str:
    if span == ROOT:
        return "unattributed"
    for layer in LAYERS:
        if span.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span!r} belongs to no layer")


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """Per-layer metrics read off the spans."""
    get = tracer.get
    rpc = get("net.client.call").durations
    out = {
        "sparse.mxm.calls": get("sparse.mxm").calls,
        "sparse.mxm.s": get("sparse.mxm").total_s,
        "graphulo.table_mult.calls": get("graphulo.table_mult").calls,
        "graphulo.table_mult.s": get("graphulo.table_mult").total_s,
        "graphulo.table_mult.self_s": get("graphulo.table_mult").self_s,
        "graphulo.table_intersect.s": get("graphulo.table_intersect").total_s,
        "graphulo.table_bfs.s": get("graphulo.table_bfs").total_s,
        "graphulo.degree_table.s": get("graphulo.degree_table").total_s,
        "dbsim.client.put.calls": get("dbsim.client.put").calls,
        "dbsim.client.put.s": get("dbsim.client.put").total_s,
        "dbsim.client.flush.calls": get("dbsim.client.flush").calls,
        "dbsim.client.flush.s": get("dbsim.client.flush").total_s,
        "dbsim.client.scan.cells": get("dbsim.client.scan").items,
        "dbsim.client.scan.s": get("dbsim.client.scan").total_s,
        "dbsim.client.compact.calls": get("dbsim.client.compact").calls,
        "dbsim.client.compact.s": get("dbsim.client.compact").total_s,
        "dbsim.client.admin.calls": get("dbsim.client.admin").calls,
        "dbsim.client.admin.s": get("dbsim.client.admin").total_s,
        "dbsim.tablet.compact.s": get("dbsim.tablet.compact").total_s,
        "net.client.call.calls": get("net.client.call").calls,
        "net.client.call.s": get("net.client.call").total_s,
        "net.client.rpc_p50_us": 1e6 * stats.median(rpc) if rpc else 0.0,
        "net.cells.encode_s": get("net.cells.encode").total_s,
        "net.cells.decode_s": get("net.cells.decode").total_s,
    }
    budget = tracer.self_by_layer(layer_of)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = budget.get(layer, 0.0)
    out["unattributed_s"] = budget.get("unattributed", 0.0)
    out["trace.wall_s"] = get(ROOT).total_s
    return out


class Window:
    """Counters read before and after the measured operations."""

    def __init__(self, backend: Backend,
                 into: Optional[Dict[str, float]] = None):
        self.backend = backend
        self.into = into
        self.before = (backend.opstats(), backend.client_counters(),
                       _server_counters(backend.server_metrics()))

    def close(self) -> Dict[str, float]:
        """The deltas since opening, also added into ``into``."""
        out = self._deltas()
        if self.into is not None:
            _accumulate(self.into, out)
        return out

    def _deltas(self) -> Dict[str, float]:
        b = self.backend
        ops0, cli0, srv0 = self.before
        ops1 = b.opstats()
        out = {f"dbsim.{k}": v
               for k, v in stats.counter_delta(ops0, ops1, OPSTATS).items()}
        out.update(stats.counter_delta(cli0, b.client_counters(),
                                       CLIENT_COUNTERS))
        servers = b.server_metrics()
        out.update(stats.counter_delta(srv0, _server_counters(servers),
                                       SERVER_COUNTERS))
        out.update(_server_latency(servers))
        return out


def _accumulate(total: Dict[str, float], part: Dict[str, float]) -> None:
    """Add the counters of one traced pass into ``total``; latency
    percentiles are cumulative already, so the latest replaces."""
    for name, value in part.items():
        if name.endswith("_us"):
            total[name] = value
        else:
            total[name] = total.get(name, 0) + value


def _server_counters(servers: Dict[str, dict]) -> Dict[str, float]:
    return {n: sum(m.get(n, 0) for m in servers.values())
            for n in SERVER_COUNTERS}


def _server_latency(servers: Dict[str, dict]) -> Dict[str, float]:
    """Queue and service time percentiles of the slowest server, from
    the servers' own histograms (which cover the cluster's whole life,
    set-up included)."""
    out = {}
    for hist, label in (("net.server.queue_seconds", "queue"),
                        ("net.server.service_seconds", "service")):
        for q in ("p50", "p99"):
            vals = [m[hist][q] for m in servers.values() if hist in m]
            out[f"net.server.{label}_{q}_us"] = 1e6 * max(vals, default=0.0)
    return out


# -- results ----------------------------------------------------------------

@dataclass
class Result:
    workload: str
    params: dict
    ops: Ops
    setup_times: List[float]
    #: named metrics: name → (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: Optional[float], unit: str) -> None:
        if value is not None:
            self.metrics[name] = (value, unit)


def _common(res: Result, setups: SetUps, speed: HostSpeed) -> None:
    """The metrics every workload reports; ``speed`` is the stopped
    sampler of the run."""
    ops = res.ops
    res.put("setup_s", setups.setup_s(speed), "s")
    res.put("ops_per_s", ops.ops_per_s(speed), "1/s")
    # the same, as measured, and the host speed they were scaled by
    res.put("setup_raw_s", setups.setup_s(), "s")
    res.put("ops_per_s_raw", ops.ops_per_s(), "1/s")
    res.put("host_speed", stats.median(speed.rates) / hostspeed.NOMINAL,
            "x")
    res.put("error_rate", stats.ratio(ops.total_failed,
                                      ops.total_attempted), "ratio")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")


# -- algos-local / algos-cluster --------------------------------------------

@dataclass
class Expected:
    """Oracle results of one graph, from the in-memory kernels."""

    truss: frozenset
    jaccard: dict
    tablemult: dict
    ranks: dict

    @classmethod
    def of(cls, g: G.Graph, k: int) -> "Expected":
        sub, ids = G.stored_subgraph(g)
        return cls(G.truss_edges(G.floor_ktruss(g, k)),
                   G.matrix_cells(G.floor_jaccard(g)),
                   G.matrix_cells(G.floor_tablemult(g)),
                   G.rank_vector(ids, G.floor_pagerank(sub)))


def floor_times(g: G.Graph, k: int) -> Dict[str, float]:
    """Median wall time of each in-memory kernel on ``g``."""
    sub, _ = G.stored_subgraph(g)
    kernels = {"ktruss": lambda: G.floor_ktruss(g, k),
               "jaccard": lambda: G.floor_jaccard(g),
               "tablemult": lambda: G.floor_tablemult(g),
               "pagerank": lambda: G.floor_pagerank(sub)}
    out = {}
    for name, fn in kernels.items():
        times = []
        for _ in range(FLOOR_REPS):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        out[name] = stats.median(times)
    return out


def algo_pass(backend: Backend, table: str, exp: Expected, k: int,
              ops: Ops, tracer: Optional[LayerTracer] = None,
              counters: Optional[Dict[str, float]] = None,
              between: Callable[[], None] = lambda: None) -> int:
    """One pass of the four algorithms over ``table``, each result
    checked and then deleted, and ``between()`` called after each.
    With ``counters``, each call's counter deltas are added into it.
    Returns the result cells checked."""
    conn = backend.conn
    result_cells = 0

    def check(read, out, want):
        def verify(_):
            nonlocal result_cells
            got = read(conn, out)
            result_cells += len(got)
            return got == want
        return verify

    def check_ranks(_):
        nonlocal result_cells
        got = G.read_ranks(conn, "PR")
        result_cells += len(got)
        return G.ranks_match(got, exp.ranks)

    steps = [
        ("ktruss", lambda: graphulo_algorithms.table_ktruss(
            conn, table, "T", k), check(G.read_edges, "T", exp.truss), "T"),
        ("jaccard", lambda: graphulo_algorithms.table_jaccard(
            conn, table, "J"), check(G.read_cells, "J", exp.jaccard), "J"),
        ("tablemult", lambda: graphulo.table_mult(
            conn, table, table, "M", via="engine"),
         check(G.read_cells, "M", exp.tablemult), "M"),
        ("pagerank", lambda: graphulo_algorithms.table_pagerank(
            conn, table, "PR"), check_ranks, "PR"),
    ]
    for kind, call, verify, out in steps:
        window = Window(backend, counters) if counters is not None else None
        ops.run(kind, call, verify, tracer, window)
        try:
            if conn.table_exists(out):
                conn.delete_table(out)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            ops.fail(kind, f"{kind}: cleanup: {exc!r}")
        between()
    return result_cells


def run_algos(kind: str, seed: int, seconds: float, trace: bool) -> Result:
    p = ALGOS
    g = G.Graph.rmat(p["scale"], p["edge_factor"], seed)
    warm = G.Graph.rmat(p["warmup_scale"], p["edge_factor"], seed)
    exp, warm_exp = Expected.of(g, p["k"]), Expected.of(warm, p["k"])
    floor = floor_times(g, p["k"])

    def prepare(conn):
        g.load(conn, "A", p["splits"])

    # in-process, all work runs on this thread: pin it and the sampler
    # to one CPU, so the sampler measures the CPU the work runs on
    speed = HostSpeed(pin=kind == "local").start()
    try:
        setups = SetUps(kind, p["servers"], prepare)
        backend = setups.first()
        ops = Ops()
        res = Result(f"algos-{kind}", dict(p, entries=g.entries,
                                           splits_at=g.splits(p["splits"])),
                     ops, setups.times)
        try:
            # discarded warm-up pass: the same code paths on a small graph
            warm.load(backend.conn, "W", p["splits"])
            algo_pass(backend, "W", warm_exp, p["k"], ops)
            backend.conn.delete_table("W")
            ops.discard()
            tracer = LayerTracer(keep_durations=("net.client.call",)) \
                if trace else None
            traced_wall = untraced_wall = 0.0
            result_cells = 0
            traced_counters: Dict[str, float] = {}
            window = Window(backend)
            start = time.perf_counter()
            passes = 0
            while passes == 0 or time.perf_counter() - start < seconds \
                    or (trace and passes < 2):
                # traced runs alternate untraced and traced passes, so the
                # tracing overhead is measured on the same host phase
                traced = trace and passes % 2 == 1
                busy0 = ops.busy_s(traced)
                if traced:
                    install_layers(tracer)
                try:
                    cells = algo_pass(backend, "A", exp, p["k"], ops,
                                      tracer if traced else None,
                                      traced_counters if traced else None,
                                      setups.probe)
                finally:
                    if traced:
                        tracer.restore()
                if traced:
                    traced_wall += ops.busy_s(True) - busy0
                    result_cells += cells
                else:
                    untraced_wall += ops.busy_s() - busy0
                passes += 1
            counters = window.close()
        finally:
            backend.close()
    finally:
        speed.stop()

    res.notes["passes"] = passes
    _common(res, setups, speed)
    for name in ("ktruss", "jaccard", "tablemult", "pagerank"):
        lat = ops.latency.get(name)
        res.put(f"{name}_s", stats.median(lat) if lat else None, "s")
        res.put(f"{name}_x_floor",
                stats.ratio(stats.median(lat), floor[name]) if lat else None,
                "x")
        res.put(f"floor.{name}_s", floor[name], "s")
    res.put("flushes", counters["dbsim.flushes"], "count")
    if trace:
        res.layers = _layers(tracer, traced_counters, result_cells,
                             traced_wall / (passes // 2),
                             untraced_wall / (passes - passes // 2), floor)
    return res


def _layers(tracer: LayerTracer, counters: Dict[str, float],
            result_cells: int, traced_unit_s: float, untraced_unit_s: float,
            floor: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric.  ``*_unit_s`` are the mean wall times of
    one traced and one untraced unit of work (a pass, or an op), whose
    ratio is the tracing overhead."""
    out = layer_metrics(tracer)
    budget = sum(out[f"layer.{layer}.self_s"] for layer in LAYERS) \
        + out["unattributed_s"]
    if abs(budget - out["trace.wall_s"]) > 1e-6 * max(out["trace.wall_s"], 1):
        raise RuntimeError(f"layer self times sum to {budget}s, "
                           f"not the traced wall {out['trace.wall_s']}s")
    out.update(counters)
    out["dbsim.read_amp"] = stats.read_amp(counters["dbsim.entries_read"],
                                           out["dbsim.client.scan.cells"])
    out["dbsim.write_amp"] = stats.write_amp(
        counters["dbsim.entries_written"], result_cells)
    out["obs.trace_overhead_pct"] = stats.overhead_pct(traced_unit_s,
                                                       untraced_unit_s)
    for name in ("ktruss", "jaccard", "pagerank"):
        out[f"floor.{name}_s"] = floor.get(name, 0.0)
    return out


# -- serve-mixed ------------------------------------------------------------

#: seed of the serve-mixed operation sequence (see :func:`op_stream`)
STREAM_SEED = 11


def op_stream(g: G.Graph, mix: Dict[str, float],
              batch: int) -> Iterator[Tuple[str, object]]:
    """The serve-mixed operation stream: ``("bfs", vertex)``,
    ``("lookup", row)`` or ``("write", [(row, qualifier), ...])``.  A
    write rewrites ``batch`` distinct existing edges, so the graph
    never changes.

    Kinds and positions are drawn from :data:`STREAM_SEED` and index
    the graph's generator-ordered vertex and edge lists; the run's seed
    enters through the graph's vertex labels.  Every seed thus runs the
    same work on a different key layout, and a BFS from a hub in one
    run is a BFS from the same hub, relabelled, in the next."""
    rng = np.random.default_rng(STREAM_SEED)
    kinds = sorted(mix)
    weights = np.array([mix[k] for k in kinds], dtype=float)
    weights /= weights.sum()
    while True:
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        if kind == "write":
            idx = rng.choice(len(g.base_cells), size=batch, replace=False)
            yield kind, sorted(g.base_cells[i] for i in idx)
        else:
            yield kind, g.base_rows[int(rng.integers(len(g.base_rows)))]


class Server:
    """The serve-mixed operations against one connection."""

    def __init__(self, conn: Connector, g: G.Graph, p: dict):
        self.conn, self.g, self.p = conn, g, p
        self.degrees = {row: float(len(nbrs)) for row, nbrs in g.rows.items()}
        self.filtered = G.degree_filtered(g, self.degrees, p["min_degree"])
        self.written = 0

    def op(self, kind: str, arg) -> Tuple[Callable, Callable]:
        conn, p = self.conn, self.p
        if kind == "bfs":
            want = G.expected_bfs(self.filtered, arg, p["hops"])
            return (lambda: graphulo.table_bfs(
                conn, "E", [arg], p["hops"], min_degree=p["min_degree"],
                degree_table_name="D"), lambda got: got == want)
        if kind == "lookup":
            want = self.g.rows[arg]
            return (lambda: G.lookup_row(conn, "E", arg),
                    lambda got: got == want)

        def write():
            with conn.batch_writer("E") as w:
                for u, v in arg:
                    w.put(u, "", v, 1)
            self.written += len(arg)
        return write, lambda _: True


def run_serve(seed: int, seconds: float, trace: bool) -> Result:
    p = SERVE
    g = G.Graph.rmat(p["scale"], p["edge_factor"], seed)
    tracer = LayerTracer(keep_durations=("net.client.call",)) \
        if trace else None

    def prepare(conn):
        g.load(conn, "E", p["splits"])
        graphulo.degree_table(conn, "E", "D")

    speed = HostSpeed(pin=False).start()
    try:
        setups = SetUps("cluster", p["servers"], prepare)
        backend = setups.first()
        ops = Ops()
        res = Result("serve-mixed", dict(p, entries=g.entries,
                                         splits_at=g.splits(p["splits"])),
                     ops, setups.times)
        try:
            conn = backend.conn
            server = Server(conn, g, p)
            want_deg = {(row, "deg"): d for row, d in server.degrees.items()}
            traced_counters: Dict[str, float] = {}
            traced_written = 0
            ops.run("degree_table", lambda: G.read_cells(conn, "D"),
                    lambda got: got == want_deg)
            if trace:
                # the degree table is built at set-up; build a copy once
                # under the tracer so its layer time is measured
                install_layers(tracer)
                try:
                    ops.run("degree_table",
                            lambda: graphulo.degree_table(conn, "E", "Dcopy"),
                            lambda _: True, tracer,
                            Window(backend, traced_counters))
                finally:
                    tracer.restore()
                traced_written += len(server.degrees)
                conn.delete_table("Dcopy")
            stream = op_stream(g, p["mix"], p["batch"])
            for _ in range(p["warmup_ops"]):
                kind, arg = next(stream)
                ops.run(kind, *server.op(kind, arg))
            ops.discard()
            window = Window(backend)
            traced_wall = untraced_wall = 0.0
            traced_n = untraced_n = 0
            n_ops = max(1, round(seconds * p["ops_per_run_s"]))
            block = done = 0
            while done < n_ops or (trace and block < 2):
                traced = trace and block % 2 == 1
                if traced:
                    traced_window = Window(backend, traced_counters)
                    written_before = server.written
                    install_layers(tracer)
                try:
                    for _ in range(p["trace_block"]):
                        kind, arg = next(stream)
                        done += 1
                        lat = ops.run(kind, *server.op(kind, arg),
                                      tracer if traced else None)
                        if lat is None:
                            continue
                        if traced:
                            traced_wall += lat
                            traced_n += 1
                        else:
                            untraced_wall += lat
                            untraced_n += 1
                finally:
                    if traced:
                        tracer.restore()
                if traced:
                    traced_window.close()
                    traced_written += server.written - written_before
                block += 1
            counters = window.close()
            # rewrites must leave the edge table exactly the loaded graph
            want_cells = {cell: 1.0 for cell in g.cells}
            ops.run("verify", lambda: G.read_cells(conn, "E"),
                    lambda got: got == want_cells)
        finally:
            backend.close()
    finally:
        speed.stop()

    _common(res, setups, speed)
    # p99s are not reported: a write p99 does not repeat within a
    # tenth from run to run, and a run has too few lookups for one
    for kind, qs in (("bfs", (50, 90)), ("lookup", (50, 90)),
                     ("write", (50, 90))):
        lat = [1e3 * x for x in ops.latency.get(kind, [])]
        for q in qs:
            res.put(f"{kind}_p{q}_ms", stats.tail(lat, q) if lat else None,
                    "ms")
        res.notes[f"{kind}_samples"] = len(lat)
    res.put("flushes", counters["dbsim.flushes"], "count")
    if trace:
        per_op = (stats.ratio(traced_wall, traced_n),
                  stats.ratio(untraced_wall, untraced_n))
        res.layers = _layers(tracer, traced_counters, traced_written,
                             *per_op, {})
    return res


WORKLOADS = {
    "algos-local": lambda seed, sec, tr: run_algos("local", seed, sec, tr),
    "algos-cluster": lambda seed, sec, tr: run_algos("cluster", seed, sec,
                                                     tr),
    "serve-mixed": run_serve,
}
