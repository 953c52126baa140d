import itertools
import json
from pathlib import Path

import pytest

from perfbench import graph as G
from perfbench import workloads as W

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small():
    return G.Graph.rmat(6, 8, seed=3)


def take(stream, n):
    return list(itertools.islice(stream, n))


def stream(g, n, batch=16):
    return take(W.op_stream(g, W.SERVE["mix"], batch), n)


class TestOpStream:
    def test_same_seed_same_stream(self):
        a = stream(G.Graph.rmat(6, 8, seed=7), 300)
        b = stream(G.Graph.rmat(6, 8, seed=7), 300)
        assert a == b

    def test_other_seed_relabels_the_same_work(self):
        a = stream(G.Graph.rmat(6, 8, seed=7), 300)
        b = stream(G.Graph.rmat(6, 8, seed=8), 300)
        assert a != b
        assert [k for k, _ in a] == [k for k, _ in b]
        size = [len(x) if k == "write" else 1 for k, x in a]
        assert size == [len(x) if k == "write" else 1 for k, x in b]

    def test_writes_rewrite_distinct_existing_edges(self, small):
        existing = set(small.cells)
        for kind, arg in stream(small, 300):
            if kind == "write":
                assert len(arg) == 16 == len(set(arg))
                assert set(arg) <= existing
            else:
                assert arg in small.rows

    def test_mix_shares(self, small):
        ops = stream(small, 4000, batch=4)
        for kind, share in W.SERVE["mix"].items():
            got = sum(k == kind for k, _ in ops) / len(ops)
            assert got == pytest.approx(share, abs=0.03)


def test_seeds_give_isomorphic_graphs():
    a, b = G.Graph.rmat(6, 8, seed=1), G.Graph.rmat(6, 8, seed=2)
    assert a.cells != b.cells
    assert a.entries == b.entries
    assert sorted(map(len, a.rows.values())) == \
        sorted(map(len, b.rows.values()))


class TestOps:
    def test_exception_and_wrong_result_are_failures(self):
        ops = W.Ops()
        assert ops.run("a", lambda: 1, lambda r: r == 1) is not None
        assert ops.run("a", lambda: 2, lambda r: r == 1) is None
        assert ops.run("b", lambda: 1 / 0, lambda r: True) is None
        assert ops.attempted == {"a": 2, "b": 1}
        assert ops.failed == {"a": 1, "b": 1}
        assert ops.completed() == 1
        assert any("ZeroDivisionError" in e for e in ops.errors)


class TestAlgosAgainstOracles:
    def test_pass_matches_in_memory_kernels(self, small):
        backend = W.Backend("local", 3)
        small.load(backend.conn, "A", 3)
        ops = W.Ops()
        W.algo_pass(backend, "A", W.Expected.of(small, 4), 4, ops)
        assert ops.failed == {}, ops.errors
        assert sorted(ops.latency) == ["jaccard", "ktruss", "pagerank",
                                       "tablemult"]

    def test_wrong_oracle_fails_the_op(self, small):
        backend = W.Backend("local", 3)
        small.load(backend.conn, "A", 3)
        exp = W.Expected.of(small, 4)
        exp.tablemult = dict(exp.tablemult)
        exp.tablemult.popitem()
        ops = W.Ops()
        W.algo_pass(backend, "A", exp, 4, ops)
        assert ops.failed == {"tablemult": 1}

    def test_bfs_oracle(self, small):
        backend = W.Backend("local", 3)
        small.load(backend.conn, "E", 3)
        from repro.dbsim import graphulo
        graphulo.degree_table(backend.conn, "E", "D")
        server = W.Server(backend.conn, small, W.SERVE)
        for row in list(small.rows)[:10]:
            call, check = server.op("bfs", row)
            assert check(call())
            call, check = server.op("lookup", row)
            assert check(call())


def test_traced_metrics_are_the_declared_per_layer_metrics(small):
    """A traced pass yields exactly BENCHMARK.json's per-layer names,
    and its layer self times plus unattributed_s equal its wall."""
    backend = W.Backend("local", 3)
    small.load(backend.conn, "A", 3)
    tracer = W.LayerTracer(keep_durations=("net.client.call",))
    counters = {}
    ops = W.Ops()
    W.install_layers(tracer)
    try:
        cells = W.algo_pass(backend, "A", W.Expected.of(small, 4), 4, ops,
                            tracer, counters)
    finally:
        tracer.restore()
    assert ops.failed == {}, ops.errors
    out = W._layers(tracer, counters, cells, ops.busy_s(True), 1.0,
                    {"ktruss": 1.0})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(out) == {m["name"] for m in spec["per_layer"]}
    budget = sum(out[f"layer.{layer}.self_s"] for layer in W.LAYERS)
    assert budget + out["unattributed_s"] == pytest.approx(out["trace.wall_s"])
    assert out["graphulo.table_mult.calls"] > 0
    assert out["dbsim.client.put.calls"] > 0
    # every wrapper is gone again
    from repro.dbsim import client
    assert not hasattr(client.BatchWriter.put, "__wrapped__")


class TestSetUps:
    def test_cheap_set_ups_are_sampled_between_operations(self):
        setups = W.SetUps("local", 3, lambda conn: None)
        setups.first()
        assert len(setups.times) == W.SETUPS
        setups.probe()
        assert len(setups.times) > W.SETUPS
        assert sum(setups.times[W.SETUPS:]) >= W.PROBE_S

    def test_slow_set_ups_are_not_repeated(self):
        import time
        setups = W.SetUps("local", 3, lambda conn: time.sleep(W.PROBE_S))
        setups.first()
        setups.probe()
        assert len(setups.times) == W.SETUPS
