"""Integration: live clusters, fault injection, crash/recover, and the
bit-identity acceptance scenario.

Thread-mode clusters (``processes=False``) carry most of the load —
same sockets, same wire protocol, no spawn cost.  One test boots real
OS processes end to end.
"""

import socket
import threading

import pytest

from repro.cli import main as cli_main
from repro.dbsim.client import Connector
from repro.dbsim.graphulo import create_combiner_table
from repro.dbsim.key import Range
from repro.dbsim.server import Instance, TableConfig
from repro.net import wire
from repro.net.client import RemoteConnector, RetryPolicy, RpcCore
from repro.net.cluster import LocalCluster
from repro.net.server import SCAN_CHUNK_CELLS
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def cluster():
    """Fault-free 2-server thread-mode cluster shared by a module's
    worth of read-mostly tests (each test uses its own tables)."""
    with LocalCluster(n_servers=2, processes=False) as c:
        yield c


def _fresh(cluster, **kw):
    conn = cluster.connect(**kw)
    for table in list(conn.instance.list_tables()):
        conn.instance.delete_table(table)
    return conn


class TestClusterBasics:
    def test_status_reports_every_server(self, cluster):
        conn = _fresh(cluster)
        try:
            status = conn.instance.status()
            assert sorted(status["servers"]) == ["tserver0", "tserver1"]
            assert all(not s["crashed"]
                       for s in status["servers"].values())
        finally:
            conn.close()

    def test_write_scan_roundtrip(self, cluster):
        conn = _fresh(cluster)
        try:
            conn.create_table("t", splits=["m"])
            with conn.batch_writer("t") as w:
                for i in range(40):
                    w.put(f"r{i:02d}", "f", "q", i)
            cells = list(conn.scanner("t"))
            assert [c.key.row for c in cells] == \
                [f"r{i:02d}" for i in range(40)]
            assert [c.value for c in cells] == [str(i) for i in range(40)]
        finally:
            conn.close()

    def test_combiner_config_crosses_the_wire(self, cluster):
        conn = _fresh(cluster)
        try:
            create_combiner_table(conn, "sums", "sum")
            with conn.batch_writer("sums") as w:
                w.put("a", "", "n", 2)
            with conn.batch_writer("sums") as w:
                w.put("a", "", "n", 5)
            assert [c.value for c in conn.scanner("sums")] == ["7"]
        finally:
            conn.close()

    def test_arbitrary_table_iterator_rejected_client_side(self, cluster):
        conn = _fresh(cluster)
        try:
            with pytest.raises(ValueError, match="not wire-serializable"):
                conn.create_table(
                    "bad", TableConfig(table_iterators=(lambda s: s,)))
        finally:
            conn.close()

    def test_json_write_batch_rejected_and_applies_nothing(self, cluster):
        """WRITE_BATCH carries a binary cell block; a dict payload from
        a hand-rolled client is a typed ERROR reply, not a write."""
        conn = _fresh(cluster)
        try:
            conn.create_table("raw")
            tablet = conn.instance.locate("raw", "r")
            with socket.create_connection(tablet.addr, timeout=5.0) as sock:
                wire.send_frame(sock, wire.WRITE_BATCH, {
                    "table": "raw", "tablet_id": tablet.tablet_id,
                    "mutations": [["r", "", "q", "1", False]]}, req=1)
                code, payload, _, _, req = wire.recv_frame(sock)
            assert (code, req) == (wire.ERROR, 1)
            assert "cell block" in payload["message"]
            assert list(conn.scanner("raw")) == []
        finally:
            conn.close()

    def test_crash_recover_preserves_durable_writes(self, cluster):
        conn = _fresh(cluster)
        try:
            conn.create_table("d")
            with conn.batch_writer("d") as w:
                for i in range(60):
                    w.put(f"k{i:02d}", "", "c", i)
            before = list(conn.scanner("d"))
            for name in cluster.server_names:  # memtables lost, WAL kept
                conn.instance.crash_server(name)
            status = conn.instance.status()
            assert all(s["crashed"] for s in status["servers"].values())
            for name in cluster.server_names:
                conn.instance.recover_server(name, True)
            assert list(conn.scanner("d")) == before
        finally:
            conn.close()


    def test_batch_scanner_local_callables_run_per_range(self, cluster):
        """Local scan-iterator callables cannot ride the columnar
        stream, so a remote BatchScanner with them scans per range
        (and its span says so) with the same cells as the local
        backend."""
        from repro.dbsim.iterators import SortedKVIterator
        from repro.obs import trace

        class Upper(SortedKVIterator):
            def __init__(self, src):
                self._src = src

            def seek(self, rng, columns=None):
                self._src.seek(rng, columns)

            def has_top(self):
                return self._src.has_top()

            def top(self):
                cell = self._src.top()
                return type(cell)(cell.key, cell.value.upper())

            def advance(self):
                self._src.advance()

        ranges = [Range.exact_row("r03"), Range("r10", "r13")]
        local = Connector(Instance(n_servers=1))
        conn = _fresh(cluster)
        try:
            for c in (local, conn):
                c.create_table("bs", splits=["r08"])
                with c.batch_writer("bs") as w:
                    for i in range(20):
                        w.put(f"r{i:02d}", "f", "q", f"v{i}")
            want = list(local.batch_scanner("bs", [Upper],
                                            coalesce=True)
                        .set_ranges(ranges))
            sink = trace.InMemorySink()
            trace.enable(sink)
            try:
                got = list(conn.batch_scanner("bs", [Upper], coalesce=True)
                           .set_ranges(ranges))
            finally:
                trace.disable()
                trace.set_sink(trace.NullSink())
            assert [(c.key.row, c.value) for c in got] == \
                [("r03", "V3"), ("r10", "V10"), ("r11", "V11"),
                 ("r12", "V12")]
            assert [(c.key.row, c.value) for c in got] == \
                [(c.key.row, c.value) for c in want]
            (span,) = sink.spans("dbsim.batch_scan")
            assert span["attrs"]["coalesced"] is False
            assert span["attrs"]["entries"] == 4
        finally:
            conn.close()

class TestClientCounters:
    #: every ``net.client.*`` counter the client core increments
    COUNTERS = ("requests", "retries", "timeouts", "relocates", "errors",
                "busy_retries", "pool_evictions", "stale_frames",
                "sampled_out", "bytes_sent", "bytes_received", "pool_hits",
                "pool_misses", "scan_chunks", "scan_resumes",
                "stream_overruns")

    def test_every_counter_preregistered_at_zero(self):
        """A fresh core's export lists each counter at 0, so a reader
        (perfbench, ``repro top``, a test) never hits a missing key
        before the first retry, pooled connection or scan."""
        registry = MetricsRegistry()
        core = RpcCore(metrics=registry)
        try:
            export = registry.export()
        finally:
            core.close()
        for name in self.COUNTERS:
            assert export.get(f"net.client.{name}") == 0, name


class TestFaultedCluster:
    def _run(self, specs, seed, fn):
        with LocalCluster(n_servers=2, processes=False,
                          fault_specs=specs, fault_seed=seed) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                fn(conn)
            finally:
                conn.close()
            return registry.export()

    def test_scan_survives_corrupt_frames(self):
        n = 2 * SCAN_CHUNK_CELLS + 100  # several chunk frames per scan

        def work(conn):
            conn.create_table("t")
            with conn.batch_writer("t") as w:
                for i in range(n):
                    w.put(f"r{i:05d}", "", "c", i)
            for _ in range(3):  # plenty of chunk frames for the RNG
                rows = [c.key.row for c in conn.scanner("t")]
                assert rows == [f"r{i:05d}" for i in range(n)]

        export = self._run(["scan:corrupt:0.4"], 5, work)
        assert export["net.client.scan_resumes"] > 0
        # retries (backoff sleeps) only accrue on *consecutive*
        # no-progress failures; since open+first-recv fused into one
        # loop trip, a reopen nearly always lands a chunk run before
        # the next corruption, so resumes — not retries — are the pin
        assert export["net.client.retries"] >= 0

    def test_writes_exactly_once_under_dropped_acks(self):
        # a dropped write_batch ack means the server applied the batch
        # but the client retries it; with a summing table any re-apply
        # would show up as a doubled value
        def work(conn):
            create_combiner_table(conn, "sums", "sum")
            with conn.batch_writer("sums", buffer_size=10) as w:
                for i in range(200):
                    w.put(f"r{i:03d}", "", "n", 1)
            values = [c.value for c in conn.scanner("sums")]
            assert values == ["1"] * 200

        export = self._run(["write_batch:drop:0.25"], 11, work)
        assert export["net.client.retries"] > 0

    def test_slowdrip_and_delay_are_only_slow(self):
        def work(conn):
            conn.create_table("t")
            with conn.batch_writer("t") as w:
                for i in range(50):
                    w.put(f"r{i:02d}", "", "c", i)
            assert sum(1 for _ in conn.scanner("t")) == 50

        self._run(["*:delay:0.2:0.002", "scan:slowdrip:0.3:64"], 2, work)


class TestProcessCluster:
    def test_real_processes_end_to_end(self):
        with LocalCluster(n_servers=2, processes=True) as c:
            conn = c.connect()
            try:
                conn.create_table("t", splits=["h", "p"])
                with conn.batch_writer("t") as w:
                    for i in range(120):
                        w.put(f"r{i:03d}", "", "c", i)
                conn.compact("t")
                assert sum(1 for _ in conn.scanner("t")) == 120
                got = [c_.value for c_ in conn.scanner("t").set_range(
                    Range("r010", "r020"))]
                assert got == [str(i) for i in range(10, 20)]
            finally:
                conn.close()


def _reference_cells(n_servers, rows):
    """The fault-free, in-process ground truth for the acceptance run."""
    local = Connector(Instance(n_servers=n_servers,
                               metrics=MetricsRegistry()))
    local.create_table("T", splits=["r100", "r200"])
    with local.batch_writer("T", buffer_size=40) as w:
        for r, v in rows:
            w.put(r, "", "c", v)
    return list(local.scanner("T"))


class TestAcceptance:
    """The ISSUE's acceptance scenario: seeded drop + delay faults plus
    one server crash/recover in the middle of an ingest, and the table
    still comes out bit-identical (timestamps included) to a fault-free
    in-process run — then the retry/timeout counters show up in
    ``repro stats --prom``."""

    SPECS = ["write_batch:drop:0.1", "scan:delay:0.05:0.005"]

    def test_faulted_ingest_is_bit_identical(self, tmp_path, capsys):
        rows = [(f"r{i:03d}", i) for i in range(300)]
        want = _reference_cells(2, rows)

        with LocalCluster(n_servers=2, processes=True,
                          fault_specs=self.SPECS, fault_seed=42) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                conn.create_table("T", splits=["r100", "r200"])
                with conn.batch_writer("T", buffer_size=40) as w:
                    for r, v in rows[:150]:
                        w.put(r, "", "c", v)
                    # crash one server mid-ingest; recover shortly
                    # after, while writes to it are still retrying
                    c.crash("tserver1")
                    timer = threading.Timer(
                        0.5, lambda: c.recover("tserver1", True))
                    timer.start()
                    try:
                        for r, v in rows[150:]:
                            w.put(r, "", "c", v)
                    finally:
                        timer.join()
                got = list(conn.scanner("T"))
            finally:
                conn.close()

            assert got == want  # cells, order, and timestamps
            export = registry.export()
            assert export["net.client.retries"] > 0

            # the counters must be visible through the CLI too
            tsv = tmp_path / "g.tsv"
            tsv.write_text("".join(f"a{i:02d}\tb{(i * 7) % 20:02d}\t1\n"
                                   for i in range(50)), encoding="utf-8")
            rc = cli_main(["stats", str(tsv),
                           "--connect", c.manager_addr_str, "--prom"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "repro_net_client_retries" in out
            assert "repro_net_client_timeouts" in out
            assert "repro_net_client_requests" in out


class TestHealthCli:
    """`repro health` evaluates cluster SLOs over RPC and exits
    nonzero on breach — the CI health gate."""

    def test_healthy_cluster_exits_zero(self, cluster, tmp_path,
                                        capsys):
        conn = _fresh(cluster)
        try:
            conn.create_table("h")
            with conn.batch_writer("h") as w:
                for i in range(20):
                    w.put(f"r{i:02d}", "f", "q", i)
            assert sum(1 for _ in conn.scanner("h")) == 20
        finally:
            conn.close()
        out = tmp_path / "health.json"
        rc = cli_main(["health", "--connect", cluster.manager_addr_str,
                       "--window", "0.1", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "rpc.queue.p99" in text and "BREACH" not in text
        import json

        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert {"manager", "tserver0", "tserver1"} <= \
            set(report["components"])

    def test_breached_slo_exits_nonzero(self, cluster, tmp_path,
                                        capsys):
        # a deliberately impossible objective: any observed latency
        # breaches a 0-second p99 target
        slos = tmp_path / "slos.json"
        import json

        slos.write_text(json.dumps([
            {"name": "impossible.p99",
             "histogram": "net.server.service_seconds",
             "p99_target_s": 0.0}]))
        rc = cli_main(["health", "--connect", cluster.manager_addr_str,
                       "--window", "0.1", "--slos", str(slos)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "BREACH" in captured.out
        assert "FAILED" in captured.err

    def test_unreachable_cluster_is_a_cli_error(self, capsys):
        c = LocalCluster(n_servers=1, processes=False).start()
        addr = c.manager_addr_str
        c.stop()
        rc = cli_main(["health", "--connect", addr, "--window", "0.0"])
        assert rc == 2
        assert "unreachable" in capsys.readouterr().err


class TestLifecycle:
    def test_connect_before_start_rejected(self):
        c = LocalCluster(n_servers=1, processes=False)
        with pytest.raises(RuntimeError):
            c.connect()

    def test_stop_is_idempotent(self):
        c = LocalCluster(n_servers=1, processes=False).start()
        c.stop()
        c.stop()

    def test_single_attempt_policy_fails_fast_when_down(self):
        c = LocalCluster(n_servers=1, processes=False).start()
        addr = c.manager_addr_str
        c.stop()
        conn = RemoteConnector(addr, retry=RetryPolicy(attempts=1,
                                                       deadline=1.0))
        try:
            with pytest.raises(Exception):
                conn.table_exists("t")
        finally:
            conn.close()
