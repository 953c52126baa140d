import pytest

from perfbench.layers import ROOT, LayerTracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def traced():
    tracer = LayerTracer()
    clock = FakeClock()
    tracer.clock = clock
    return tracer, clock


def test_self_time_subtracts_nested_spans(traced):
    tracer, clock = traced
    with tracer.span(ROOT):
        clock.advance(1.0)
        with tracer.span("a.outer"):
            clock.advance(2.0)
            with tracer.span("b.inner"):
                clock.advance(3.0)
            clock.advance(0.5)
        clock.advance(0.25)
    root, outer, inner = (tracer.get(n) for n in (ROOT, "a.outer", "b.inner"))
    assert root.total_s == 6.75
    assert outer.total_s == 5.5 and outer.self_s == 2.5
    assert inner.total_s == 3.0 and inner.self_s == 3.0
    assert root.self_s == 1.25  # the unattributed remainder
    by_layer = tracer.self_by_layer(lambda name: name.split(".")[0])
    assert sum(by_layer.values()) == root.total_s


def test_spans_outside_a_root_are_ignored(traced):
    tracer, clock = traced
    with tracer.span("a.alone"):
        clock.advance(1.0)
    assert tracer.stats == {}


def test_same_name_nesting_counts_once(traced):
    tracer, clock = traced
    with tracer.span(ROOT):
        with tracer.span("scan"):
            clock.advance(1.0)
            with tracer.span("scan"):
                clock.advance(2.0)
    scan = tracer.get("scan")
    assert scan.calls == 1
    assert scan.total_s == 3.0
    assert scan.self_s == 3.0


def test_timed_iter_counts_items_per_step(traced):
    tracer, clock = traced

    def produce():
        for batch in ([1, 2, 3], [4]):
            clock.advance(1.0)
            yield batch

    scan = tracer.timed_iter(produce, "scan", len)
    with tracer.span(ROOT):
        got = []
        for batch in scan():
            clock.advance(10.0)  # consumer time is not the scan's
            got.extend(batch)
    assert got == [1, 2, 3, 4]
    assert tracer.get("scan").items == 4
    assert tracer.get("scan").total_s == 2.0
    assert tracer.get(ROOT).self_s == 20.0


def test_timed_records_on_exception(traced):
    tracer, clock = traced

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    wrapped = tracer.timed(boom, "a.boom")
    with pytest.raises(KeyError):
        with tracer.span(ROOT):
            wrapped()
    assert tracer.get("a.boom").calls == 1
    assert tracer.get("a.boom").total_s == 1.0


def test_patch_function_rebinds_every_import_and_restores():
    import types
    import sys

    home = types.ModuleType("pb_home")
    other = types.ModuleType("pb_other")

    def kernel():
        return 42

    home.kernel = kernel
    other.alias = kernel  # as if ``from pb_home import kernel as alias``
    sys.modules["pb_home"], sys.modules["pb_other"] = home, other
    try:
        tracer = LayerTracer(keep_durations=("k.kernel",))
        tracer.patch_function(home, "kernel", "k.kernel")
        assert home.kernel is not kernel and other.alias is home.kernel
        with tracer.span(ROOT):
            assert other.alias() == 42
        assert tracer.get("k.kernel").calls == 1
        assert len(tracer.get("k.kernel").durations) == 1
        tracer.restore()
        assert home.kernel is kernel and other.alias is kernel
    finally:
        del sys.modules["pb_home"], sys.modules["pb_other"]


def test_layer_of_maps_every_span_name():
    from perfbench.workloads import layer_of
    assert layer_of(ROOT) == "unattributed"
    assert layer_of("net.client.wait") == "net.client"
    assert layer_of("dbsim.client.put") == "dbsim.client"
    with pytest.raises(ValueError):
        layer_of("mystery.span")

