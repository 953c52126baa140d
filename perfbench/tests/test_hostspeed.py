import os
import time

import pytest

from perfbench import hostspeed as H
from perfbench import workloads as W


def speed_with(samples):
    """A HostSpeed holding the given ``(time, rate)`` samples."""
    speed = H.HostSpeed()
    for t, rate in samples:
        speed.times.append(t)
        speed.rates.append(rate)
    return speed


def test_a_span_is_scaled_by_the_samples_inside_it():
    speed = speed_with([(1.0, H.NOMINAL), (2.0, 0.5 * H.NOMINAL),
                        (3.0, 0.5 * H.NOMINAL), (4.0, H.NOMINAL)])
    assert speed.factor(1.5, 3.5) == 0.5
    assert speed.scaled(1.5, 3.5) == 1.0
    assert speed.factor(0.5, 4.5) == 0.75


def test_a_short_span_takes_the_samples_around_it():
    speed = speed_with([(1.0, H.NOMINAL), (2.0, 0.5 * H.NOMINAL)])
    assert speed.factor(1.2, 1.3) == 0.75
    # before the first sample or after the last: the nearest one
    assert speed.factor(0.2, 0.3) == 1.0
    assert speed.factor(2.2, 2.3) == 0.5


def test_no_samples_is_an_error():
    with pytest.raises(RuntimeError):
        H.HostSpeed().factor(0.0, 1.0)


def test_sampler_pins_samples_and_unpins():
    before = os.sched_getaffinity(0)
    speed = H.HostSpeed().start()
    try:
        assert os.sched_getaffinity(0) == {min(before)}
        time.sleep(3 * H.INTERVAL_S)
    finally:
        speed.stop()
    assert os.sched_getaffinity(0) == before
    assert len(speed.rates) >= 1
    assert speed.times == sorted(speed.times)
    assert all(rate > 0 for rate in speed.rates)
    speed.stop()                        # a second stop is harmless


def test_ops_per_s_with_and_without_host_speed():
    ops = W.Ops()
    ops.run("op", lambda: time.sleep(0.01), lambda _: True)
    ops.run("op", lambda: None, lambda _: False)        # failed: no span
    (start, end), = ops.spans
    assert ops.ops_per_s() == pytest.approx(1 / (end - start))
    half = speed_with([(start, 0.5 * H.NOMINAL), (end, 0.5 * H.NOMINAL)])
    assert ops.ops_per_s(half) == pytest.approx(2 / (end - start))
    ops.discard()
    assert ops.ops_per_s() == 0.0


def test_setup_s_with_host_speed():
    setups = W.SetUps("local", 3, lambda conn: None)
    setups.first()
    assert len(setups.spans) == W.SETUPS
    first, last = setups.spans[0][0], setups.spans[-1][1]
    double = speed_with([(first, 2 * H.NOMINAL), (last, 2 * H.NOMINAL)])
    assert setups.setup_s(double) == pytest.approx(2 * setups.setup_s())
