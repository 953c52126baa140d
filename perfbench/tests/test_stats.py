import pytest

from perfbench import stats


class TestPercentiles:
    def test_nearest_rank_returns_a_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert stats.percentile(values, 50) == 3.0
        assert stats.percentile(values, 100) == 5.0
        assert stats.percentile(values, 1) == 1.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 0)

    @pytest.mark.parametrize("n,q,beyond", [
        (1000, 99, 10), (999, 99, 9), (100, 90, 10), (99, 90, 9),
        (20, 50, 10), (19, 50, 9), (1, 50, 0)])
    def test_beyond_counts_samples_above_the_rank(self, n, q, beyond):
        assert stats.beyond(n, q) == beyond
        values = list(range(n))
        assert sum(v > stats.percentile(values, q) for v in values) == beyond

    def test_tail_needs_ten_samples_beyond(self):
        assert stats.tail(list(range(1000)), 99) == 989
        assert stats.tail(list(range(999)), 99) is None
        assert stats.tail(list(range(100)), 90) == 89
        assert stats.tail(list(range(99)), 90) is None

    def test_median_and_spread(self):
        assert stats.median([3.0, 1.0, 2.0]) == 2.0
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = 1.5, 3.0, 4.5  # statistics.quantiles, exclusive
        assert stats.spread(values) == pytest.approx((q3 - q1) / 3.0)


class TestRatios:
    def test_ratio_of_nothing_is_zero(self):
        assert stats.ratio(5, 0) == 0.0
        assert stats.ratio(6, 3) == 2.0

    def test_amplification(self):
        assert stats.read_amp(300, 100) == 3.0
        assert stats.write_amp(259_904, 2_202) == pytest.approx(118.03, 1e-3)
        assert stats.read_amp(10, 0) == 0.0

    def test_overhead_pct(self):
        assert stats.overhead_pct(12.0, 10.0) == pytest.approx(20.0)
        assert stats.overhead_pct(9.0, 10.0) == pytest.approx(-10.0)
        assert stats.overhead_pct(1.0, 0.0) == 0.0

    def test_counter_delta_treats_absent_as_zero(self):
        before = {"a": 3, "b": 1}
        after = {"a": 10, "c": 4}
        assert stats.counter_delta(before, after, ("a", "b", "c")) == \
            {"a": 7, "b": -1, "c": 4}
