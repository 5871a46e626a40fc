"""Tests for sliding-window aggregation."""

import math

import pytest

from repro.monitor import WindowAggregate, WindowedSeries


class TestValidation:
    def test_bad_bucket(self):
        with pytest.raises(ValueError):
            WindowedSeries(bucket_s=0.0)

    def test_horizon_must_cover_a_bucket(self):
        with pytest.raises(ValueError):
            WindowedSeries(bucket_s=10.0, horizon_s=5.0)

    def test_bad_observation_time(self):
        series = WindowedSeries()
        with pytest.raises(ValueError):
            series.observe(-1.0)

    def test_bad_window(self):
        series = WindowedSeries()
        with pytest.raises(ValueError):
            series.aggregate(10.0, 0.0)


class TestAggregate:
    def test_counts_and_error_ratio(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(1.0, bad=True)
        series.observe(2.0)
        series.observe(3.0)
        agg = series.aggregate(now=5.0, window_s=10.0)
        assert agg.count == 3
        assert agg.bad == 1
        assert agg.error_ratio == pytest.approx(1 / 3)
        assert agg.rate_per_s == pytest.approx(0.3)

    def test_window_excludes_old_buckets(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(5.0, value=1.0)
        series.observe(95.0, value=3.0)
        agg = series.aggregate(now=100.0, window_s=30.0)
        assert agg.count == 1
        assert agg.mean == 3.0

    def test_window_is_bucket_aligned(self):
        # The oldest included bucket is the one containing now-window:
        # coverage is at least window_s, at most one extra bucket.
        series = WindowedSeries(bucket_s=10.0)
        series.observe(12.0)  # bucket [10, 20)
        agg = series.aggregate(now=75.0, window_s=60.0)  # covers from 15.0
        assert agg.count == 1  # bucket 10-20 intersects (15, 75]

    def test_mean_and_quantiles_only_from_valued_events(self):
        series = WindowedSeries()
        series.observe(1.0)  # no value
        series.observe(2.0, value=4.0)
        agg = series.aggregate(10.0, 60.0)
        assert agg.count == 2
        assert agg.mean == 4.0
        assert agg.quantile(0.5) == pytest.approx(4.0, rel=0.03)

    def test_empty_window(self):
        series = WindowedSeries()
        agg = series.aggregate(1000.0, 10.0)
        assert agg.count == 0
        assert agg.error_ratio == 0.0
        assert agg.mean == 0.0
        assert agg.quantile(0.5) is None

    def test_extras_sum_and_max(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(1.0, extras={"bytes": 100.0}, extras_max={"depth": 2.0})
        series.observe(2.0, extras={"bytes": 50.0}, extras_max={"depth": 5.0})
        series.observe(15.0, extras={"bytes": 7.0}, extras_max={"depth": 1.0})
        agg = series.aggregate(20.0, 30.0)
        assert agg.extra("bytes") == 157.0
        assert agg.extra_max("depth") == 5.0
        assert agg.extra("missing") == 0.0
        assert agg.extra_max("missing", default=-1.0) == -1.0


class TestPruning:
    def test_old_buckets_are_pruned(self):
        series = WindowedSeries(bucket_s=10.0, horizon_s=100.0)
        for t in range(0, 1000, 10):
            series.observe(float(t))
        # Memory bounded by horizon: ~horizon/bucket (+ slack) buckets.
        assert len(series._buckets) <= int(100.0 / 10.0) + 2
        assert series.total_count == 100  # lifetime count survives pruning

    def test_prune_keeps_the_floor_bucket(self):
        # A new bucket at index i drops every bucket below
        # i - horizon/bucket - 1 and keeps the one at that floor.
        series = WindowedSeries(bucket_s=10.0, horizon_s=30.0)
        for t in (0.0, 10.0, 20.0):
            series.observe(t)
        series.observe(50.0)  # index 5: floor 1
        assert sorted(series.to_dict()["buckets"]) == ["1", "2", "5"]
        series.observe(15.0)  # an older index prunes relative to itself
        assert sorted(series.to_dict()["buckets"]) == ["1", "2", "5"]
        series.observe(90.0)  # index 9: floor 5
        assert sorted(series.to_dict()["buckets"]) == ["5", "9"]
        assert series.total_count == 6

    def test_recent_window_unaffected_by_pruning(self):
        series = WindowedSeries(bucket_s=10.0, horizon_s=100.0)
        for t in range(0, 500, 10):
            series.observe(float(t), value=1.0)
        agg = series.aggregate(now=495.0, window_s=50.0)
        assert agg.count == 6  # buckets 440..490 (bucket-aligned window)


class TestRejectedObservation:
    """A rejected ``observe`` must leave the series exactly as it was."""

    @pytest.mark.parametrize("kwargs", [
        {"value": math.nan},
        {"value": math.inf},
        {"value": -1.0},
        {"extras": {"bytes": math.nan}},
        {"extras": {"bytes": 1.0, "cost_usd": -math.inf}},
        {"extras_max": {"depth": math.nan}},
        {"value": 2.0, "extras_max": {"depth": math.inf}},
    ])
    def test_bad_input_raises_and_changes_nothing(self, kwargs):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(1.0, value=3.0, extras={"bytes": 5.0},
                       extras_max={"depth": 2.0})
        before = series.to_dict()
        # Same bucket as the first observation, and a brand-new one.
        for at in (2.0, 55.0):
            with pytest.raises(ValueError):
                series.observe(at, bad=True, **kwargs)
        assert series.to_dict() == before
        assert series.total_count == 1
        agg = series.aggregate(60.0, 60.0)
        assert (agg.count, agg.bad, agg.value_sum) == (1, 0, 3.0)


class TestAggregateIsFrozen:
    def test_later_writes_do_not_change_a_held_aggregate(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(1.0, value=1.0, extras={"bytes": 1.0},
                       extras_max={"depth": 1.0})
        series.observe(12.0, value=2.0, extras={"bytes": 2.0})
        agg = series.aggregate(15.0, 30.0)
        # Writes into both held buckets, directly and through a merge.
        series.observe(13.0, value=50.0, bad=True, extras={"bytes": 50.0},
                       extras_max={"depth": 9.0})
        series.observe(3.0, value=70.0, extras={"bytes": 70.0})
        other = WindowedSeries(bucket_s=10.0)
        other.observe(5.0, value=90.0, extras={"bytes": 90.0})
        series.merge(other)
        assert (agg.count, agg.bad, agg.valued_count) == (2, 0, 2)
        assert agg.value_sum == 3.0
        assert agg.extra("bytes") == 3.0
        assert agg.extra_max("depth") == 1.0
        assert agg.sketch.count == 2
        assert agg.count_at_most(10.0) == 2
        fresh = series.aggregate(15.0, 30.0)
        assert fresh.count == 5
        assert fresh.extra("bytes") == 213.0

    def test_threshold_counts_see_later_writes_in_new_aggregates(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(1.0, value=5.0)
        first = series.aggregate(5.0, 10.0)
        assert first.count_at_most(30.0) == 1
        series.observe(2.0, value=60.0)  # same bucket, over the threshold
        series.observe(3.0, value=7.0)
        second = series.aggregate(5.0, 10.0)
        assert second.count_at_most(30.0) == 2
        assert second.valued_count == 3
        assert first.count_at_most(30.0) == 1

    def test_threshold_counts_match_the_merged_sketch(self):
        series = WindowedSeries(bucket_s=10.0)
        for t, value in [(1.0, 0.0), (2.0, 5.0), (11.0, 40.0), (25.0, 3.0)]:
            series.observe(t, value=value)
        series.observe(26.0)  # unvalued events do not count
        agg = series.aggregate(30.0, 60.0)
        assert agg.valued_count == 4
        counts = [agg.count_at_most(t) for t in (-1.0, 0.0, 4.0, 30.0, 100.0)]
        assert counts == [
            agg.sketch.count_at_most(t) for t in (-1.0, 0.0, 4.0, 30.0, 100.0)
        ]
        assert counts == [0, 1, 2, 3, 4]


class TestWindowValidation:
    @pytest.mark.parametrize("window_s", [0.0, -5.0, math.nan])
    def test_non_positive_windows_rejected_everywhere(self, window_s):
        series = WindowedSeries()
        series.observe(1.0, value=1.0)
        with pytest.raises(ValueError):
            series.aggregate(10.0, window_s)
        with pytest.raises(ValueError):
            series.bucket_extras(10.0, window_s, ("bytes",))
        with pytest.raises(ValueError):
            WindowAggregate(window_s, 0.01)
