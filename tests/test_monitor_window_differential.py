"""Differential tests: the lazy window fold against an eager reference.

``_EagerSeries`` is the eager implementation the lazy one replaced:
every query walks the sorted buckets and merges every sketch and extra
up front.  Hypothesis drives both with the same random streams of
observations, merges, serialization round trips and queries, and every
number a caller can read must match bit for bit: counts, sums, extras,
sketch bytes, quantiles, threshold counts and the serialized state
itself.  Aggregates are also read again after later writes, because a
lazy aggregate must stay a frozen view of its window.
"""

from __future__ import annotations

import math
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import QuantileSketch, WindowedSeries


class _EagerBucket:
    def __init__(self, alpha: float) -> None:
        self.count = 0
        self.bad = 0
        self.value_sum = 0.0
        self.sketch = QuantileSketch(alpha)
        self.extras: Dict[str, float] = {}
        self.extras_max: Dict[str, float] = {}


class _EagerSeries:
    """The eager fold: observe, prune, merge and aggregate as before."""

    def __init__(self, bucket_s: float, horizon_s: float, alpha: float) -> None:
        self.bucket_s = bucket_s
        self.horizon_s = horizon_s
        self.alpha = alpha
        self.buckets: Dict[int, _EagerBucket] = {}
        self.total_count = 0

    def observe(self, at, value=None, bad=False, extras=None, extras_max=None):
        index = int(at // self.bucket_s)
        bucket = self.buckets.get(index)
        if bucket is None:
            bucket = self.buckets[index] = _EagerBucket(self.alpha)
            floor_index = index - int(self.horizon_s // self.bucket_s) - 1
            if floor_index > min(self.buckets):
                for old in [i for i in self.buckets if i < floor_index]:
                    del self.buckets[old]
        bucket.count += 1
        self.total_count += 1
        if bad:
            bucket.bad += 1
        if value is not None:
            bucket.value_sum += value
            bucket.sketch.add(value)
        for name in extras or {}:
            bucket.extras[name] = bucket.extras.get(name, 0.0) + extras[name]
        for name in extras_max or {}:
            prev = bucket.extras_max.get(name)
            if prev is None or extras_max[name] > prev:
                bucket.extras_max[name] = extras_max[name]

    def merge(self, other: "_EagerSeries") -> None:
        self.horizon_s = max(self.horizon_s, other.horizon_s)
        for index in sorted(other.buckets):
            theirs = other.buckets[index]
            bucket = self.buckets.get(index)
            if bucket is None:
                bucket = self.buckets[index] = _EagerBucket(self.alpha)
            bucket.count += theirs.count
            bucket.bad += theirs.bad
            bucket.value_sum += theirs.value_sum
            bucket.sketch.merge(theirs.sketch)
            for name in theirs.extras:
                bucket.extras[name] = (
                    bucket.extras.get(name, 0.0) + theirs.extras[name]
                )
            for name in theirs.extras_max:
                prev = bucket.extras_max.get(name)
                if prev is None or theirs.extras_max[name] > prev:
                    bucket.extras_max[name] = theirs.extras_max[name]
        self.total_count += other.total_count

    def aggregate(self, now: float, window_s: float) -> Dict[str, object]:
        count = bad = 0
        value_sum = 0.0
        sketch = QuantileSketch(self.alpha)
        extras: Dict[str, float] = {}
        extras_max: Dict[str, float] = {}
        first = int(max(0.0, now - window_s) // self.bucket_s)
        last = int(now // self.bucket_s)
        for index in sorted(self.buckets):
            if index < first or index > last:
                continue
            bucket = self.buckets[index]
            count += bucket.count
            bad += bucket.bad
            value_sum += bucket.value_sum
            sketch.merge(bucket.sketch)
            for name in bucket.extras:
                extras[name] = extras.get(name, 0.0) + bucket.extras[name]
            for name in bucket.extras_max:
                prev = extras_max.get(name)
                if prev is None or bucket.extras_max[name] > prev:
                    extras_max[name] = bucket.extras_max[name]
        valued = sketch.count
        return {
            "count": count,
            "bad": bad,
            "value_sum": value_sum,
            "valued_count": valued,
            "mean": value_sum / valued if valued else 0.0,
            "sketch": sketch.to_dict(),
            "quantiles": [sketch.quantile(q) for q in _QUANTILES],
            "at_most": [sketch.count_at_most(t) for t in _THRESHOLDS],
            "extras": extras,
            "extras_max": extras_max,
        }

    @classmethod
    def from_state(cls, data: Dict[str, object]) -> "_EagerSeries":
        series = cls(data["bucket_s"], data["horizon_s"], data["alpha"])
        series.total_count = data["total_count"]
        for key, entry in data["buckets"].items():
            bucket = series.buckets[int(key)] = _EagerBucket(series.alpha)
            bucket.count = entry["count"]
            bucket.bad = entry["bad"]
            bucket.value_sum = entry["value_sum"]
            bucket.sketch = QuantileSketch.from_dict(entry["sketch"])
            bucket.extras = dict(entry.get("extras", {}))
            bucket.extras_max = dict(entry.get("extras_max", {}))
        return series

    def state(self) -> Dict[str, object]:
        """The same layout as ``WindowedSeries.to_dict``."""
        return {
            "bucket_s": self.bucket_s,
            "horizon_s": self.horizon_s,
            "alpha": self.alpha,
            "total_count": self.total_count,
            "buckets": {
                str(index): _bucket_state(self.buckets[index])
                for index in sorted(self.buckets)
            },
        }


def _bucket_state(bucket: _EagerBucket) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "count": bucket.count,
        "bad": bucket.bad,
        "value_sum": bucket.value_sum,
        "sketch": bucket.sketch.to_dict(),
    }
    if bucket.extras:
        entry["extras"] = {k: bucket.extras[k] for k in sorted(bucket.extras)}
    if bucket.extras_max:
        entry["extras_max"] = {
            k: bucket.extras_max[k] for k in sorted(bucket.extras_max)
        }
    return entry


_QUANTILES = (0.5, 0.95, 0.99)
_THRESHOLDS = (0.0, 0.5, 3.0, 30.0, 1e6)


def _read(agg, order: List[str]) -> Dict[str, object]:
    """Every public number of a lazy aggregate, read in ``order``.

    Threshold counts are read first as well, so they always come from
    the per-bucket caches (once the sketch is merged they come from it).
    """
    at_most_first = [agg.count_at_most(t) for t in _THRESHOLDS]
    readers = {
        "sketch": lambda: agg.sketch.to_dict(),
        "quantiles": lambda: [agg.quantile(q) for q in _QUANTILES],
        "at_most": lambda: [agg.count_at_most(t) for t in _THRESHOLDS],
        "extras": lambda: dict(agg.extras),
        "extras_max": lambda: dict(agg.extras_max),
        "mean": lambda: agg.mean,
        "value_sum": lambda: agg.value_sum,
    }
    out: Dict[str, object] = {name: readers[name]() for name in order}
    if "at_most" in out:
        assert out["at_most"] == at_most_first
    else:
        out["at_most"] = at_most_first
    out.update(count=agg.count, bad=agg.bad, valued_count=agg.valued_count)
    return out


def _same(read: Dict[str, object], expected: Dict[str, object]) -> bool:
    """Every number in ``read`` equals ``expected``'s, bit for bit.

    Dicts must also agree on key order.
    """
    for key in read:
        x, y = read[key], expected[key]
        if isinstance(x, dict):
            if list(x.items()) != list(y.items()):  # type: ignore[union-attr]
                return False
        elif isinstance(x, float):
            if not (x == y or (math.isnan(x) and math.isnan(y))):
                return False
        elif x != y:
            return False
    return True


_EXTRA_NAMES = ("bytes", "cold", "cost_usd")

#: Times on a 2.5 s grid land on bucket edges and pruning floors often,
#: and the short grid writes into buckets earlier queries hold;
#: arbitrary floats cover everything in between.
_time = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: k * 2.5),
    st.integers(min_value=0, max_value=160).map(lambda k: k * 2.5),
    st.floats(min_value=0.0, max_value=400.0),
)

_observation = st.fixed_dictionaries({
    "at": _time,
    "value": st.one_of(st.none(), st.floats(min_value=0.0, max_value=80.0)),
    "bad": st.booleans(),
    "extras": st.dictionaries(
        st.sampled_from(_EXTRA_NAMES),
        st.floats(min_value=-5.0, max_value=1e4),
        max_size=2,
    ),
    "extras_max": st.dictionaries(
        st.sampled_from(("depth",)),
        st.floats(min_value=0.0, max_value=50.0),
        max_size=1,
    ),
})

_query = st.fixed_dictionaries({
    "now": st.floats(min_value=-10.0, max_value=600.0),
    "window_s": st.floats(min_value=0.01, max_value=2000.0),
    "order": st.permutations(
        ["sketch", "quantiles", "at_most", "extras", "extras_max", "mean",
         "value_sum"]
    ),
    "reread": st.booleans(),
})

_op = st.one_of(
    st.tuples(st.just("observe"), _observation),
    st.tuples(st.just("query"), _query),
    st.tuples(st.just("roundtrip"), st.none()),
)

#: (bucket_s, horizon_s): pruning horizons, and a whole-run fleet
#: horizon that never prunes and is wider than every window.
_geometry = st.sampled_from([(5.0, 20.0), (10.0, 60.0), (10.0, 3600.0),
                             (2.0, 1e9)])


def _observe_both(lazy: WindowedSeries, eager: _EagerSeries, obs) -> None:
    args = (obs["at"], obs["value"], obs["bad"], obs["extras"] or None,
            obs["extras_max"] or None)
    lazy.observe(*args)
    eager.observe(*args)


class TestLazyFoldMatchesEagerFold:
    @settings(max_examples=60, deadline=None)
    @given(geometry=_geometry, ops=st.lists(_op, max_size=40))
    def test_random_streams(self, geometry, ops):
        bucket_s, horizon_s = geometry
        lazy = WindowedSeries(bucket_s=bucket_s, horizon_s=horizon_s)
        eager = _EagerSeries(bucket_s, horizon_s, lazy.alpha)
        held = []
        for kind, arg in ops:
            if kind == "observe":
                _observe_both(lazy, eager, arg)
            elif kind == "roundtrip":
                lazy = WindowedSeries.from_dict(lazy.to_dict())
                eager = _EagerSeries.from_state(eager.state())
            else:
                agg = lazy.aggregate(arg["now"], arg["window_s"])
                expected = eager.aggregate(arg["now"], arg["window_s"])
                if arg["reread"]:
                    # Read nothing lazy now; read it all after later writes.
                    held.append((agg, expected, arg["order"]))
                else:
                    assert _same(_read(agg, arg["order"]), expected)
            assert lazy.to_dict() == eager.state()
            assert lazy.total_count == eager.total_count
        for agg, expected, order in held:
            assert _same(_read(agg, order), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        geometry=_geometry,
        streams=st.lists(st.lists(_observation, max_size=15), min_size=1,
                         max_size=4),
        queries=st.lists(_query, min_size=1, max_size=6),
    )
    def test_merged_and_restored_series(self, geometry, streams, queries):
        bucket_s, horizon_s = geometry
        merged = WindowedSeries(bucket_s=bucket_s, horizon_s=horizon_s)
        reference = _EagerSeries(bucket_s, horizon_s, merged.alpha)
        for stream in streams:
            shard = WindowedSeries(bucket_s=bucket_s, horizon_s=horizon_s)
            eager = _EagerSeries(bucket_s, horizon_s, shard.alpha)
            for obs in stream:
                _observe_both(shard, eager, obs)
            # Query the target first so merging must not rewrite buckets
            # an earlier aggregate holds.
            before = merged.aggregate(400.0, 1e6)
            expected_before = reference.aggregate(400.0, 1e6)
            merged.merge(WindowedSeries.from_dict(shard.to_dict()))
            reference.merge(_EagerSeries.from_state(eager.state()))
            assert _same(_read(before, ["sketch", "extras"]), expected_before)
        assert merged.to_dict() == reference.state()
        restored = WindowedSeries.from_dict(merged.to_dict())
        restored_reference = _EagerSeries.from_state(reference.state())
        for query in queries:
            for series, eager in ((merged, reference),
                                  (restored, restored_reference)):
                agg = series.aggregate(query["now"], query["window_s"])
                expected = eager.aggregate(query["now"], query["window_s"])
                assert _same(_read(agg, query["order"]), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        indices=st.lists(st.integers(min_value=0, max_value=30), max_size=30),
        keep=st.integers(min_value=1, max_value=6),
    )
    def test_pruning_keeps_the_same_buckets(self, indices, keep):
        # Dense bucket indices, out of order, against a short horizon:
        # every new bucket lands near some pruning floor.
        lazy = WindowedSeries(bucket_s=5.0, horizon_s=5.0 * keep)
        eager = _EagerSeries(5.0, 5.0 * keep, lazy.alpha)
        for index in indices:
            lazy.observe(index * 5.0 + 1.0, 1.0)
            eager.observe(index * 5.0 + 1.0, 1.0)
            assert lazy.to_dict() == eager.state()

    @settings(max_examples=30, deadline=None)
    @given(stream=st.lists(_observation, min_size=1, max_size=30))
    def test_count_at_most_equals_sketch_count_at_most(self, stream):
        series = WindowedSeries(bucket_s=10.0, horizon_s=1e9)
        for obs in stream:
            series.observe(obs["at"], obs["value"])
        for window_s in (5.0, 60.0, 1e6):
            fresh = series.aggregate(400.0, window_s)
            merged = series.aggregate(400.0, window_s)
            merged.sketch  # fold first; the answer must not change
            for threshold in _THRESHOLDS:
                assert fresh.count_at_most(threshold) == (
                    merged.count_at_most(threshold)
                ) == merged.sketch.count_at_most(threshold)
            assert fresh.valued_count == merged.sketch.count
