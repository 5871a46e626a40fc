"""Sliding-window aggregation over bucketed sim-time observations.

A :class:`WindowedSeries` accepts timestamped observations (an optional
value, a good/bad flag, and named extras) and bins them into fixed-width
time buckets.  Querying :meth:`aggregate` folds every bucket that
intersects ``(now - window_s, now]`` into one :class:`WindowAggregate`:
event count, bad count, value sum, a merged
:class:`~repro.monitor.sketch.QuantileSketch`, summed extras (bytes,
cost, cold starts) and maxed extras (queue depth).

A query costs what its caller reads.  Buckets are kept sorted by
index, so a window is two binary searches and a slice; its integer
counts come from prefix sums in O(1).  The sketch and the extras merge
only on first read, and threshold counts
(:meth:`WindowAggregate.count_at_most`) are per-bucket integers cached
on buckets that no longer change.  Floats always fold in ascending
bucket order, so lazy and eager folds agree bit for bit.

Buckets are the determinism boundary: windows are aligned to bucket
edges, so an aggregate covers *at least* ``window_s`` and at most one
extra bucket of history — the same answer for the same sim clock, every
run.  Buckets older than the retention horizon are pruned on write, so
memory stays bounded by ``horizon_s / bucket_s`` regardless of run
length.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isfinite
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.monitor.sketch import QuantileSketch

__all__ = ["WindowAggregate", "WindowedSeries"]


def _fold_extras(
    sums: Dict[str, float],
    peaks: Dict[str, float],
    extras: Optional[Mapping[str, float]],
    extras_max: Optional[Mapping[str, float]],
) -> None:
    """Add ``extras`` into ``sums`` and max ``extras_max`` into ``peaks``."""
    if extras:
        for name in extras:
            sums[name] = sums.get(name, 0.0) + extras[name]
    if extras_max:
        for name in extras_max:
            prev = peaks.get(name)
            if prev is None or extras_max[name] > prev:
                peaks[name] = extras_max[name]


class _Bucket:
    """One bucket's fold.

    ``epoch`` is the owning series' read epoch when this object became
    writable.  Once an aggregate may hold it (the series epoch moved
    on), the next write replaces it with a copy instead of mutating it,
    so every aggregate reads a frozen window.  That also keeps the
    per-threshold ``at_most`` cache valid: it is only filled through an
    aggregate, and a copy starts without it.
    """

    __slots__ = (
        "epoch", "count", "bad", "valued", "value_sum", "sketch", "extras",
        "extras_max", "at_most",
    )

    def __init__(self, blank: QuantileSketch, epoch: int = 0) -> None:
        self.epoch = epoch
        self.count = 0
        self.bad = 0
        self.valued = 0
        self.value_sum = 0.0
        self.sketch = blank.copy()
        self.extras: Dict[str, float] = {}
        self.extras_max: Dict[str, float] = {}
        self.at_most: Optional[Dict[float, int]] = None

    def copy(self, epoch: int) -> "_Bucket":
        twin = _Bucket.__new__(_Bucket)
        twin.epoch = epoch
        twin.count = self.count
        twin.bad = self.bad
        twin.valued = self.valued
        twin.value_sum = self.value_sum
        twin.sketch = self.sketch.copy()
        twin.extras = dict(self.extras)
        twin.extras_max = dict(self.extras_max)
        twin.at_most = None
        return twin

    def count_at_most(self, threshold: float) -> int:
        cache = self.at_most
        if cache is None:
            cache = self.at_most = {}
        found = cache.get(threshold)
        if found is None:
            found = cache[threshold] = self.sketch.count_at_most(threshold)
        return found


class WindowAggregate:
    """The fold of every bucket intersecting one query window.

    ``count``, ``bad`` and ``valued_count`` are set when the aggregate
    is built, from the series' prefix counts.  The value sum, the
    quantile sketch and the extras fold only when first read, and
    :meth:`count_at_most` sums cached per-bucket counts, so a burn-rate
    query never touches a float or merges a sketch.  Every float folds
    in ascending bucket order, whichever part is read first.
    """

    __slots__ = (
        "window_s", "alpha", "count", "bad", "valued_count", "_buckets",
        "_value_sum", "_sketch", "_extras", "_extras_max",
    )

    def __init__(self, window_s: float, alpha: float) -> None:
        if not window_s > 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = window_s
        self.alpha = alpha
        self.count = 0
        self.bad = 0
        self.valued_count = 0
        self._buckets: Sequence[_Bucket] = ()
        self._value_sum: Optional[float] = None
        self._sketch: Optional[QuantileSketch] = None
        self._extras: Optional[Dict[str, float]] = None
        self._extras_max: Optional[Dict[str, float]] = None

    @property
    def rate_per_s(self) -> float:
        """Events per second over the window."""
        return self.count / self.window_s

    @property
    def error_ratio(self) -> float:
        """Bad events / all events (0.0 when the window is empty)."""
        return self.bad / self.count if self.count else 0.0

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when no values were recorded)."""
        valued = self.valued_count
        return self.value_sum / valued if valued else 0.0

    @property
    def value_sum(self) -> float:
        """Sum of observed values over the window."""
        total = self._value_sum
        if total is None:
            total = 0.0
            for bucket in self._buckets:
                total += bucket.value_sum
            self._value_sum = total
        return total

    @property
    def sketch(self) -> QuantileSketch:
        """The window's merged quantile sketch."""
        sketch = self._sketch
        if sketch is None:
            sketch = self._sketch = QuantileSketch(self.alpha)
            for bucket in self._buckets:
                sketch.merge(bucket.sketch)
        return sketch

    @property
    def extras(self) -> Dict[str, float]:
        """Summed extras over the window, by name."""
        if self._extras is None:
            self._merge_extras()
        return self._extras  # type: ignore[return-value]

    @property
    def extras_max(self) -> Dict[str, float]:
        """Maxed extras over the window, by name."""
        if self._extras_max is None:
            self._merge_extras()
        return self._extras_max  # type: ignore[return-value]

    def _merge_extras(self) -> None:
        sums: Dict[str, float] = {}
        peaks: Dict[str, float] = {}
        for bucket in self._buckets:
            _fold_extras(sums, peaks, bucket.extras, bucket.extras_max)
        self._extras = sums
        self._extras_max = peaks

    def quantile(self, q: float) -> Optional[float]:
        """Windowed value quantile, or ``None`` with no valued events."""
        return self.sketch.quantile(q)

    def count_at_most(self, threshold: float) -> int:
        """Valued events ``<= threshold``; equals ``sketch.count_at_most``."""
        total = 0
        for bucket in self._buckets:
            cached = bucket.at_most
            found = None if cached is None else cached.get(threshold)
            total += bucket.count_at_most(threshold) if found is None else found
        return total

    def extra(self, name: str, default: float = 0.0) -> float:
        """Summed extra ``name`` over the window."""
        return self.extras.get(name, default)

    def extra_max(self, name: str, default: float = 0.0) -> float:
        """Maxed extra ``name`` over the window."""
        return self.extras_max.get(name, default)


class WindowedSeries:
    """Time-bucketed observations supporting sliding-window queries."""

    __slots__ = (
        "bucket_s", "horizon_s", "alpha", "total_count", "_keys", "_buckets",
        "_cum", "_epoch", "_blank",
    )

    def __init__(
        self,
        bucket_s: float = 10.0,
        horizon_s: float = 3600.0,
        alpha: float = 0.01,
    ) -> None:
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be positive, got {bucket_s}")
        if horizon_s < bucket_s:
            raise ValueError("horizon_s must cover at least one bucket")
        self.bucket_s = bucket_s
        self.horizon_s = horizon_s
        self.alpha = alpha
        self.total_count = 0
        #: Retained bucket indices, ascending, and their buckets.
        self._keys: List[int] = []
        self._buckets: List[_Bucket] = []
        #: ``_cum[i]`` = (count, bad, valued) summed over ``_buckets[:i]``
        #: plus a constant.  Only a prefix is kept: a write to bucket
        #: ``i`` drops every entry past ``i``, and queries extend it.
        self._cum: List[Tuple[int, int, int]] = [(0, 0, 0)]
        #: Bumped by every aggregate that holds buckets; see `_Bucket`.
        self._epoch = 0
        #: Every bucket's sketch starts as a copy of this empty one.
        self._blank = QuantileSketch(alpha)

    def _writable(self, index: int, prune: bool) -> _Bucket:
        """The bucket at ``index``, created if needed, safe to mutate."""
        keys = self._keys
        pos = len(keys) - 1
        if pos < 0 or index > keys[pos]:
            return self._insert(pos + 1, index, prune)
        if keys[pos] != index:
            pos = bisect_left(keys, index)
            if keys[pos] != index:
                return self._insert(pos, index, prune)
        bucket = self._buckets[pos]
        if bucket.epoch != self._epoch:
            # Only an aggregate extends the prefix sums, and it bumps
            # the epoch, so a bucket still in the current epoch is not
            # covered by them yet.
            bucket = self._buckets[pos] = bucket.copy(self._epoch)
            del self._cum[pos + 1:]
        return bucket

    def _insert(self, pos: int, index: int, prune: bool) -> _Bucket:
        """A new bucket at ``index``; with ``prune``, buckets more than a
        horizon older than it are dropped (retention is bounded on write).
        """
        bucket = _Bucket(self._blank, self._epoch)
        self._keys.insert(pos, index)
        self._buckets.insert(pos, bucket)
        cum = self._cum
        if len(cum) > pos + 1:
            del cum[pos + 1:]
        if prune:
            floor_index = index - int(self.horizon_s // self.bucket_s) - 1
            if self._keys[0] < floor_index:
                self._prune(floor_index)
        return bucket

    def observe(
        self,
        at: float,
        value: Optional[float] = None,
        bad: bool = False,
        extras: Optional[Mapping[str, float]] = None,
        extras_max: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Record one event at sim time ``at``.

        ``value`` (when given) feeds the quantile sketch and value sum;
        ``bad`` feeds the error ratio; ``extras`` accumulate by sum and
        ``extras_max`` by max within the bucket.  Every argument is
        checked before anything is recorded, so a rejected call leaves
        the series unchanged.
        """
        if not isfinite(at) or at < 0.0:
            raise ValueError(f"observation time must be finite and >= 0: {at}")
        if value is not None and (not isfinite(value) or value < 0.0):
            raise ValueError(f"observed value must be finite and >= 0: {value}")
        for named in (extras, extras_max):
            for name in named or ():
                if not isfinite(named[name]):
                    raise ValueError(
                        f"extra {name!r} must be finite: {named[name]}"
                    )
        index = int(at // self.bucket_s)
        keys = self._keys
        if (keys and keys[-1] == index
                and self._buckets[-1].epoch == self._epoch):
            bucket = self._buckets[-1]  # the open bucket, the common case
        else:
            bucket = self._writable(index, True)
        bucket.count += 1
        self.total_count += 1
        if bad:
            bucket.bad += 1
        if value is not None:
            bucket.valued += 1
            bucket.value_sum += value
            bucket.sketch._add(value)
        if extras:
            sums = bucket.extras
            for name in extras:
                sums[name] = sums.get(name, 0.0) + extras[name]
        if extras_max:
            peaks = bucket.extras_max
            for name in extras_max:
                prev = peaks.get(name)
                if prev is None or extras_max[name] > prev:
                    peaks[name] = extras_max[name]

    def _prune(self, floor_index: int) -> None:
        """Drop every bucket older than ``floor_index``."""
        drop = bisect_left(self._keys, floor_index)
        del self._keys[:drop]
        del self._buckets[:drop]
        cum = self._cum
        if len(cum) > drop:
            del cum[:drop]  # prefix sums are differences: no rebasing
        else:
            cum[:] = [(0, 0, 0)]

    def merge(self, other: "WindowedSeries") -> None:
        """Fold ``other`` into this series, bucket-index aligned.

        Counts and value sums add, sketches merge, summed extras add and
        maxed extras take the max — bucket by bucket, walked in sorted
        index order so a fixed merge order yields byte-identical floats.
        Bucket width and sketch alpha must match (the horizon is taken
        as ``max`` of the two); no pruning happens here, so merging
        disjoint shards never drops history the caller recorded.
        """
        if other.bucket_s != self.bucket_s:
            raise ValueError(
                f"cannot merge series with bucket_s {other.bucket_s} != "
                f"{self.bucket_s}"
            )
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge series with alpha {other.alpha} != {self.alpha}"
            )
        if other.horizon_s > self.horizon_s:
            self.horizon_s = other.horizon_s
        for index, theirs in list(zip(other._keys, other._buckets)):
            bucket = self._writable(index, False)
            bucket.count += theirs.count
            bucket.bad += theirs.bad
            bucket.valued += theirs.valued
            bucket.value_sum += theirs.value_sum
            bucket.sketch.merge(theirs.sketch)
            _fold_extras(
                bucket.extras, bucket.extras_max,
                theirs.extras, theirs.extras_max,
            )
        self.total_count += other.total_count

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe state; bucket keys are stringified indices.

        Extras maps are emitted key-sorted so the canonical JSON of two
        equal series is byte-identical.
        """
        buckets: Dict[str, object] = {}
        for index, bucket in zip(self._keys, self._buckets):
            entry: Dict[str, object] = {
                "count": bucket.count,
                "bad": bucket.bad,
                "value_sum": bucket.value_sum,
                "sketch": bucket.sketch.to_dict(),
            }
            if bucket.extras:
                entry["extras"] = {
                    k: bucket.extras[k] for k in sorted(bucket.extras)
                }
            if bucket.extras_max:
                entry["extras_max"] = {
                    k: bucket.extras_max[k] for k in sorted(bucket.extras_max)
                }
            buckets[str(index)] = entry
        return {
            "bucket_s": self.bucket_s,
            "horizon_s": self.horizon_s,
            "alpha": self.alpha,
            "total_count": self.total_count,
            "buckets": buckets,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WindowedSeries":
        """Rebuild a series from :meth:`to_dict` output."""
        series = cls(
            bucket_s=float(data["bucket_s"]),  # type: ignore[arg-type]
            horizon_s=float(data["horizon_s"]),  # type: ignore[arg-type]
            alpha=float(data["alpha"]),  # type: ignore[arg-type]
        )
        series.total_count = int(data.get("total_count", 0))  # type: ignore[arg-type]
        buckets: Mapping[str, Mapping[str, object]]
        buckets = data.get("buckets", {})  # type: ignore[assignment]
        restored: Dict[int, _Bucket] = {}
        for key in buckets:
            entry = buckets[key]
            bucket = _Bucket(series._blank)
            bucket.count = int(entry["count"])  # type: ignore[arg-type]
            bucket.bad = int(entry.get("bad", 0))  # type: ignore[arg-type]
            bucket.value_sum = float(entry.get("value_sum", 0.0))  # type: ignore[arg-type]
            bucket.sketch = QuantileSketch.from_dict(entry["sketch"])  # type: ignore[arg-type]
            bucket.valued = bucket.sketch.count
            extras: Mapping[str, float] = entry.get("extras", {})  # type: ignore[assignment]
            bucket.extras = {k: float(extras[k]) for k in extras}
            extras_max: Mapping[str, float] = entry.get("extras_max", {})  # type: ignore[assignment]
            bucket.extras_max = {k: float(extras_max[k]) for k in extras_max}
            restored[int(key)] = bucket
        series._keys = sorted(restored)
        series._buckets = [restored[index] for index in series._keys]
        return series

    def _window(self, now: float, window_s: float) -> Tuple[int, int]:
        """``_buckets[lo:hi]`` intersect ``(now - window_s, now]``.

        ``window_s`` must already be checked positive.
        """
        start = now - window_s
        first = int(start // self.bucket_s) if start > 0.0 else 0
        last = int(now // self.bucket_s)
        lo = bisect_left(self._keys, first)
        hi = bisect_right(self._keys, last)
        return lo, hi if hi > lo else lo

    def bucket_extras(
        self, now: float, window_s: float, names: Sequence[str]
    ) -> List[Tuple[float, Dict[str, float]]]:
        """Per-bucket summed extras over ``(now - window_s, now]``.

        Returns ``(bucket_end_s, {name: sum})`` pairs, oldest first,
        for buckets that recorded at least one event — the raw points a
        short-horizon forecaster fits a trend to.  Window alignment
        matches :meth:`aggregate`.
        """
        if not window_s > 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        lo, hi = self._window(now, window_s)
        return [
            (
                (index + 1) * self.bucket_s,
                {name: bucket.extras.get(name, 0.0) for name in names},
            )
            for index, bucket in zip(self._keys[lo:hi], self._buckets[lo:hi])
        ]

    def aggregate(self, now: float, window_s: float) -> WindowAggregate:
        """Fold buckets intersecting ``(now - window_s, now]``.

        The window is bucket-aligned: the oldest included bucket is the
        one containing ``now - window_s``, so coverage is at least
        ``window_s`` (never less) and the result depends only on the
        recorded observations and the query arguments.  The aggregate
        is a frozen view: later writes to this series never change it.
        """
        out = WindowAggregate(window_s, self.alpha)
        lo, hi = self._window(now, window_s)
        if lo == hi:
            return out
        cum = self._cum
        if len(cum) <= hi:
            count, bad, valued = cum[-1]
            for bucket in self._buckets[len(cum) - 1:hi]:
                count += bucket.count
                bad += bucket.bad
                valued += bucket.valued
                cum.append((count, bad, valued))
        count, bad, valued = cum[hi]
        before = cum[lo]
        out.count = count - before[0]
        out.bad = bad - before[1]
        out.valued_count = valued - before[2]
        out._buckets = self._buckets[lo:hi]
        self._epoch += 1
        return out
