"""Zero-dependency metrics: counters and histograms.

A :class:`MetricsRegistry` is the pipeline's quantitative memory — how
many hammers landed per REF window, how many validation rounds were
retried, how many faults fired — kept as plain named numbers so any run
can be summarized, exported to JSON, and diffed against another run.

Histograms bucket observations by powers of two (the same shape DRAM
quantities naturally take: hammer counts, REF bursts, retry tallies),
keeping memory constant regardless of how many values stream in.

:class:`NullMetrics` is the disabled path: every method is a no-op and
``enabled`` is False so hot paths can skip the call entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def bucket_bound(value: float) -> int:
    """Power-of-two upper bound bucketing a non-negative observation.

    >>> [bucket_bound(v) for v in (0, 1, 2, 3, 9, 1024)]
    [0, 1, 2, 4, 16, 1024]
    """
    v = int(value)
    if v <= 0:
        return 0
    return 1 << (v - 1).bit_length()


@dataclass
class Histogram:
    """Bounded-memory distribution summary (power-of-two buckets)."""

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    #: Power-of-two upper bound -> observation count.
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bound = bucket_bound(value)
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, dump: dict) -> None:
        """Fold another histogram's :meth:`as_dict` form into self.

        Merging is exact for count/min/max/buckets; ``total`` is a float
        sum, so mean is exact whenever the observed values are (as all
        current pipeline observations are integers).
        """
        if not dump.get("count"):
            return
        self.count += dump["count"]
        self.total += dump["total"]
        low, high = dump["min"], dump["max"]
        if self.min is None or (low is not None and low < self.min):
            self.min = low
        if self.max is None or (high is not None and high > self.max):
            self.max = high
        for bound, count in dump["buckets"].items():
            bound = int(bound)
            self.buckets[bound] = self.buckets.get(bound, 0) + count

    def as_dict(self) -> dict:
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "mean": round(self.mean, 3),
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}


class MetricsRegistry:
    """Named counters and histograms for one run."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writers -------------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    # -- readers -------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # -- merging -------------------------------------------------------------

    def merge(self, data: dict) -> None:
        """Fold another registry's :meth:`as_dict` dump into this one.

        Counters and histogram counts add.  The parallel engine uses
        this to fold each work unit's metrics into the parent registry,
        so a ``--workers N`` run exports the same totals as a sequential
        one.
        """
        for name, value in data.get("counters", {}).items():
            self.inc(name, value)
        for name, dump in data.get("histograms", {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.merge(dump)

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {name: histogram.as_dict()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }


class NullMetrics:
    """The disabled registry: all writers are strict no-ops."""

    enabled = False

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> int:
        return 0

    def merge(self, data: dict) -> None:
        pass

    def as_dict(self) -> dict:
        return {"counters": {}, "histograms": {}}
