"""Measurement helpers shared by the benchmark phases.

Nothing here touches the program under test except through the spans
that :class:`Tracer` wraps around public calls in a traced run.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import resource
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Percentiles tried, highest first, when naming a timing's tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (``values`` non-empty)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def tail(values: list[float]) -> tuple[float, float]:
    """``(p, value)``: the highest ladder percentile with >= 10 samples beyond.

    With fewer than 20 samples no percentile qualifies and the maximum
    is reported as ``p = 100``.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p, percentile(values, p)
    return 100.0, max(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def settle() -> None:
    """Start a timed operation from a collected heap, so one op's
    garbage is not billed to the next."""
    gc.collect()


def _calibration_work() -> int:
    """Fixed pure-Python work shaped like the program's hot loops:
    tuple keys, dict probes and small sorts."""
    table: dict[tuple[int, str], int] = {}
    for i in range(15000):
        key = (i % 97, "label%d" % (i % 13))
        table[key] = table.get(key, 0) + 1
        sorted((i % 7, i % 5, i % 3, i % 2))
    return len(table)


#: Calibration time that defines "reference speed" (seconds).
REFERENCE_CALIBRATION_S = 0.0125


class Calibrator:
    """Tracks this machine's current speed on fixed work, between ops.

    The shared 2-core host this benchmark was tuned on drifts by up to
    2x in speed over minutes.  Every time metric is therefore reported
    at reference speed: the raw time scaled by
    ``REFERENCE_CALIBRATION_S / c``, where ``c`` is the calibration time
    measured around the op (see :meth:`scale_all` and :meth:`bracket`).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.at: list[float] = []  # midpoint of each sample
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        _calibration_work()
        now = time.perf_counter()
        self.samples.append(now - start)
        self.at.append((start + now) / 2.0)
        self._last = now

    def maybe(self, every: float) -> None:
        """Sample when ``every`` seconds have passed since the last sample."""
        if time.perf_counter() - self._last >= every:
            self.sample()

    def scale_all(self, ops: list[tuple[float, float]]) -> list[float]:
        """``(start, elapsed)`` of short ops, taken between periodic
        samples, at reference speed: each op by the mean of the samples
        on either side of it.  Takes a closing sample first."""
        self.sample()
        out = []
        for start, elapsed in ops:
            i = bisect.bisect(self.at, start + elapsed / 2.0)
            before = self.samples[max(i - 1, 0)]
            after = self.samples[min(i, len(self.samples) - 1)]
            out.append(elapsed * 2.0 * REFERENCE_CALIBRATION_S / (before + after))
        return out

    def bracket(self, elapsed: float) -> float:
        """``elapsed`` (just measured) at reference speed, for long ops:
        speed is the mean of the sample taken right before the op and
        one taken now.  Host speed moves within a second, so one side
        alone misjudges ops of ~0.1 s and longer."""
        if not self.samples:
            self.sample()
        before = self.samples[-1]
        self.sample()
        speed = (before + self.samples[-1]) / 2.0
        return elapsed * REFERENCE_CALIBRATION_S / speed

    def seconds(self) -> float:
        if not self.samples:
            self.sample()
        return median(self.samples)


class Deadline:
    """Stop condition of a measured loop: a fixed op quota.

    ``sample_every`` is how often the loop samples host speed between
    short ops (:meth:`Calibrator.maybe`).  ``wall_cap`` seconds, if
    given, ends the loop early on a stalled host; ``capped`` says so.
    """

    def __init__(self, ops: int, sample_every: float, wall_cap: float | None = None) -> None:
        self.ops = ops
        self.sample_every = sample_every
        self.wall_cap = wall_cap
        self.capped = False
        self.done_ops = 0
        self.start = time.perf_counter()

    def tick(self) -> None:
        self.done_ops += 1

    def expired(self) -> bool:
        if self.done_ops >= self.ops:
            return True
        if self.wall_cap is not None and time.perf_counter() - self.start >= self.wall_cap:
            self.capped = True
        return self.capped


class Digest:
    """sha256 over every estimate (as ``float.hex``) and summary byte."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def floats(self, values: list[float]) -> None:
        for value in values:
            self._hash.update(float(value).hex().encode("ascii"))
            self._hash.update(b",")

    def data(self, payload: bytes) -> None:
        self._hash.update(len(payload).to_bytes(8, "little"))
        self._hash.update(payload)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Tracer:
    """Spans recorded around the benchmark's calls into each layer.

    A span is ``(id, parent, name, start, end)``; spans opened while
    another is open become its children, so a layer's self time is its
    duration minus its children's.  Spans live in memory for the run.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: Work counts observed at span boundaries, e.g. shards planned.
        self.counts: dict[str, list[float]] = {}
        self._open: list[int] = [0]
        self._next = 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next
        self._next += 1
        parent = self._open[-1]
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def wrapped(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> Iterator[None]:
        """Time every call to ``owner.attr`` as a ``name`` span while open,
        handing each result to ``on_result`` (e.g. to count work done)."""
        original = getattr(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def durations(self, name: str, within: str | None = None) -> list[float]:
        """Per-``within``-span totals of ``name`` (or every ``name`` span).

        With ``within``, each enclosing span contributes the summed
        duration of its ``name`` descendants — e.g. the index time of one
        streaming update.
        """
        if within is None:
            return [end - start for _, _, n, start, end in self.spans if n == name]
        parents = {span_id: parent for span_id, parent, _, _, _ in self.spans}
        roots = {s[0]: 0.0 for s in self.spans if s[2] == within}
        for span_id, parent, n, start, end in self.spans:
            if n != name:
                continue
            node = parent
            while node and node not in roots:
                node = parents.get(node, 0)
            if node:
                roots[node] += end - start
        return list(roots.values())

    def self_times(self, within: str) -> tuple[float, float]:
        """``(sum of root durations, sum of their children's durations)``
        over every ``within`` span: how much of the end-to-end time the
        layer spans account for."""
        total = 0.0
        covered = 0.0
        roots = {s[0] for s in self.spans if s[2] == within}
        for span_id, parent, name, start, end in self.spans:
            if span_id in roots:
                total += end - start
            elif parent in roots:
                covered += end - start
        return total, covered
