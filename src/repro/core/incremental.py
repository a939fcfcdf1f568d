"""Incremental lattice maintenance (the paper's stated future work).

The paper notes (§2.2, §6) that TreeLattice "by design is also
incremental in nature and can maintain summaries on-line", in the spirit
of XPathLearner, but does not evaluate it.  :class:`IncrementalLattice`
keeps a summary exact for the dominant growth pattern of record-style
XML: **appending a record subtree under the document root** (a new
auction, a new protein entry, a new movie).

It is the append-only view of
:class:`~repro.core.streaming.StreamingSummary`: every append is one
streaming insert, which mines the record (record-only matches) and adds
the root-spanning delta from the maintainer's root-child moment sums —
see :mod:`repro.core.streaming` for the three-class argument and the
permanent identity behind it.  Each append costs
``O(mine(record) + affected root patterns · Bell(k-2))``, plus one lazy
``O(document)`` start on the first append; the document is never
re-matched.  The result is bit-exact with a full rebuild — asserted
against :func:`repro.mining.mine_lattice` in the test suite.
"""

from __future__ import annotations

import time

from .. import obs
from ..trees.canonical import Canon
from ..trees.labeled_tree import LabeledTree, TreeBuildError
from .lattice import LatticeSummary
from .streaming import StreamingSummary

__all__ = ["IncrementalLattice"]


class IncrementalLattice:
    """A lattice summary kept exact while records are appended.

    Parameters
    ----------
    document:
        The growing document.  The maintainer takes ownership: grow it
        only through :meth:`append_record` (mutating the tree elsewhere
        invalidates the summary).
    level:
        Lattice level ``k``.
    """

    def __init__(self, document: LabeledTree, level: int) -> None:
        if level < 2:
            raise ValueError("a lattice summary needs level >= 2")
        self.level = level
        self._stream = StreamingSummary(document, level)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def document(self) -> LabeledTree:
        return self._stream.document

    @property
    def appends(self) -> int:
        """Number of records appended since construction."""
        return self._stream.updates

    def summary(self) -> LatticeSummary:
        """Snapshot the current counts as an immutable summary."""
        return self._stream.summary(fresh=True)

    def count(self, pattern: Canon) -> int:
        """Current exact count of ``pattern`` (0 when absent)."""
        return self._stream.count(pattern)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def append_record(self, record: LabeledTree) -> None:
        """Append ``record`` under the document root; update all counts.

        The record is copied — the caller's tree is not retained.
        """
        if record.size < 1:
            raise TreeBuildError("cannot append an empty record")
        started = time.perf_counter()
        spanning = self._stream._insert(record)
        if obs.enabled:
            self._record_append(record.size, spanning, started)

    def _record_append(self, record_size: int, spanning: int, started: float) -> None:
        if not obs.enabled:  # call sites check too; this is defence in depth
            return
        elapsed = time.perf_counter() - started
        obs.registry.counter(
            "incremental_appends_total", "Records appended since process start."
        ).inc()
        obs.registry.histogram(
            "incremental_record_size", "Node counts of appended records."
        ).observe(record_size)
        obs.registry.histogram(
            "incremental_spanning_updates",
            "Root-anchored patterns whose counts changed per append.",
        ).observe(spanning)
        obs.registry.timer(
            "incremental_append_seconds", "Wall time per incremental append."
        ).observe(elapsed)
        obs.registry.gauge(
            "incremental_document_nodes", "Document size after the last append."
        ).set(self.document.size)
        obs.event(
            "incremental_append",
            record_size=record_size,
            spanning_updates=spanning,
            document_nodes=self.document.size,
            seconds=round(elapsed, 6),
        )
