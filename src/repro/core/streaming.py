"""Streaming summary maintenance: insert/delete deltas as monoid merges.

The summary is a **base** :class:`~repro.core.lattice.LatticeSummary`
plus a **pending** :class:`~repro.store.DictStore` of *signed* deltas.
Every :meth:`~StreamingSummary.insert` / :meth:`~StreamingSummary.delete`
computes its exact count delta and folds it into the pending store with
one monoid merge (:meth:`~repro.store.SummaryStore.merge`) — so a batch
of updates composes exactly like shard stores do in
:mod:`repro.mining.sharded`.  :class:`~repro.core.incremental.IncrementalLattice`
is the append-only view of the same maintainer.

Exact deltas
------------
A twig match image is connected, so when record ``R`` is grafted under
(or cut from) the document root ``r`` every match falls into exactly one
of three disjoint classes:

1. *old-only* — entirely outside ``R``: unchanged;
2. *record-only* — entirely inside ``R``: counted by mining the record
   in isolation (its internal structure is unchanged by the graft);
3. *spanning* — uses nodes on both sides, hence the edge
   ``r -> root(R)``, hence ``r``; since ``r`` has no parent, the query
   node mapped to it is the query root.  Every spanning match is
   **anchored at the document root**.

A root-anchored pattern ``P = r(q_1, ..., q_m)`` sends its query
children injectively to distinct root children ``C``, so its anchored
count is the permanent of ``w_i(v) = m(q_i, v)`` over ``v ∈ C``.  Adding
the child ``c`` changes it by

    Δ(P) = Σ_i m(q_i, c) · perm(q ∖ {i} → C)

(a delete is the same delta, negated, over ``C ∖ {c}``).  The record
mine already yields ``m(q, c)`` at the record root.  The permanents come
from **root-child moment sums** ``M[B] = Σ_{v ∈ C} Π_{q ∈ B} m(q, v)``,
kept for every multiset ``B`` of child patterns of total size
``<= k - 2``, by Möbius inversion over set partitions:
``perm(rows) = Σ_π Π_{B ∈ π} (-1)^{|B|-1} (|B|-1)! · M[B]``.  An update
therefore costs ``O(mine(record) + affected root patterns · Bell(k-2))``
and never re-matches the document; the moment sums are built lazily on
the first update (one level ``k - 2`` mine of the document), so
:meth:`~StreamingSummary.restore` stays a plain load.  The result is
bit-exact with a full rebuild — asserted against
:func:`repro.mining.mine_lattice` and the anchored re-enumeration
:func:`~repro.mining.sharded.anchored_counts` in the test suite.

Bounded staleness contract
--------------------------
Point lookups (:meth:`~StreamingSummary.count`) are always exact: they
read base + pending.  The materialised :meth:`~StreamingSummary.summary`
snapshot may lag behind by at most ``max_pending`` update operations;
once the pending store has absorbed that many, the next update
compacts automatically (``max_pending=0`` compacts after every update,
i.e. no staleness).  :meth:`~StreamingSummary.summary` with
``fresh=True`` forces a compaction first, and
:meth:`~StreamingSummary.save` always compacts, so persisted summaries
never carry pending deltas — :meth:`~StreamingSummary.restore` reads
the standard versioned summary container straight back.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from .. import obs
from ..mining.freqt import MiningResult, mine_lattice
from ..mining.sharded import anchored_counts  # noqa: F401 -- see below
from ..store.dict_store import DictStore
from ..trees.canonical import Canon, canon_size
from ..trees.labeled_tree import LabeledTree, TreeBuildError
from ..trees.matching import DocumentIndex
from .lattice import LatticeSummary

# Updates no longer call ``anchored_counts``; the name stays bound here
# because traced benchmark runs (perfbench/phases.py) wrap this module's
# ``DocumentIndex``, ``anchored_counts`` and ``mine_lattice`` to attribute
# update time per layer, and the work-count tests assert it stays unused.

__all__ = ["StreamingSummary", "DEFAULT_MAX_PENDING"]

#: Default staleness bound: pending update operations tolerated before a
#: summary snapshot is recompacted.
DEFAULT_MAX_PENDING = 64


class StreamingSummary:
    """A lattice summary maintained under record inserts *and* deletes.

    Parameters
    ----------
    document:
        The evolving document.  The maintainer takes ownership: mutate
        it only through :meth:`insert` / :meth:`delete` (a delete moves
        the highest-id surviving nodes into the freed ids, so hold on to
        root-child *positions*, not ids).
    level:
        Lattice level ``k``.
    store:
        Backend of the base summary (``"dict"`` / ``"array"``).
    max_pending:
        Staleness bound — see the module docstring.
    """

    def __init__(
        self,
        document: LabeledTree,
        level: int,
        *,
        store: str = "dict",
        max_pending: int = DEFAULT_MAX_PENDING,
        shards: int | None = None,
        workers: int | None = None,
    ) -> None:
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self._document = document
        self.level = level
        self.max_pending = max_pending
        base = LatticeSummary.build(
            document, level, store=store, shards=shards, workers=workers
        )
        if set(base.complete_sizes) != set(range(1, level + 1)):
            # The miner stops at the first empty level and only marks
            # mined levels complete; an empty level makes every deeper
            # level vacuously complete, and exact maintenance preserves
            # completeness, so assert the full range up front.
            base = base.replace_counts(
                dict(base.patterns()), complete_sizes=range(1, level + 1)
            )
        self._base = base
        self._pending = DictStore()
        self._pending_ops = 0
        self._updates = 0
        self._moments: _RootMoments | None = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def document(self) -> LabeledTree:
        """The current document, updated in place (see :meth:`delete`)."""
        return self._document

    @property
    def pending_ops(self) -> int:
        """Update operations folded into the pending store since the
        last compaction (the snapshot's current staleness)."""
        return self._pending_ops

    @property
    def updates(self) -> int:
        """Total inserts + deletes applied since construction."""
        return self._updates

    def count(self, pattern: Canon) -> int:
        """Current exact count of ``pattern`` — never stale (0 if absent)."""
        base = self._base.get(pattern) or 0
        return base + (self._pending.get(pattern) or 0)

    def summary(self, *, fresh: bool = False) -> LatticeSummary:
        """The materialised summary snapshot.

        Stale by at most ``max_pending`` update operations;
        ``fresh=True`` compacts first and is therefore always exact.
        """
        if fresh and self._pending_ops:
            self.compact()
        return self._base

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, record: LabeledTree) -> None:
        """Append ``record`` under the document root; stage its delta.

        The record is copied — the caller's tree is not retained.
        """
        if record.size < 1:
            raise TreeBuildError("cannot insert an empty record")
        started = time.perf_counter()
        self._insert(record)
        if obs.enabled:
            self._record_update("insert", record.size, started)

    def delete(self, child_index: int) -> LabeledTree:
        """Remove the ``child_index``-th record under the root; stage its delta.

        The index counts the document root's children left to right
        (the order :meth:`insert` appends in).  Returns a copy of the
        removed record.  The highest-id surviving nodes move into the
        removed record's ids, so a node's id may then be below its
        parent's; the root stays node 0.
        """
        document = self._document
        children = document.child_ids(document.root)
        if not 0 <= child_index < len(children):
            raise TreeBuildError(
                f"no record at root-child index {child_index} "
                f"(root has {len(children)} children)"
            )
        started = time.perf_counter()
        node = children[child_index]
        record = document.subtree_at(node)
        mined, spanning = self._root_moments().apply(
            record, document.label(document.root), -1
        )
        _cut(document, node)
        self._apply_delta(mined, spanning, sign=-1)
        if obs.enabled:
            self._record_update("delete", record.size, started)
        return record

    def compact(self) -> LatticeSummary:
        """Fold the pending deltas into the base summary.

        One monoid application: base counts plus pending deltas, with
        patterns whose count reaches zero dropped.  Order is
        deterministic — the base's insertion order, then pending-only
        patterns in the order their first delta arrived — so compacting
        the same update sequence always yields byte-identical snapshots.
        """
        if self._pending_ops:
            counts: dict[Canon, int] = dict(self._base.patterns())
            for pattern, delta in self._pending.items():
                counts[pattern] = counts.get(pattern, 0) + delta
            self._base = self._base.replace_counts(
                {c: n for c, n in counts.items() if n > 0},
                complete_sizes=self._base.complete_sizes,
            )
            self._pending = DictStore()
            self._pending_ops = 0
            if obs.enabled:
                obs.registry.counter(
                    "streaming_compactions_total",
                    "Pending-delta compactions since process start.",
                ).inc()
        return self._base

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Compact, then persist via :meth:`LatticeSummary.save`.

        The file is the standard versioned summary container — pending
        deltas never reach disk.
        """
        self.compact().save(path)

    @classmethod
    def restore(
        cls,
        path: str | Path,
        document: LabeledTree,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> "StreamingSummary":
        """Resume streaming from a saved summary of ``document``.

        The caller asserts that ``document`` is the tree the summary at
        ``path`` was saved for (the container stores counts, not the
        document); updates applied after restore are exact under that
        assumption.
        """
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        base = LatticeSummary.load(path)
        self = cls.__new__(cls)
        self._document = document
        self.level = base.level
        self.max_pending = max_pending
        self._base = base
        self._pending = DictStore()
        self._pending_ops = 0
        self._updates = 0
        self._moments = None
        return self

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _insert(self, record: LabeledTree) -> int:
        """Graft ``record`` under the root and stage its delta.

        Returns how many root-anchored pattern counts the graft changed.
        """
        document = self._document
        mined, spanning = self._root_moments().apply(
            record, document.label(document.root), 1
        )
        _graft(document, document.root, record)
        self._apply_delta(mined, spanning, sign=1)
        return len(spanning)

    def _root_moments(self) -> "_RootMoments":
        """The root-child moment sums, built on the first update."""
        if self._moments is None:
            self._moments = _RootMoments.of_document(self._document, self.level)
        return self._moments

    def _apply_delta(
        self, mined: MiningResult, spanning: dict[Canon, int], *, sign: int
    ) -> None:
        """Fold one update's delta into the pending store: the record's
        own counts times ``sign`` plus the (already signed) spanning delta."""
        delta = {pattern: sign * n for pattern, n in mined.all_patterns().items()}
        for pattern, change in spanning.items():
            delta[pattern] = delta.get(pattern, 0) + change
        step = DictStore.from_counts(
            (pattern, change) for pattern, change in delta.items() if change
        )
        self._pending = self._pending.merge(step)
        self._pending_ops += 1
        self._updates += 1
        if self._pending_ops > self.max_pending:
            self.compact()

    def _record_update(self, kind: str, record_size: int, started: float) -> None:
        if not obs.enabled:  # call sites check too; this is defence in depth
            return
        elapsed = time.perf_counter() - started
        obs.registry.counter(
            "streaming_updates_total",
            "Streaming record updates by kind.",
            labels=("kind",),
        ).inc(kind=kind)
        obs.registry.gauge(
            "streaming_pending_ops",
            "Update deltas pending since the last compaction.",
        ).set(self._pending_ops)
        obs.registry.timer(
            "streaming_update_seconds", "Wall time per streaming update."
        ).observe(elapsed)
        obs.event(
            "streaming_update",
            kind=kind,
            record_size=record_size,
            pending_ops=self._pending_ops,
            document_nodes=self._document.size,
            seconds=round(elapsed, 6),
        )


#: One root-child profile entry: ``(pattern, pattern size, m(pattern, v))``.
_Entry = tuple[Canon, int, int]


class _RootMoments:
    """Root-child moment sums: the state behind the O(record) spanning delta.

    ``sums[B] = Σ_{v ∈ C} Π_{q ∈ B} m(q, v)`` over the document root's
    children ``C``, for every multiset ``B`` of child patterns — a sorted
    tuple — with total size ``<= level - 2`` and a non-zero sum.  Updates
    add or subtract one child's contribution, so the sums form a small
    additive monoid beside the pending store.
    """

    __slots__ = ("level", "sums")

    def __init__(self, level: int) -> None:
        self.level = level
        self.sums: dict[tuple[Canon, ...], int] = {}

    @classmethod
    def of_document(cls, document: LabeledTree, level: int) -> "_RootMoments":
        """Moment sums over ``document``'s root children (one mine at
        level ``level - 2``; nothing to mine below level 3)."""
        moments = cls(level)
        if level >= 3:
            mined = mine_lattice(
                DocumentIndex(document), level - 2, keep_root_maps=True
            )
            children = document.child_ids(document.root)
            for profile in _profiles(mined, children, level - 2).values():
                moments.add(profile, 1)
        return moments

    def apply(
        self, record: LabeledTree, root_label: str, sign: int
    ) -> tuple[MiningResult, dict[Canon, int]]:
        """Account for grafting ``record`` under (``sign=1``) or cutting it
        from (``sign=-1``) a root labelled ``root_label``.

        Mines the record (class 2) and returns that mine with the signed
        spanning (class 3) delta: for a cut, the moments drop the record
        first, so the delta is taken over the remaining root children.
        """
        mined = mine_lattice(record, self.level, keep_root_maps=True)
        profile = _profiles(mined, (record.root,), self.level - 1)[record.root]
        if sign < 0:
            self.add(profile, -1)
        spanning = self.spanning_delta(root_label, profile)
        if sign > 0:
            self.add(profile, 1)
        return mined, {pattern: sign * n for pattern, n in spanning.items()}

    def add(self, profile: list[_Entry], sign: int) -> None:
        """Add (``sign=1``) or remove (``sign=-1``) one root child's moments."""
        sums = self.sums
        for key, weight in _multisets(profile, self.level - 2):
            total = sums.get(key, 0) + sign * weight
            if total:
                sums[key] = total
            else:
                del sums[key]

    def spanning_delta(
        self, root_label: str, profile: list[_Entry]
    ) -> dict[Canon, int]:
        """Root-anchored count changes from adding a child with ``profile``.

        Every affected pattern is the root label over one child pattern
        of the new child's profile plus a multiset of patterns some
        current root child carries (the single-pattern moment keys), with
        at most ``level - 1`` child nodes in total.
        """
        weights = {pattern: weight for pattern, _, weight in profile}
        singles = sorted(
            (key[0], canon_size(key[0]), 1) for key in self.sums if len(key) == 1
        )
        permanents: dict[tuple[Canon, ...], int] = {(): 1}
        seen: set[tuple[Canon, ...]] = set()
        delta: dict[Canon, int] = {}
        for pattern, size, _ in profile:
            rests: list[tuple[Canon, ...]] = [()]
            budget = self.level - 1 - size
            rests.extend(rest for rest, _ in _multisets(singles, budget))
            for rest in rests:
                kids = tuple(sorted((pattern,) + rest))
                if kids in seen:
                    continue
                seen.add(kids)
                change = 0
                for i, kid in enumerate(kids):
                    if kid in weights and (i == 0 or kids[i - 1] != kid):
                        rows = kids[:i] + kids[i + 1 :]
                        permanent = self._permanent(rows, permanents)
                        change += kids.count(kid) * weights[kid] * permanent
                if change:
                    delta[(root_label, kids)] = change
        return delta

    def _permanent(
        self, rows: tuple[Canon, ...], memo: dict[tuple[Canon, ...], int]
    ) -> int:
        """``perm(m(rows_i, v))`` over the root children, by Möbius
        inversion of the moment sums over the set partitions of ``rows``."""
        got = memo.get(rows)
        if got is None:
            got = 0
            sums = self.sums
            for coefficient, blocks in _partitions(len(rows)):
                term = coefficient
                for block in blocks:
                    term *= sums.get(tuple(rows[i] for i in block), 0)
                    if not term:
                        break
                got += term
            memo[rows] = got
        return got


def _profiles(
    mined: MiningResult, nodes: Iterable[int], max_size: int
) -> dict[int, list[_Entry]]:
    """``m(q, v)`` for every pattern ``q`` of ``<= max_size`` nodes rooted
    at each of ``nodes``, read off a mine's root maps, sorted by pattern."""
    maps = mined.root_maps
    assert maps is not None, "profiles need keep_root_maps=True"
    profiles: dict[int, list[_Entry]] = {node: [] for node in nodes}
    for size in range(1, max_size + 1):
        for pattern in mined.patterns(size):
            for node, count in maps[pattern].items():
                profile = profiles.get(node)
                if profile is not None:
                    profile.append((pattern, size, count))
    for profile in profiles.values():
        profile.sort()
    return profiles


def _multisets(
    entries: list[_Entry], budget: int
) -> list[tuple[tuple[Canon, ...], int]]:
    """Every non-empty multiset of ``entries`` (sorted by pattern) with
    total size ``<= budget``, as ``(sorted pattern tuple, weight product)``."""
    out: list[tuple[tuple[Canon, ...], int]] = []
    stack: list[tuple[int, tuple[Canon, ...], int, int]] = [(0, (), 1, budget)]
    while stack:
        start, key, weight, left = stack.pop()
        for i in range(start, len(entries)):
            pattern, size, w = entries[i]
            if size <= left:
                grown = key + (pattern,)
                out.append((grown, weight * w))
                stack.append((i, grown, weight * w, left - size))
    return out


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Set partitions of ``range(n)``, each with its Möbius coefficient
    ``Π_B (-1)^{|B|-1} (|B|-1)!``."""
    partitions: list[list[tuple[int, ...]]] = [[]]
    for i in range(n):
        partitions = [
            partition[:j] + [partition[j] + (i,)] + partition[j + 1 :]
            for partition in partitions
            for j in range(len(partition))
        ] + [partition + [(i,)] for partition in partitions]
    return tuple(
        (math.prod(_mobius(len(block)) for block in partition), tuple(partition))
        for partition in partitions
    )


def _mobius(size: int) -> int:
    """``(-1)^{size-1} (size-1)!``: one block's Möbius coefficient."""
    factor = math.factorial(size - 1)
    return factor if size % 2 else -factor


def _graft(document: LabeledTree, parent: int, record: LabeledTree) -> int:
    """Copy ``record`` as a new child subtree of ``parent``.

    Returns the document id of the copied record root.
    """
    mapping = {
        record.root: document.add_child(parent, record.label(record.root))  # lint: disable=twig-arg-mutation -- grafting IS this helper's job
    }
    for node in record.preorder():
        if node == record.root:
            continue
        mapping[node] = document.add_child(  # lint: disable=twig-arg-mutation -- see above
            mapping[record.parent(node)], record.label(node)
        )
    return mapping[record.root]


def _cut(document: LabeledTree, node: int) -> None:
    """Remove root child ``node``'s subtree in place, in O(subtree): the
    highest-id survivors move into the freed ids, then the arrays shrink."""
    labels, parents, children = document.labels, document.parents, document.children
    drop = [node]
    for member in drop:  # grows while it is walked: the whole subtree
        drop.extend(children[member])
    children[parents[node]].remove(node)
    keep = len(labels) - len(drop)
    dropped = set(drop)
    movers = [old for old in range(keep, len(labels)) if old not in dropped]
    moved = dict(zip(movers, sorted(free for free in drop if free < keep)))
    for old, new in moved.items():  # old slots are read, never written
        labels[new] = labels[old]
        kids = children[new] = children[old]
        parent = parents[old]
        parents[new] = moved.get(parent, parent)
        siblings = children[parent]
        siblings[siblings.index(old)] = new
        for kid in kids:
            parents[moved.get(kid, kid)] = new
    del labels[keep:], parents[keep:], children[keep:]
