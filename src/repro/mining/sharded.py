"""Shard → merge lattice construction (the compositional mining path).

The whole-document miner (:func:`~repro.mining.freqt.mine_lattice`)
builds one summary in one pass; this module re-layers that construction
around the store monoid so summaries *compose*:

1. **Plan** — :func:`~repro.trees.regions.plan_shards` splits the
   document into pairwise-disjoint subtree shards plus a small *residue*
   (the split spine: ancestors of the shard roots).
2. **Mine** — each shard subtree is mined independently (serially here,
   or fanned out over workers through the retry engine by
   :class:`~repro.parallel.sharding.ShardMiningPool`) into its own
   :class:`~repro.store.DictStore`.
3. **Correct** — every pattern occurrence maps its root to exactly one
   document node; occurrences rooted inside a shard subtree are counted
   by that shard's mine, so the only ones missing are those rooted at a
   residue node.  :func:`anchored_counts` counts exactly those against
   the *full* document index (the multi-anchor generalisation of the
   incremental layer's root-anchored argument), so cross-shard patterns
   are counted exactly once.
4. **Merge** — shard stores and the boundary correction combine through
   :meth:`~repro.store.SummaryStore.merge` (counts add), then one
   reorder pass replays the merged counts in the serial miner's exact
   emission order: level 1 in the document's label-first-occurrence
   order, every deeper level in ascending canon order.  The result is
   **bit-identical to the serial path — counts and dict order** — which
   is a CI acceptance gate, not an aspiration.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..store.dict_store import DictStore
from ..trees.canonical import Canon, canon_size
from ..trees.labeled_tree import LabeledTree
from ..trees.matching import DocumentIndex, _rooted
from ..trees.regions import ShardPlan, plan_shards
from .freqt import MiningResult, _generate_candidates, mine_lattice

if TYPE_CHECKING:  # runtime import is lazy: repro.parallel pulls in core
    from ..resilience import RetryPolicy
    from ..store import SummaryStore

__all__ = [
    "anchored_counts",
    "merge_shard_stores",
    "mine_shard_store",
    "mine_lattice_sharded",
]


def anchored_counts(
    index: DocumentIndex, anchors: Sequence[int], max_size: int
) -> dict[Canon, int]:
    """Occurrence counts restricted to pattern roots in ``anchors``.

    For every pattern of ``<= max_size`` nodes, the number of matches
    whose *pattern root* maps to one of the anchor nodes, counted
    against the full document.  Level-wise enumeration seeded at the
    anchors' labels; completeness follows from the leaf-removal closure
    (removing a non-root leaf of an anchored pattern leaves an anchored
    pattern at the same node).  With a shard plan's residue it is the
    boundary-pattern correction of the sharded mine; with
    ``anchors = [root]`` it is the whole-document recount that the
    streaming layer's O(record) spanning delta is tested against.
    """
    out: dict[Canon, int] = {}
    if not anchors or max_size < 1:
        return out
    tree = index.tree
    memo: dict[Canon, dict[int, int]] = {}
    for anchor in anchors:
        seed = (tree.label(anchor), ())
        out[seed] = out.get(seed, 0) + 1
    frontier = sorted(out)
    for _size in range(2, max_size + 1):
        candidates = _generate_candidates(frontier, index)
        frontier = []
        for candidate in candidates:
            rooted = _rooted(candidate, index, memo)
            anchored = sum(rooted.get(anchor, 0) for anchor in anchors)
            if anchored:
                out[candidate] = anchored
                frontier.append(candidate)
        if not frontier:
            break
    return out


def mine_shard_store(subtree: LabeledTree, max_size: int) -> DictStore:
    """Mine one shard subtree into a fresh :class:`DictStore`.

    Runs in shard-mining workers (and as the serial shard path), so it
    must stay a pure function of its arguments — the store arrives back
    in the parent as a checksummed payload.
    """
    store = DictStore()
    mine_lattice(subtree, max_size, sink=store)
    return store


def mine_lattice_sharded(
    document: LabeledTree | DocumentIndex,
    max_size: int,
    *,
    shards: int,
    workers: int | None = None,
    sink: "SummaryStore | None" = None,
    retry: "RetryPolicy | None" = None,
) -> MiningResult:
    """Mine ``document`` shard-by-shard and merge — bit-identical to serial.

    Parameters mirror :func:`~repro.mining.freqt.mine_lattice` where
    they overlap; ``shards`` sets the planner's granularity target
    (``1`` collapses to a single whole-document shard) and ``workers``
    fans shard mining out over processes through the retry engine
    (``None``/``1`` = serial, ``0`` = one per core).  The returned
    result and everything streamed into ``sink`` match the serial
    miner's output exactly: counts *and* emission order.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    index = document if isinstance(document, DocumentIndex) else DocumentIndex(document)
    if not obs.enabled:
        return _mine_sharded(index, max_size, shards, workers, sink, retry)
    with obs.span("sharded_mine", shards=shards, max_size=max_size):
        return _mine_sharded(index, max_size, shards, workers, sink, retry)


def _mine_sharded(
    index: DocumentIndex,
    max_size: int,
    shards: int,
    workers: int | None,
    sink: "SummaryStore | None",
    retry: "RetryPolicy | None",
) -> MiningResult:
    tree = index.tree
    plan = plan_shards(tree, shards)
    n_workers = 1
    if workers is not None:
        from ..parallel.pool import resolve_workers

        n_workers = resolve_workers(workers)

    mining_start = time.perf_counter()
    subtrees = [tree.subtree_at(root) for root in plan.roots]
    if n_workers > 1 and len(subtrees) > 1:
        from ..parallel.sharding import ShardMiningPool

        with ShardMiningPool(max_size, n_workers, retry=retry) as pool:
            shard_stores = pool.mine(subtrees)
    else:
        shard_stores = [mine_shard_store(subtree, max_size) for subtree in subtrees]
    mining_seconds = time.perf_counter() - mining_start

    boundary_start = time.perf_counter()
    boundary = anchored_counts(index, plan.residue, max_size)
    boundary_seconds = time.perf_counter() - boundary_start

    merge_start = time.perf_counter()
    levels = merge_shard_stores(index, shard_stores, boundary, max_size)
    if sink is not None:
        for level in levels.values():
            for pattern, count in level.items():
                sink.add(pattern, count)
    merge_seconds = time.perf_counter() - merge_start

    if obs.enabled:
        _record_sharded(
            plan, mining_seconds, boundary_seconds, merge_seconds, levels
        )
    return MiningResult(levels=levels, max_size=max_size)


def merge_shard_stores(
    index: DocumentIndex,
    shard_stores: Sequence[DictStore],
    boundary: dict[Canon, int],
    max_size: int,
) -> dict[int, dict[Canon, int]]:
    """Fold shard stores + boundary correction, replaying serial order.

    This is the entire post-mining phase of the sharded path — monoid
    folds of the shard stores, one more fold for the residue-anchored
    boundary counts, and the serial-order replay — exposed as one pure
    function so the benchmark gate (``bench_smoke``'s shard-merge timed
    region) measures exactly what the runtime executes.
    """
    merged = DictStore()
    for store in shard_stores:
        merged = merged.merge(store)
    if boundary:
        merged = merged.merge(DictStore.from_counts(boundary))
    return _serial_order_levels(index, merged, max_size)


def _serial_order_levels(
    index: DocumentIndex, merged: DictStore, max_size: int
) -> dict[int, dict[Canon, int]]:
    """Replay merged counts in the serial miner's exact emission order.

    The serial miner emits level 1 in ``nodes_by_label`` insertion order
    (labels in first-occurrence node order) and every deeper level in
    ascending canon order (it walks ``sorted(candidates)`` and the
    occurring patterns are a subset), stopping after the first empty
    level.  Reproducing that order from the merged counts is what makes
    the sharded path bit-identical to the serial one, dict order
    included.
    """
    counts = dict(merged.items())
    levels: dict[int, dict[Canon, int]] = {}
    level1: dict[Canon, int] = {}
    for label in index.nodes_by_label:
        key: Canon = (label, ())
        level1[key] = counts.pop(key)
    levels[1] = level1
    by_size: dict[int, list[Canon]] = {}
    for key in counts:
        by_size.setdefault(canon_size(key), []).append(key)
    for size in range(2, max_size + 1):
        level = {key: counts[key] for key in sorted(by_size.get(size, []))}
        levels[size] = level
        if not level:
            break
    return levels


def _record_sharded(
    plan: ShardPlan,
    mining_seconds: float,
    boundary_seconds: float,
    merge_seconds: float,
    levels: dict[int, dict[Canon, int]],
) -> None:
    """Shard-phase metrics (only called when observability is on)."""
    if not obs.enabled:  # call sites check too; this is defence in depth
        return
    obs.registry.counter(
        "shard_mines_total", "Sharded lattice mines since process start."
    ).inc()
    obs.registry.gauge(
        "shard_plan_roots", "Shard subtrees in the last shard plan."
    ).set(plan.num_shards)
    obs.registry.gauge(
        "shard_plan_residue", "Residue (spine) nodes in the last shard plan."
    ).set(len(plan.residue))
    obs.registry.timer(
        "shard_mining_seconds", "Wall time mining all shard subtrees."
    ).observe(mining_seconds)
    obs.registry.timer(
        "shard_boundary_seconds",
        "Wall time counting residue-rooted boundary patterns.",
    ).observe(boundary_seconds)
    obs.registry.timer(
        "shard_merge_seconds",
        "Wall time merging shard stores and replaying serial order.",
    ).observe(merge_seconds)
    obs.event(
        "sharded_mine",
        shards=plan.num_shards,
        residue=len(plan.residue),
        patterns=sum(len(level) for level in levels.values()),
        mining_seconds=round(mining_seconds, 6),
        boundary_seconds=round(boundary_seconds, 6),
        merge_seconds=round(merge_seconds, 6),
    )
