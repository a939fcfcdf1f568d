"""The tree-materialising cold compile, kept as a test oracle.

:class:`TreeOracle` is the recursive estimator's cold compile as it was
before :class:`~repro.core.decompose.LayoutDAG`: it builds every
``T - u``, ``T - v`` and ``T - u - v`` as a :class:`LabeledTree` through
:func:`leaf_pair_decompositions`, then canonicalises and interns each
one.  Everything else (plan cache, memos, kernels) is the estimator's
own, so any difference in values, plans, counters or spans is a
difference in the cold compile.  Used by ``tests/test_layout_dag.py``
and the cold region of ``benchmarks/bench_smoke.py``; it imports no test
framework.
"""

from __future__ import annotations

from repro import RecursiveDecompositionEstimator, obs
from repro.core.decompose import LayoutDAG, leaf_pair_decompositions
from repro.trees.canonical import canon, encode_canon

__all__ = ["TreeOracle", "expected_derivations"]


class TreeOracle(RecursiveDecompositionEstimator):
    """The cold compile over materialised trees (test oracle only)."""

    def _compile_query(self, tree, pattern_id, memo, builder):
        return self._tree_compile(tree, memo, 0, builder)

    def _tree_compile(self, tree, memo, depth, builder):
        key = canon(tree)
        pattern_id = self._plan_keys.intern(key)
        cached = memo.get(pattern_id)
        if cached is not None:
            if obs.enabled:
                self._record_memo("hit")
                if obs.span_recording():
                    obs.span_point(
                        "memo_hit", pattern=encode_canon(key), value=cached
                    )
            return cached, builder.const(cached)
        if obs.enabled:
            self._record_memo("miss")
        value = self._lookup(key, tree.size)
        if value is None:
            if obs.enabled:
                with obs.span("decompose", size=tree.size, depth=depth) as dspan:
                    if obs.span_recording():
                        dspan.set(pattern=encode_canon(key))
                    value, slot = self._tree_decompose(tree, memo, depth, builder)
                    dspan.set(value=value)
            else:
                value, slot = self._tree_decompose(tree, memo, depth, builder)
        else:
            slot = builder.const(value)
        memo[pattern_id] = value
        builder.note_memo(pattern_id, slot)
        return value, slot

    def _tree_decompose(self, tree, memo, depth, builder):
        total = 0.0
        count = 0
        parts = []
        for split in leaf_pair_decompositions(tree):
            if obs.enabled:
                obs.span_point("choice", index=count)
            denominator, denominator_slot = self._tree_compile(
                split.common, memo, depth + 1, builder
            )
            if denominator <= 0.0:
                estimate = 0.0
                part = builder.const(0.0)
            else:
                t1_value, t1_slot = self._tree_compile(
                    split.t1, memo, depth + 1, builder
                )
                t2_value, t2_slot = self._tree_compile(
                    split.t2, memo, depth + 1, builder
                )
                estimate = t1_value * t2_value / denominator
                part = builder.ratio(t1_slot, t2_slot, denominator_slot)
            parts.append(part)
            total += estimate
            count += 1
            if not self.voting:
                break
        if depth + 1 > self._max_depth:
            self._max_depth = depth + 1
        if obs.enabled:
            obs.registry.counter(
                "decompose_steps_total", "Decomposition nodes expanded."
            ).inc()
            obs.registry.histogram(
                "voting_fanout",
                "Leaf-pair decompositions averaged per expanded node.",
            ).observe(count)
            obs.event(
                "decompose_step", size=tree.size, depth=depth, fanout=count
            )
        if not count:
            return 0.0, builder.const(0.0)
        return total / count, builder.average(parts)


def expected_derivations(dag: LayoutDAG, voting: bool) -> int:
    """Rewrites ``dag`` should have made so far.

    An expanded node derives ``T - u`` once per removable node and
    ``T - u - v`` once per pair when voting, or its first split's three
    layouts otherwise.  ``dag.derived`` above this means some layout was
    derived twice.
    """
    total = 0
    for node in range(len(dag)):
        if dag.expanded(node):
            removable = len(dag.layout_tree(node).removable_nodes())
            total += removable + removable * (removable - 1) // 2 if voting else 3
    return total
