"""The layout DAG against the tree-materialising recursion it replaced.

:class:`~tests.tree_oracle.TreeOracle` keeps the old cold compile.  The
DAG must derive the same split layouts and give ``float.hex``-equal
estimates, plans, counters and span trees on every path (``estimate``,
``estimate_batch`` on the plan and numpy backends, ``shared_cache``).
"""

from __future__ import annotations

import pickle
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    LabeledTree,
    LatticeSummary,
    RecursiveDecompositionEstimator,
    TreeBuildError,
    obs,
)
from repro.core.decompose import LayoutDAG, leaf_pair_decompositions
from repro.core.explain import explanation_from_spans
from repro.core.pruning import prune_derivable
from repro.trees.canonical import PatternInterner, canon

from .tree_oracle import TreeOracle, expected_derivations

try:
    import numpy  # noqa: F401

    BACKENDS = ["plan", "numpy"]
except ImportError:  # pragma: no cover - numpy is optional
    BACKENDS = ["plan"]

ALPHABET = "abc"


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@st.composite
def layouts(draw, min_size=1, max_size=8):
    """Random trees with repeated labels; some child lists out of id order."""
    size = draw(st.integers(min_size, max_size))
    labels = draw(st.lists(st.sampled_from(ALPHABET), min_size=size, max_size=size))
    tree = LabeledTree(labels[0])
    for node in range(1, size):
        tree.add_child(draw(st.integers(0, node - 1)), labels[node])
    if draw(st.booleans()):
        # Streaming cuts leave child lists like these (a kid below its
        # parent's later siblings); estimators must take them as given.
        for kids in tree.children:
            if len(kids) > 1 and draw(st.booleans()):
                kids.reverse()
    return tree


def _document(seed: int, size: int) -> LabeledTree:
    rng = random.Random(seed)
    doc = LabeledTree("a")
    for node in range(1, size):
        doc.add_child(rng.randrange(max(0, node - 6), node), rng.choice(ALPHABET))
    return doc


DOCUMENT = _document(7, 160)
SUMMARIES = {
    "level2": LatticeSummary.build(DOCUMENT, 2),
    "level3": LatticeSummary.build(DOCUMENT, 3),
    "pruned": prune_derivable(LatticeSummary.build(DOCUMENT, 4), 0.2),
}


def _shape(tree: LabeledTree):
    return (tree.labels, tree.parents, tree.children)


def _hexes(values):
    return [float(v).hex() for v in values]


def _pair(summary, voting, **kwargs):
    return (
        RecursiveDecompositionEstimator(summary, voting=voting, **kwargs),
        TreeOracle(summary, voting=voting, **kwargs),
    )


# ----------------------------------------------------------------------
# Split layouts
# ----------------------------------------------------------------------


def _walk_pairs(dag: LayoutDAG, tree: LabeledTree, node: int, voting: bool, seen):
    """Compare a node's splits with the oracle's, then recurse into them."""
    if node in seen:
        assert _shape(dag.layout_tree(node)) == seen[node]
        return
    seen[node] = _shape(tree)
    assert _shape(dag.layout_tree(node)) == _shape(tree)
    if tree.size < 3:
        with pytest.raises(TreeBuildError):
            dag.splits(node)
        return
    expected = list(islice(leaf_pair_decompositions(tree), None if voting else 1))
    flat = dag.splits(node)
    assert len(flat) == 3 * len(expected)
    for index, split in enumerate(expected):
        for offset, part in enumerate((split.t1, split.t2, split.common)):
            _walk_pairs(dag, part, flat[3 * index + offset], voting, seen)


@settings(max_examples=150, deadline=None)
@given(tree=layouts(), voting=st.booleans())
def test_split_layouts_match_leaf_pair_decompositions(tree, voting):
    interner = PatternInterner()
    dag = LayoutDAG(interner, voting=voting)
    node = dag.node_of(tree, interner.intern(canon(tree)))
    _walk_pairs(dag, tree, node, voting, {})
    for other in range(len(dag)):
        if other != node:
            assert interner.canon_of(dag.pattern_id(other)) == canon(
                dag.layout_tree(other)
            )


def test_large_layouts_use_wide_parent_ids():
    # Above 256 nodes parent ids no longer fit a byte; this twig's
    # splits cross from wide keys (258, 257 nodes) to byte keys (256).
    tree = LabeledTree.path(["a"] * 129)
    for _ in range(129):
        tree.add_child(0, "b")
    interner = PatternInterner()
    dag = LayoutDAG(interner, voting=False)
    node = dag.node_of(tree, interner.intern(canon(tree)))
    _walk_pairs(dag, tree, node, False, {})
    assert {dag.size(other) for other in range(len(dag))} >= {258, 257, 256, 255}


# ----------------------------------------------------------------------
# Estimates
# ----------------------------------------------------------------------

queries = st.lists(layouts(min_size=1, max_size=7), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    batch=queries,
    name=st.sampled_from(sorted(SUMMARIES)),
    voting=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_estimates_match_oracle(batch, name, voting, seed):
    random.Random(seed).shuffle(batch)
    summary = SUMMARIES[name]
    dag, oracle = _pair(summary, voting)
    assert _hexes(map(dag.estimate, batch)) == _hexes(map(oracle.estimate, batch))
    # Warm replays of the plans just compiled agree too.
    assert _hexes(map(dag.estimate, batch)) == _hexes(map(oracle.estimate, batch))
    for backend in BACKENDS:
        dag, oracle = _pair(summary, voting)
        assert _hexes(dag.estimate_batch(batch, backend=backend)) == _hexes(
            oracle.estimate_batch(batch, backend=backend)
        )
    dag, oracle = _pair(summary, voting, shared_cache=True)
    half = len(batch) // 2
    assert _hexes(map(dag.estimate, batch[:half])) == _hexes(
        map(oracle.estimate, batch[:half])
    )
    assert _hexes(dag.estimate_batch(batch[half:], backend=BACKENDS[-1])) == _hexes(
        oracle.estimate_batch(batch[half:], backend=BACKENDS[-1])
    )


@pytest.mark.parametrize("voting", [False, True])
def test_plans_match_oracle(voting):
    rng = random.Random(3)
    trees = [_document(rng.randrange(1000), rng.randint(4, 8)) for _ in range(40)]
    dag, oracle = _pair(SUMMARIES["level3"], voting)
    dag.estimate_batch(trees)
    oracle.estimate_batch(trees)
    assert dag._plans.keys() == oracle._plans.keys()
    for key, plan in dag._plans.items():
        assert plan.__getstate__() == oracle._plans[key].__getstate__()


def test_size_two_twig_over_level_one_summary_raises_like_the_oracle():
    summary = LatticeSummary.build(DOCUMENT, 2)
    summary.level = 1  # an inconsistent summary: size-2 twigs must decompose
    for estimator in _pair(summary, False):
        with pytest.raises(TreeBuildError, match="size 2"):
            estimator.estimate("a(b)")


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def _metrics(registry):
    out = {}
    for metric in registry:
        if hasattr(metric, "samples"):
            out[metric.name] = sorted(
                (sorted(labels.items()), value) for labels, value in metric.samples()
            )
        elif hasattr(metric, "bucket_counts"):
            out[metric.name] = (metric.count, metric.sum, list(metric.bucket_counts))
    return out


def _span_tree(spans):
    index = {span.span_id: i for i, span in enumerate(spans)}
    return [
        (span.name, index.get(span.parent_id), span.point, sorted(span.attrs.items()))
        for span in spans
    ]


def _observe(estimator, batch, run):
    with obs.flight_recorder(trace=True) as recording:
        run(estimator, batch)
    events = [
        {k: v for k, v in event.items() if k != "ts"}
        for event in recording.trace.events
    ]
    spans = recording.spans.spans
    return _metrics(recording.registry), events, _span_tree(spans)


RUNS = {
    "estimate": lambda e, batch: [e.estimate(q) for q in batch],
    "batch": lambda e, batch: e.estimate_batch(batch),
    "numpy": lambda e, batch: e.estimate_batch(batch, backend=BACKENDS[-1]),
}


@settings(max_examples=25, deadline=None)
@given(
    batch=queries,
    name=st.sampled_from(sorted(SUMMARIES)),
    voting=st.booleans(),
    run=st.sampled_from(sorted(RUNS)),
)
def test_observability_matches_oracle(batch, name, voting, run):
    dag, oracle = _pair(SUMMARIES[name], voting)
    assert _observe(dag, batch, RUNS[run]) == _observe(oracle, batch, RUNS[run])


@pytest.mark.parametrize("voting", [False, True])
def test_explain_matches_oracle(voting):
    rng = random.Random(11)
    for _ in range(10):
        tree = _document(rng.randrange(1000), rng.randint(4, 8))
        rendered = []
        for estimator in _pair(SUMMARIES["pruned"], voting):
            with obs.flight_recorder() as recording:
                estimator.estimate(tree)
            rendered.append(_untimed(explanation_from_spans(recording.spans).to_dict()))
        assert rendered[0] == rendered[1]


def _untimed(node):
    node.pop("wall_ms", None)
    for child in node.get("children", ()):
        _untimed(child)
    return node


# ----------------------------------------------------------------------
# Work counts and cache lifecycle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("voting", [False, True])
def test_cold_compiles_build_no_trees(monkeypatch, small_nasa, voting):
    rng = random.Random(4)
    trees = []
    while len(trees) < 40:
        nodes = [rng.randrange(small_nasa.size)]
        frontier = list(small_nasa.child_ids(nodes[0]))
        while len(nodes) < 8 and frontier:
            nodes.append(frontier.pop(rng.randrange(len(frontier))))
            frontier.extend(small_nasa.child_ids(nodes[-1]))
        if len(nodes) >= 5:
            trees.append(small_nasa.induced_subtree(nodes))
    summary = LatticeSummary.build(small_nasa, 3)
    estimator = RecursiveDecompositionEstimator(summary, voting=voting)
    calls = []
    for name in ("__init__", "induced_subtree", "remove_node", "remove_nodes"):
        original = getattr(LabeledTree, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(LabeledTree, name, counted)
    values = [estimator.estimate(tree) for tree in trees]
    assert calls == []
    monkeypatch.undo()
    dag = estimator._dag
    assert dag.derived == expected_derivations(dag, voting) > 0
    oracle = TreeOracle(summary, voting=voting)
    assert _hexes(values) == _hexes(map(oracle.estimate, trees))


def test_dag_is_dropped_by_clear_cache_and_not_pickled(figure1_lattice):
    estimator = RecursiveDecompositionEstimator(figure1_lattice, voting=True)
    query = "computer(laptops(laptop(brand,price)),desktops(desktop))"
    value = estimator.estimate(query)
    assert len(estimator._dag) > 1
    clone = pickle.loads(pickle.dumps(estimator))
    assert len(clone._dag) == 0
    assert clone.estimate(query) == value
    clone.clear_cache()
    assert clone.estimate(query) == value
    estimator.clear_cache()
    assert len(estimator._dag) == 0
    assert estimator.estimate(query) == value

