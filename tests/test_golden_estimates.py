"""Golden lock on estimate *values*.

Cross-backend checks compare the estimators with themselves, so a change
that moves every backend together passes them.  This module pins the
exact ``float.hex`` of every estimate of a fixed workload instead: small
xmark, NASA and IMDB documents × {recursive, voting, fix-sized}, each
through ``estimate()`` on one long-lived estimator (plans compiled and
replayed in query order) and through one ``estimate_batch`` call on a
fresh estimator (one cross-query memo).

The queries are stored as exact node layouts (labels plus parent ids),
not canonical forms: which leaf pair a decomposition takes first
depends on the layout, so the layout is part of the input.  The
workload holds document-layout twigs of 4-8 nodes, twigs whose root has
a single child, twigs with repeated sibling labels, label-mutated
(mostly zero) twigs and sibling-reversed copies of earlier twigs (same
shape, different layout).  The NASA summary is δ-pruned so pruned
misses decompose too.

Regenerate (only when an estimate change is intended, and say so)::

    PYTHONPATH=src python tests/test_golden_estimates.py --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro import (
    FixedDecompositionEstimator,
    LabeledTree,
    LatticeSummary,
    RecursiveDecompositionEstimator,
    generate_imdb,
    generate_nasa,
    generate_xmark,
)
from repro.core.pruning import prune_derivable

GOLDEN = Path(__file__).with_name("golden_estimates.json")

#: dataset -> (document factory, lattice level, pruning delta or None)
DATASETS = {
    "xmark": (lambda: generate_xmark(2, 1), 3, None),
    "nasa": (lambda: generate_nasa(15, 1), 3, 0.1),
    "imdb": (lambda: generate_imdb(12, 1), 4, None),
}

ESTIMATORS = {
    "recursive": lambda s: RecursiveDecompositionEstimator(s),
    "voting": lambda s: RecursiveDecompositionEstimator(s, voting=True),
    "fixed": lambda s: FixedDecompositionEstimator(s),
}


def summary_for(name: str) -> LatticeSummary:
    make, level, delta = DATASETS[name]
    summary = LatticeSummary.build(make(), level)
    if delta is not None:
        summary = prune_derivable(summary, delta)
    return summary


def layout_of(tree: LabeledTree) -> list[list]:
    return [list(tree.labels), list(tree.parents)]


def tree_of(layout: list[list]) -> LabeledTree:
    labels, parents = layout
    tree = LabeledTree(labels[0])
    for label, parent in zip(labels[1:], parents[1:]):
        tree.add_child(parent, label)
    return tree


def _grow(doc: LabeledTree, rng: random.Random, start: int, size: int) -> list[int]:
    nodes = [start]
    frontier = list(doc.child_ids(start))
    while len(nodes) < size and frontier:
        node = frontier.pop(rng.randrange(len(frontier)))
        nodes.append(node)
        frontier.extend(doc.child_ids(node))
    return nodes


def make_workload(doc: LabeledTree, seed: str) -> list[LabeledTree]:
    """The pinned workload's generator (only run by ``--write``)."""
    rng = random.Random(seed)
    out: list[LabeledTree] = []
    while len(out) < 16:
        nodes = _grow(doc, rng, rng.randrange(doc.size), rng.randint(4, 8))
        if len(nodes) >= 4:
            out.append(doc.induced_subtree(nodes))
    # Single-child root: a twig under its document parent.
    while len(out) < 20:
        start = rng.randrange(1, doc.size)
        nodes = _grow(doc, rng, start, rng.randint(3, 6))
        if len(nodes) >= 3:
            out.append(doc.induced_subtree([doc.parent(start)] + nodes))
    # Repeated sibling labels under one node.
    twins = [
        n
        for n in range(doc.size)
        if len({doc.label(c) for c in doc.child_ids(n)}) < len(doc.child_ids(n))
    ]
    while len(out) < 24:
        node = rng.choice(twins)
        kids = list(doc.child_ids(node))
        by_label: dict[str, list[int]] = {}
        for kid in kids:
            by_label.setdefault(doc.label(kid), []).append(kid)
        pair = rng.choice([v for v in by_label.values() if len(v) > 1])[:2]
        nodes = [node, *pair]
        frontier = [c for p in pair for c in doc.child_ids(p)]
        frontier += [k for k in kids if k not in pair]
        while len(nodes) < rng.randint(4, 7) and frontier:
            pick = frontier.pop(rng.randrange(len(frontier)))
            nodes.append(pick)
            frontier.extend(doc.child_ids(pick))
        out.append(doc.induced_subtree(nodes))
    # Label-mutated twigs (mostly zero selectivity).
    vocabulary = sorted(set(doc.labels))
    for base in rng.sample(out[:16], 3):
        mutant = base.copy()
        mutant.labels[rng.randrange(mutant.size)] = rng.choice(vocabulary)
        out.append(mutant)
    # Same shapes as earlier twigs, siblings reversed.
    for base in rng.sample(out[:24], 3):
        out.append(base.induced_subtree(range(base.size)))
    return out


def run_estimates(name: str, kind: str, queries: list[LabeledTree]) -> dict:
    summary = summary_for(name)
    single = ESTIMATORS[kind](summary)
    batch = ESTIMATORS[kind](summary)
    return {
        "estimate": [single.estimate(q).hex() for q in queries],
        "batch": [v.hex() for v in batch.estimate_batch(queries)],
    }


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_estimates_match_golden(name: str, kind: str) -> None:
    golden = _load()[name]
    queries = [tree_of(layout) for layout in golden["queries"]]
    assert run_estimates(name, kind, queries) == golden["estimates"][kind]


def test_workload_covers_the_awkward_shapes() -> None:
    golden = _load()
    for name in DATASETS:
        queries = [tree_of(layout) for layout in golden[name]["queries"]]
        assert len(queries) == 30
        assert any(len(q.child_ids(0)) == 1 for q in queries)
        assert any(
            len({q.label(c) for c in q.child_ids(n)}) < len(q.child_ids(n))
            for q in queries
            for n in range(q.size)
        )
        assert max(q.size for q in queries) > DATASETS[name][1] + 2


def write_golden() -> None:
    out: dict = {}
    for name, (make, _, _) in DATASETS.items():
        queries = make_workload(make(), f"golden:{name}")
        out[name] = {
            "queries": [layout_of(q) for q in queries],
            "estimates": {
                kind: run_estimates(name, kind, queries) for kind in ESTIMATORS
            },
        }
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_estimates.py --write")
    write_golden()
