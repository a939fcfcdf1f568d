"""Seeded twig-query pools for the estimation phases.

Positive queries are random connected subtrees of the document: pick a
random node, grow downward by adding a random child of the nodes taken
so far until the twig has the drawn size, keep it in canonical layout,
and drop repeated shapes.  About a quarter of every pool are
zero-selectivity queries from :func:`repro.negative_workload`.

``positive_workloads`` cannot serve here: it mines the document up to
the query size, which at ~10.5k nodes takes about 20 s for size 6 and
89 s for size 8, while this sampler needs ~0.04 s for 600 queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import (
    DocumentIndex,
    LabeledTree,
    QueryWorkload,
    TwigQuery,
    canon,
    count_matches,
    negative_workload,
)
from repro.trees import canon_to_tree


@dataclass
class QueryPool:
    """Queries in run order with their exact selectivities."""

    queries: list[LabeledTree]
    truth: list[int]

    def __len__(self) -> int:
        return len(self.queries)


def sample_positive(
    index: DocumentIndex,
    rng: random.Random,
    count: int,
    sizes: tuple[int, int] = (5, 8),
) -> list[LabeledTree]:
    """``count`` distinct connected subtrees of the document, canonical layout.

    Sizes are stratified: each size in ``sizes`` gets an equal share, so
    the mix of cheap and costly shapes does not vary with the seed.
    """
    doc = index.tree
    seen: set = set()
    out: list[LabeledTree] = []
    span = range(sizes[0], sizes[1] + 1)
    for n, size in enumerate(span):
        quota = count * (n + 1) // len(span) - count * n // len(span)
        found = 0
        attempts = 0
        while found < quota:
            attempts += 1
            if attempts > 400 * quota:
                raise RuntimeError(
                    f"document too small: {found} of {quota} distinct "
                    f"{size}-node twigs found"
                )
            nodes = [rng.randrange(doc.size)]
            frontier = list(doc.child_ids(nodes[0]))
            while len(nodes) < size and frontier:
                node = frontier.pop(rng.randrange(len(frontier)))
                nodes.append(node)
                frontier.extend(doc.child_ids(node))
            if len(nodes) < size:
                continue
            key = canon(doc.induced_subtree(nodes))
            if key in seen:
                continue
            seen.add(key)
            out.append(canon_to_tree(key))
            found += 1
    rng.shuffle(out)
    return out


def make_pool(
    index: DocumentIndex, seed: str, positives: int, negatives: int
) -> QueryPool:
    """A shuffled pool of ``positives`` + up to ``negatives`` queries.

    Exact counts come from ``count_matches``; negatives are zero by
    construction (``negative_workload`` keeps only zero-count mutants).
    """
    rng = random.Random(seed)
    pos = sample_positive(index, rng, positives)
    truth = [count_matches(tree, index) for tree in pos]
    neg = negative_workload(
        index,
        QueryWorkload(0, [TwigQuery(tree) for tree in pos], truth),
        seed=rng.randrange(2**31),
        target=negatives,
    )
    pairs = list(zip(pos, truth)) + [(q.tree, 0) for q in neg.queries]
    rng.shuffle(pairs)
    return QueryPool([q for q, _ in pairs], [t for _, t in pairs])


def qerror(estimate: float, truth: int) -> float:
    """Symmetric q-error with both sides clamped to >= 1 (zero truths)."""
    e = max(estimate, 1.0)
    t = max(float(truth), 1.0)
    return e / t if e >= t else t / e
