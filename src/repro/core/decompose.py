"""Twig decomposition primitives (paper §3.1-§3.3).

Two ways to take a twig apart:

* :func:`leaf_pair_decompositions` — the recursive scheme's step: pick
  two degree-1 nodes ``u, v`` and produce ``T1 = T - u``, ``T2 = T - v``
  and their maximal overlap ``T∩ = T - u - v`` (Lemma 1).
  :class:`LayoutDAG` derives the same splits on flat arrays, once per
  sub-twig layout, for the recursive estimator's cold compile.
* :func:`fixed_cover` — the fix-sized scheme: cover the twig with exactly
  ``n - k + 1`` subtrees of size ``k`` in canonical pre-order, each new
  block overlapping the covered prefix in a ``(k-1)``-subtree (Lemma 2,
  whose constructive proof is this function).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence, Union

from .. import obs
from ..trees.canonical import Canon, PatternInterner, canonical_preorder
from ..trees.labeled_tree import LabeledTree, TreeBuildError

__all__ = [
    "LeafPairSplit",
    "CoverBlock",
    "LayoutDAG",
    "leaf_pair_decompositions",
    "first_leaf_pair_split",
    "fixed_cover",
]


@dataclass(frozen=True)
class LeafPairSplit:
    """One recursive-decomposition step: ``s(T) ≈ s(t1) * s(t2) / s(common)``."""

    t1: LabeledTree
    t2: LabeledTree
    common: LabeledTree


@dataclass(frozen=True)
class CoverBlock:
    """One block of a fix-sized cover.

    ``overlap`` is the block's intersection with the previously covered
    prefix — always a ``(k-1)``-subtree, or ``None`` for the first block
    (which has no predecessor).
    """

    block: LabeledTree
    overlap: LabeledTree | None


def leaf_pair_decompositions(tree: LabeledTree) -> Iterator[LeafPairSplit]:
    """Yield every leaf-pair decomposition of ``tree``.

    ``tree`` must have at least three nodes, otherwise removing two
    degree-1 nodes would leave nothing.  Each yielded split removes a
    distinct unordered pair of removable nodes; the voting estimator
    averages over all of them, the plain estimator takes the first.
    """
    if tree.size < 3:
        raise TreeBuildError(
            f"cannot leaf-pair decompose a tree of size {tree.size}"
        )
    nodes = tree.removable_nodes()
    for u, v in combinations(nodes, 2):
        if obs.enabled:
            record_split()
        yield LeafPairSplit(
            t1=tree.remove_node(u),
            t2=tree.remove_node(v),
            common=tree.remove_nodes((u, v)),
        )


def record_split() -> None:
    """Count one leaf-pair split visited by a decomposition (obs on)."""
    if not obs.enabled:  # call sites check too; this is defence in depth
        return
    obs.registry.counter(
        "decompose_splits_total",
        "Leaf-pair splits visited by the decomposers.",
    ).inc()


def first_leaf_pair_split(tree: LabeledTree) -> LeafPairSplit:
    """The deterministic first decomposition (the non-voting estimator's split)."""
    return next(iter(leaf_pair_decompositions(tree)))


#: A layout key: the node labels (label ids) as ``array("H")`` bytes,
#: then the parent ids of nodes ``1..n-1``, one byte each up to
#: ``_BYTE_PARENTS`` nodes and ``array("H")`` bytes above.  A query tree
#: whose child lists are not in id order carries them explicitly too.
LayoutKey = Union[bytes, tuple[bytes, tuple[tuple[int, ...], ...]]]

_LABELS = "H"
_BYTE_PARENTS = 256
#: ``_SHIFT[a]`` maps each parent id ``p`` to ``p - (p > a)``: the
#: renumbering after position ``a`` is deleted.
_SHIFT = [bytes(range(a + 1)) + bytes(range(a, 255)) for a in range(256)]


def _layout_key(labels: Sequence[int], parents: Sequence[int]) -> bytes:
    """Key of a layout; ``parents`` holds the parents of nodes ``1..n-1``."""
    if len(labels) <= _BYTE_PARENTS:
        return array(_LABELS, labels).tobytes() + bytes(parents)
    return array(_LABELS, [*labels, *parents]).tobytes()


def _cut_bytes(labels: bytes, parents: bytes, a: int, b: int) -> bytes:
    """Key of a byte-parent layout without positions ``a`` and ``b > a``.

    ``b < 0`` deletes ``a`` only.  Deleted positions are leaves, or the
    root when its one child becomes the new root, so no kept node names
    them as parent and dropping entries plus renumbering is the whole
    rewrite.
    """
    if b < 0:
        kept = parents[: a - 1] + parents[a:] if a else parents[1:]
        return labels[: 2 * a] + labels[2 * a + 2 :] + kept.translate(_SHIFT[a])
    kept = (parents[: a - 1] + parents[a : b - 1] if a else parents[1 : b - 1]) + parents[b:]
    return (
        labels[: 2 * a]
        + labels[2 * a + 2 : 2 * b]
        + labels[2 * b + 2 :]
        + kept.translate(_SHIFT[b]).translate(_SHIFT[a])
    )


def _cut_lists(labels: list[int], parents: list[int], a: int, b: int) -> bytes:
    """:func:`_cut_bytes` for layouts too large for byte parents."""
    keep = [n for n in range(len(labels)) if n != a and n != b]
    renumber = [0] * len(labels)
    for new, old in enumerate(keep):
        renumber[old] = new
    return _layout_key(
        [labels[n] for n in keep], [renumber[parents[n - 1]] for n in keep[1:]]
    )


class LayoutDAG:
    """Leaf-pair splits of one estimator's sub-twig layouts, derived once.

    A node is one exact layout: the labels and parents that
    :meth:`LabeledTree.induced_subtree` would produce.  The key is the
    layout rather than the canonical form because the recursive
    estimator's values depend on it: the first leaf pair, the order of
    the voting sum and which sub-twig reaches the memo first all follow
    node ids.  Splits are derived on flat arrays.  The layout
    ``induced_subtree`` gives ``T`` itself is computed once per node;
    ``T - u`` (``u`` a leaf, or a single-child root) is that layout with
    ``u``'s position deleted, because ``induced_subtree`` visits the
    remaining nodes in the same order.  So ``T - u`` is derived once per
    removable node, ``T - u - v`` once per pair, and no
    :class:`LabeledTree` is built.

    Nodes hold ints only: the pattern id in the owning estimator's
    interner (canonicalised from the arrays when first asked for), the
    size, and the splits as a flat ``(t1, t2, common)`` node-id array in
    :func:`leaf_pair_decompositions` order.  With ``voting=False`` only
    the first split is derived.  The DAG is a process-local cache: the
    estimator drops it on ``clear_cache()`` and never pickles it.
    """

    __slots__ = (
        "_patterns",
        "_voting",
        "_index",
        "_keys",
        "_sizes",
        "_pids",
        "_splits",
        "lookups",
        "derived",
    )

    def __init__(self, interner: PatternInterner, *, voting: bool) -> None:
        self._patterns = interner
        self._voting = voting
        self._index: dict[LayoutKey, int] = {}
        self._keys: list[LayoutKey] = []
        self._sizes: list[int] = []
        self._pids: list[int] = []
        self._splits: list["array[int] | None"] = []
        #: Summary value per pattern id (``None``: decompose), filled in
        #: by the estimator.
        self.lookups: dict[int, float | None] = {}
        #: Layouts produced by the split rewrite, new or already known.
        self.derived = 0

    def __len__(self) -> int:
        return len(self._keys)

    def node_of(self, tree: LabeledTree, pattern_id: int) -> int:
        """The node of ``tree``'s layout; ``pattern_id`` is its canon's id."""
        intern_label = self._patterns.intern_label
        key: LayoutKey = _layout_key(
            [intern_label(label) for label in tree.labels], tree.parents[1:]
        )
        if any(
            kids[i] > kids[i + 1]
            for kids in tree.children
            for i in range(len(kids) - 1)
        ):
            key = (key, tuple(tuple(kids) for kids in tree.children))
        node = self._index.get(key)
        if node is None:
            node = self._add(key, tree.size)
        self._pids[node] = pattern_id
        return node

    def size(self, node: int) -> int:
        return self._sizes[node]

    def pattern_id(self, node: int) -> int:
        """Interned id of the node's canonical form (interned on first use)."""
        pattern_id = self._pids[node]
        if pattern_id < 0:
            pattern_id = self._patterns.intern(self._canon(node))
            self._pids[node] = pattern_id
        return pattern_id

    def splits(self, node: int) -> "array[int]":
        """Flat ``(t1, t2, common)`` node ids, derived on first call.

        Raises :class:`TreeBuildError` below three nodes, as
        :func:`leaf_pair_decompositions` does.
        """
        got = self._splits[node]
        if got is None:
            got = self._expand(node)
            self._splits[node] = got
        return got

    def expanded(self, node: int) -> bool:
        """Whether the node's splits have been derived."""
        return self._splits[node] is not None

    def layout_tree(self, node: int) -> LabeledTree:
        """The node's layout as a :class:`LabeledTree` (tests, debugging)."""
        labels, children = self._layout(node)
        tree = LabeledTree.__new__(LabeledTree)
        tree.labels = [self._patterns.label_of(label) for label in labels]
        tree.children = [list(kids) for kids in children]
        tree.parents = [-1] * len(labels)
        for parent, kids in enumerate(children):
            for kid in kids:
                tree.parents[kid] = parent
        return tree

    # ------------------------------------------------------------------

    def _add(self, key: LayoutKey, size: int) -> int:
        node = len(self._keys)
        self._index[key] = node
        self._keys.append(key)
        self._sizes.append(size)
        self._pids.append(-1)
        self._splits.append(None)
        return node

    def _flat(self, node: int) -> tuple["array[int]", Sequence[int]]:
        """``(label ids, parents of nodes 1..n-1)`` from the node's key."""
        key = self._keys[node]
        if isinstance(key, tuple):
            key = key[0]
        size = self._sizes[node]
        labels = array(_LABELS)
        labels.frombytes(key[: 2 * size])
        if size <= _BYTE_PARENTS:
            return labels, key[2 * size :]
        parents = array(_LABELS)
        parents.frombytes(key[2 * size :])
        return labels, parents

    def _layout(self, node: int) -> tuple["array[int]", Sequence[Sequence[int]]]:
        """``(label ids, child lists)`` of the node."""
        labels, parents = self._flat(node)
        key = self._keys[node]
        if isinstance(key, tuple):
            return labels, key[1]
        children: list[list[int]] = [[] for _ in labels]
        for kid, parent in enumerate(parents, 1):
            children[parent].append(kid)
        return labels, children

    def _canon(self, node: int) -> Canon:
        """Canon tuple of a derived node (every parent id below its kids')."""
        labels, parents = self._flat(node)
        label_of = self._patterns.label_of
        kids: list[list[Canon]] = [[] for _ in labels]
        for current in range(len(labels) - 1, 0, -1):
            kids[parents[current - 1]].append(
                (label_of(labels[current]), tuple(sorted(kids[current])))
            )
        return (label_of(labels[0]), tuple(sorted(kids[0])))

    def _expand(self, node: int) -> "array[int]":
        size = self._sizes[node]
        if size < 3:
            raise TreeBuildError(
                f"cannot leaf-pair decompose a tree of size {size}"
            )
        labels, children = self._layout(node)
        # The layout induced_subtree gives the whole tree: each popped
        # node's children are numbered consecutively, in reverse order.
        position = [0] * size
        flat_labels = [labels[0]]
        flat_parents: list[int] = []
        stack = [0]
        while stack:
            current = stack.pop()
            for kid in reversed(children[current]):
                position[kid] = len(flat_labels)
                flat_labels.append(labels[kid])
                flat_parents.append(position[current])
                stack.append(kid)
        removable = [n for n in range(1, size) if not children[n]]
        if len(children[0]) == 1:
            removable.insert(0, 0)
        drops = [position[n] for n in removable]
        byte_parents = size <= _BYTE_PARENTS
        packed_labels = array(_LABELS, flat_labels).tobytes()
        packed_parents = bytes(flat_parents) if byte_parents else b""

        def derive(a: int, b: int) -> int:
            """Node of this layout without positions ``a`` (and ``b >= 0``)."""
            self.derived += 1
            if 0 <= b < a:
                a, b = b, a
            if byte_parents:
                key = _cut_bytes(packed_labels, packed_parents, a, b)
            else:
                key = _cut_lists(flat_labels, flat_parents, a, b)
            got = self._index.get(key)
            return self._add(key, size - 1 - (b >= 0)) if got is None else got

        if not self._voting:
            u, v = drops[0], drops[1]
            return array("l", (derive(u, -1), derive(v, -1), derive(u, v)))
        minus = [derive(d, -1) for d in drops]
        out = array("l")
        for i, j in combinations(range(len(drops)), 2):
            out.extend((minus[i], minus[j], derive(drops[i], drops[j])))
        return out


def fixed_cover(tree: LabeledTree, k: int) -> list[CoverBlock]:
    """Cover ``tree`` with ``size - k + 1`` subtrees of ``k`` nodes.

    Implements the paper's Figure 5.  Nodes are taken in canonical
    pre-order; the first block is the pre-order prefix of ``k`` nodes
    (always a valid subtree), and each subsequent block covers exactly
    one new node ``v`` together with ``k-1`` already-covered nodes chosen
    from ``v``'s ancestor chain first, then nearest covered neighbours.

    Requires ``2 <= k <= tree.size``.
    """
    n = tree.size
    if k < 2:
        raise ValueError("fix-sized covering needs k >= 2")
    if k > n:
        raise ValueError(f"cannot cover a {n}-node tree with {k}-node blocks")

    order = canonical_preorder(tree)
    position = {node: i for i, node in enumerate(order)}

    covered = set(order[:k])
    blocks = [CoverBlock(block=tree.induced_subtree(order[:k]), overlap=None)]

    for v in order[k:]:
        members = {v}
        walk = tree.parent(v)
        while walk != -1 and len(members) < k:
            members.add(walk)
            walk = tree.parent(walk)
        # Too few ancestors: pad with the nearest covered neighbours of
        # the current member set (deterministically, by pre-order rank).
        while len(members) < k:
            frontier = _covered_neighbours(tree, members, covered)
            if not frontier:  # pragma: no cover - impossible: covered >= k
                raise TreeBuildError("covering ran out of adjacent nodes")
            members.add(min(frontier, key=position.__getitem__))
        block = tree.induced_subtree(members)
        overlap = tree.induced_subtree(members - {v})
        covered.add(v)
        blocks.append(CoverBlock(block=block, overlap=overlap))

    if obs.enabled:
        obs.registry.counter(
            "fixed_cover_builds_total",
            "Fix-sized covers derived (cold cover compilations).",
        ).inc()
    return blocks


def _covered_neighbours(
    tree: LabeledTree, members: set[int], covered: set[int]
) -> list[int]:
    """Covered nodes adjacent to ``members`` but not in it."""
    out: list[int] = []
    for node in sorted(members):
        parent = tree.parent(node)
        if parent != -1 and parent in covered and parent not in members:
            out.append(parent)
        for child in tree.child_ids(node):
            if child in covered and child not in members:
                out.append(child)
    return out
