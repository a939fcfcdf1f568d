"""Rooted, node-labeled, unordered trees.

This module provides :class:`LabeledTree`, the single tree representation
shared by every layer of the library: XML documents are parsed into it,
twig queries wrap it, the frequent-tree miner grows patterns with it, and
the decomposition estimators take it apart leaf by leaf.

A tree is stored as three parallel arrays indexed by integer node id:
``labels``, ``parents`` (``-1`` for the root) and ``children`` (lists of
child ids).  Node ids are arbitrary but stable; helpers that *derive* new
trees (leaf removal, induced subtrees, ``subtree_at``) renumber compactly,
each node's children consecutive and above it but in *reverse* order.

Sibling order is not semantically meaningful anywhere in the library —
twig matching (see :mod:`repro.trees.matching`) is defined on unordered
trees — but the arrays do preserve insertion order, which keeps traversals
deterministic.  The decomposition estimators pick leaf pairs in id
order, so changing the derived numbering could move estimates.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

__all__ = ["LabeledTree", "TreeBuildError", "NestedSpec"]


class TreeBuildError(ValueError):
    """Raised when an operation would produce an invalid tree."""


#: Nested tree spec accepted by :meth:`LabeledTree.from_nested`: either a
#: bare label (a leaf) or ``(label, [child_spec, ...])``.
NestedSpec = Union[str, tuple[str, Sequence["NestedSpec"]]]


class LabeledTree:
    """A rooted, node-labeled, unordered tree.

    Instances are *logically* immutable once handed out by the public
    constructors: every derivation helper returns a new tree.  The only
    mutating method is :meth:`add_child`, intended for incremental
    construction (parsers, generators, pattern growth); callers that keep
    a reference to a tree they received from elsewhere must copy before
    mutating (:meth:`copy`).
    """

    __slots__ = ("labels", "parents", "children")

    def __init__(self, root_label: str) -> None:
        self.labels: list[str] = [root_label]
        self.parents: list[int] = [-1]
        self.children: list[list[int]] = [[]]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_nested(cls, spec: NestedSpec) -> "LabeledTree":
        """Build a tree from a nested ``(label, [children...])`` spec.

        A bare string is accepted as shorthand for a leaf::

            LabeledTree.from_nested(("a", ["b", ("c", ["d"])]))

        builds the tree ``a`` with children ``b`` and ``c``, where ``c``
        has a single child ``d``.
        """
        label, kids = cls._split_spec(spec)
        tree = cls(label)
        stack = [(0, kid) for kid in reversed(kids)]
        while stack:
            parent, kid_spec = stack.pop()
            kid_label, grand = cls._split_spec(kid_spec)
            kid = tree.add_child(parent, kid_label)
            stack.extend((kid, g) for g in reversed(grand))
        return tree

    @staticmethod
    def _split_spec(spec: NestedSpec) -> tuple[str, Sequence[NestedSpec]]:
        if isinstance(spec, str):
            return spec, ()
        if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
            return spec[0], spec[1]
        raise TreeBuildError(f"invalid nested tree spec: {spec!r}")

    @classmethod
    def path(cls, labels: Sequence[str]) -> "LabeledTree":
        """Build a simple path ``labels[0]/labels[1]/.../labels[-1]``."""
        if not labels:
            raise TreeBuildError("a path needs at least one label")
        tree = cls(labels[0])
        node = 0
        for label in labels[1:]:
            node = tree.add_child(node, label)
        return tree

    def copy(self) -> "LabeledTree":
        """Return an independent deep copy with identical node ids."""
        dup = LabeledTree.__new__(LabeledTree)
        dup.labels = list(self.labels)
        dup.parents = list(self.parents)
        dup.children = [list(c) for c in self.children]
        return dup

    # ------------------------------------------------------------------
    # Incremental construction
    # ------------------------------------------------------------------

    def add_child(self, parent: int, label: str) -> int:
        """Append a new leaf labelled ``label`` under ``parent``.

        Returns the id of the new node.
        """
        if not 0 <= parent < len(self.labels):
            raise TreeBuildError(f"no such parent node: {parent}")
        node = len(self.labels)
        self.labels.append(label)
        self.parents.append(parent)
        self.children.append([])
        self.children[parent].append(node)
        return node

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.labels)

    @property
    def root(self) -> int:
        return 0

    def label(self, node: int) -> str:
        return self.labels[node]

    def parent(self, node: int) -> int:
        """Parent id, or ``-1`` for the root."""
        return self.parents[node]

    def child_ids(self, node: int) -> Sequence[int]:
        return self.children[node]

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]

    def degree(self, node: int) -> int:
        """Graph degree: children count, plus one for the parent edge."""
        deg = len(self.children[node])
        if self.parents[node] != -1:
            deg += 1
        return deg

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def preorder(self) -> Iterator[int]:
        """Node ids in pre-order (children visited in insertion order)."""
        stack = [0]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.children[node]))

    def postorder(self) -> Iterator[int]:
        """Node ids in post-order (every child before its parent)."""
        order: list[int] = []
        stack = [0]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.children[node])
        return reversed(order)

    def depth(self, node: int) -> int:
        """Number of edges from ``node`` up to the root."""
        d = 0
        while self.parents[node] != -1:
            node = self.parents[node]
            d += 1
        return d

    def height(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        best = 0
        stack = [(0, 0)]
        while stack:
            node, d = stack.pop()
            if d > best:
                best = d
            stack.extend((c, d + 1) for c in self.children[node])
        return best

    def leaves(self) -> list[int]:
        """Ids of all nodes without children."""
        return [n for n in range(self.size) if not self.children[n]]

    def removable_nodes(self) -> list[int]:
        """Nodes of graph degree 1, i.e. the nodes a decomposition may drop.

        These are the leaves, plus the root when it has exactly one child
        (the paper: "if the root node has degree 1, it can also be
        considered a leaf node for our purposes").  Every tree with at
        least two nodes has at least two removable nodes.
        """
        nodes = [n for n in range(1, self.size) if not self.children[n]]
        if len(self.children[0]) == 1:
            nodes.insert(0, 0)
        elif not self.children[0]:  # single-node tree
            nodes.insert(0, 0)
        return nodes

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def label_counts(self) -> dict[str, int]:
        """Multiplicity of each label in the tree."""
        counts: dict[str, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        return counts

    def distinct_labels(self) -> set[str]:
        return set(self.labels)

    def edge_label_pairs(self) -> set[tuple[str, str]]:
        """The set of (parent label, child label) pairs present."""
        return {
            (self.labels[self.parents[n]], self.labels[n])
            for n in range(1, self.size)
        }

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def remove_node(self, node: int) -> "LabeledTree":
        """Return a new tree with degree-1 node ``node`` removed.

        Removing a leaf drops it; removing a single-child root promotes
        the child to be the new root.  Removing any other node would
        disconnect the tree and raises :class:`TreeBuildError`.
        """
        if self.size <= 1:
            raise TreeBuildError("cannot remove the only node of a tree")
        if self.children[node]:
            if node != 0 or len(self.children[0]) != 1:
                raise TreeBuildError(
                    f"node {node} has degree > 1 and cannot be removed"
                )
        keep = [n for n in range(self.size) if n != node]
        return self.induced_subtree(keep)

    def remove_nodes(self, nodes: Iterable[int]) -> "LabeledTree":
        """Return the induced subtree on all nodes *not* in ``nodes``."""
        drop = set(nodes)
        keep = [n for n in range(self.size) if n not in drop]
        return self.induced_subtree(keep)

    def induced_subtree(self, nodes: Iterable[int]) -> "LabeledTree":
        """Return the subtree induced by ``nodes``.

        The node set must be non-empty and connected (one node must be an
        ancestor of all others within the set); otherwise
        :class:`TreeBuildError` is raised.  Node ids in the result are
        renumbered with each node's children in reverse order (see the
        module docstring).
        """
        node_set = set(nodes)
        if not node_set:
            raise TreeBuildError("cannot induce a subtree on an empty node set")
        # The induced root is the unique node whose parent is outside the set.
        roots = [n for n in sorted(node_set) if self.parents[n] not in node_set]
        if len(roots) != 1:
            raise TreeBuildError(
                f"node set {sorted(node_set)} does not induce a connected subtree"
            )
        sub = LabeledTree(self.labels[roots[0]])
        mapping = {roots[0]: 0}
        stack = [roots[0]]
        while stack:
            node = stack.pop()
            for child in reversed(self.children[node]):
                if child in node_set:
                    mapping[child] = sub.add_child(mapping[node], self.labels[child])
                    stack.append(child)
        if len(mapping) != len(node_set):
            raise TreeBuildError(
                f"node set {sorted(node_set)} does not induce a connected subtree"
            )
        return sub

    def subtree_at(self, node: int) -> "LabeledTree":
        """Copy of the subtree at ``node`` (siblings reversed, as in
        :meth:`induced_subtree`)."""
        sub = LabeledTree(self.labels[node])
        stack = [(node, 0)]
        while stack:
            src, dst = stack.pop()
            for child in reversed(self.children[src]):
                stack.append((child, sub.add_child(dst, self.labels[child])))
        return sub

    def with_child(self, node: int, label: str) -> "LabeledTree":
        """Return a copy of the tree with a new leaf under ``node``."""
        grown = self.copy()
        grown.add_child(node, label)
        return grown

    # ------------------------------------------------------------------
    # Structural equality
    # ------------------------------------------------------------------

    def isomorphic(self, other: "LabeledTree") -> bool:
        """True when the two unordered labeled trees are isomorphic.

        Compares canonical *encodings* rather than canon tuples: string
        comparison is flat, whereas comparing deeply nested tuples
        recurses inside CPython and would hit the recursion limit on
        documents thousands of levels deep.
        """
        from .canonical import encode_tree

        return self.size == other.size and encode_tree(self) == encode_tree(other)

    def __eq__(self, other: object) -> bool:  # structural, unordered
        if not isinstance(other, LabeledTree):
            return NotImplemented
        return self.isomorphic(other)

    def __hash__(self) -> int:
        from .canonical import encode_tree

        return hash(encode_tree(self))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        from .canonical import encode_canon, canon

        body = encode_canon(canon(self))
        if len(body) > 60:
            body = body[:57] + "..."
        return f"LabeledTree({body!r}, size={self.size})"

    def pretty(self) -> str:
        """Multi-line indented rendering, for debugging and examples."""
        lines: list[str] = []
        stack: list[tuple[int, int]] = [(0, 0)]
        while stack:
            node, indent = stack.pop()
            lines.append("  " * indent + self.labels[node])
            stack.extend((c, indent + 1) for c in reversed(self.children[node]))
        return "\n".join(lines)
