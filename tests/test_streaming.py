"""Streaming summary maintenance: exact deltas, bounded staleness.

Every insert/delete sequence must leave :meth:`StreamingSummary.count`
and a ``fresh=True`` snapshot equal to a from-scratch rebuild of the
current document — hypothesis drives random sequences against
:func:`~repro.mining.mine_lattice`.  Fixed tests pin the staleness
bound, compaction determinism, persistence, and the array backend.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import LabeledTree, LatticeSummary, StreamingSummary
from repro.core.streaming import DEFAULT_MAX_PENDING, _graft, _RootMoments
from repro.mining.sharded import anchored_counts
from repro.trees.labeled_tree import TreeBuildError
from repro.trees.matching import DocumentIndex

LABELS = "abcd"
LEVEL = 3


@st.composite
def random_record(draw, min_size=1, max_size=6, labels=LABELS):
    size = draw(st.integers(min_size, max_size))
    parent_choices = [draw(st.integers(0, i - 1)) for i in range(1, size)]
    node_labels = [draw(st.sampled_from(labels)) for _ in range(size)]
    tree = LabeledTree(node_labels[0])
    for i in range(1, size):
        tree.add_child(parent_choices[i - 1], node_labels[i])
    return tree


@st.composite
def update_script(draw):
    """A seed document plus a mixed insert/delete script."""
    seed = LabeledTree("r")
    ops = []
    live_records = draw(st.integers(0, 2))
    for _ in range(live_records):
        record = draw(random_record())
        _attach(seed, record)
    n_ops = draw(st.integers(1, 6))
    balance = live_records
    for _ in range(n_ops):
        if balance > 0 and draw(st.booleans()):
            ops.append(("delete", draw(st.integers(0, balance - 1))))
            balance -= 1
        else:
            ops.append(("insert", draw(random_record())))
            balance += 1
    return seed, ops


def _attach(document: LabeledTree, record: LabeledTree) -> None:
    # Grafting into the caller's document is this helper's entire job —
    # it mirrors what StreamingSummary.insert does internally.
    mapping = {
        record.root: document.add_child(  # lint: disable=twig-arg-mutation
            document.root, record.label(record.root)
        )
    }
    for node in record.preorder():
        if node == record.root:
            continue
        mapping[node] = document.add_child(  # lint: disable=twig-arg-mutation
            mapping[record.parent(node)], record.label(node)
        )


def rebuilt_counts(document: LabeledTree) -> dict:
    return dict(LatticeSummary.build(document, LEVEL).patterns())


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(script=update_script(), max_pending=st.integers(0, 3))
def test_streaming_matches_rebuild_after_every_op(script, max_pending):
    seed, ops = script
    streaming = StreamingSummary(seed.copy(), LEVEL, max_pending=max_pending)
    for kind, arg in ops:
        if kind == "insert":
            streaming.insert(arg)
        else:
            streaming.delete(arg)
        want = rebuilt_counts(streaming.document)
        for pattern, count in want.items():
            assert streaming.count(pattern) == count
        snapshot = streaming.summary(fresh=True)
        assert dict(snapshot.patterns()) == want
        assert streaming.count(("zzz", ())) == 0


def test_deleted_patterns_vanish_from_snapshots():
    seed = LabeledTree("r")
    streaming = StreamingSummary(seed, LEVEL, max_pending=10)
    record = LabeledTree.from_nested(("a", [("b", []), ("b", [])]))
    streaming.insert(record)
    want = rebuilt_counts(streaming.document)
    assert streaming.count(("a", (("b", ()), ("b", ())))) == want[
        ("a", (("b", ()), ("b", ())))
    ]
    streaming.delete(0)
    snapshot = streaming.summary(fresh=True)
    assert dict(snapshot.patterns()) == {("r", ()): 1}
    assert streaming.count(("a", (("b", ()), ("b", ())))) == 0


def test_delete_returns_the_removed_record():
    seed = LabeledTree("r")
    streaming = StreamingSummary(seed, LEVEL)
    record = LabeledTree.from_nested(("a", [("b", [])]))
    streaming.insert(record)
    removed = streaming.delete(0)
    assert removed.isomorphic(record)


def test_delete_validates_the_index():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL)
    with pytest.raises(TreeBuildError, match="root-child index"):
        streaming.delete(0)


def test_insert_rejects_empty_records():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL)
    with pytest.raises(TreeBuildError):
        streaming.insert(LabeledTree("a").remove_nodes([0]))


# ----------------------------------------------------------------------
# Bounded staleness
# ----------------------------------------------------------------------


def test_pending_ops_never_exceed_the_bound():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL, max_pending=2)
    for i in range(7):
        streaming.insert(LabeledTree("a"))
        assert streaming.pending_ops <= 2
    assert streaming.updates == 7


def test_zero_staleness_compacts_every_update():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL, max_pending=0)
    streaming.insert(LabeledTree.from_nested(("a", [("b", [])])))
    assert streaming.pending_ops == 0
    # With no pending deltas the lazy snapshot is already exact.
    assert dict(streaming.summary().patterns()) == rebuilt_counts(
        streaming.document
    )


def test_negative_bound_is_rejected():
    with pytest.raises(ValueError, match="max_pending"):
        StreamingSummary(LabeledTree("r"), LEVEL, max_pending=-1)


def test_stale_snapshot_lags_until_compaction():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL, max_pending=5)
    record = LabeledTree.from_nested(("a", [("b", [])]))
    streaming.insert(record)
    stale = streaming.summary()
    assert ("a", (("b", ()),)) not in dict(stale.patterns())
    assert streaming.count(("a", (("b", ()),))) == 1  # lookups are exact
    fresh = streaming.summary(fresh=True)
    assert dict(fresh.patterns())[("a", (("b", ()),))] == 1
    assert streaming.pending_ops == 0


def test_compaction_is_deterministic():
    def run() -> list:
        streaming = StreamingSummary(LabeledTree("r"), LEVEL, max_pending=10)
        streaming.insert(LabeledTree.from_nested(("a", [("b", [])])))
        streaming.insert(LabeledTree.from_nested(("c", [("a", [])])))
        streaming.delete(0)
        return list(streaming.summary(fresh=True).patterns())

    assert run() == run()


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_save_compacts_and_restore_resumes(tmp_path, backend):
    seed = LabeledTree("r")
    streaming = StreamingSummary(seed, LEVEL, store=backend, max_pending=10)
    streaming.insert(LabeledTree.from_nested(("a", [("b", [])])))
    path = tmp_path / "stream.tl"
    streaming.save(path)
    assert streaming.pending_ops == 0  # save always compacts

    restored = StreamingSummary.restore(
        path, streaming.document.copy(), max_pending=3
    )
    assert restored.level == LEVEL
    assert restored.max_pending == 3
    assert dict(restored.summary().patterns()) == dict(
        streaming.summary().patterns()
    )
    restored.insert(LabeledTree.from_nested(("c", [])))
    want = rebuilt_counts(restored.document)
    assert dict(restored.summary(fresh=True).patterns()) == want


def test_saved_file_matches_one_shot_summary(tmp_path):
    # Stream-building a document and one-shot mining it must persist to
    # byte-identical files (the text container sorts its keys).
    document = LabeledTree("r")
    records = [
        LabeledTree.from_nested(("a", [("b", []), ("c", [])])),
        LabeledTree.from_nested(("a", [("b", [("b", [])])])),
    ]
    streaming = StreamingSummary(LabeledTree("r"), LEVEL)
    for record in records:
        _attach(document, record)
        streaming.insert(record)
    streamed_path = tmp_path / "streamed.tl"
    mined_path = tmp_path / "mined.tl"
    streaming.save(streamed_path)
    LatticeSummary.build(document, LEVEL).save(mined_path)
    assert streamed_path.read_bytes() == mined_path.read_bytes()


def test_restore_rejects_negative_bound(tmp_path):
    path = tmp_path / "s.tl"
    StreamingSummary(LabeledTree("r"), LEVEL).save(path)
    with pytest.raises(ValueError, match="max_pending"):
        StreamingSummary.restore(path, LabeledTree("r"), max_pending=-1)


def test_default_staleness_bound_is_exported():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL)
    assert streaming.max_pending == DEFAULT_MAX_PENDING


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


def test_array_backed_streaming_stays_exact():
    streaming = StreamingSummary(
        LabeledTree("r"), LEVEL, store="array", max_pending=1
    )
    for nested in [("a", [("b", [])]), ("a", [("b", []), ("b", [])])]:
        streaming.insert(LabeledTree.from_nested(nested))
    streaming.delete(0)
    snapshot = streaming.summary(fresh=True)
    assert snapshot.backend == "array"
    assert dict(snapshot.patterns()) == rebuilt_counts(streaming.document)


def test_build_can_route_through_shards():
    document = LabeledTree("r")
    for nested in [("a", [("b", [])]), ("c", [("a", []), ("b", [])])]:
        _attach(document, LabeledTree.from_nested(nested))
    streaming = StreamingSummary(document.copy(), LEVEL, shards=2)
    assert dict(streaming.summary().patterns()) == rebuilt_counts(document)


# ----------------------------------------------------------------------
# Root-spanning delta from root-child moment sums
# ----------------------------------------------------------------------

#: ``"r"`` is the document root's label, so records can carry it too.
SPAN_LABELS = "rab"


@st.composite
def twin_record(draw):
    """A record whose root has identical child subtrees, so a spanning
    pattern can have identical query children (non-trivial partitions)."""
    record = LabeledTree(draw(st.sampled_from(SPAN_LABELS)))
    twin = draw(random_record(max_size=2, labels=SPAN_LABELS))
    extra = draw(st.lists(random_record(max_size=2, labels=SPAN_LABELS), max_size=1))
    for kid in [twin] * draw(st.integers(2, 3)) + extra:
        _graft(record, record.root, kid)
    return record


span_record = st.one_of(
    random_record(max_size=5, labels=SPAN_LABELS), twin_record()
)


@st.composite
def span_script(draw):
    """A seed document (possibly a bare root) plus an insert/delete script."""
    document = LabeledTree("r")
    for _ in range(draw(st.integers(0, 3))):
        _attach(document, draw(span_record))
    live = len(document.child_ids(document.root))
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        if live and draw(st.booleans()):
            ops.append(("delete", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            ops.append(("insert", draw(span_record)))
            live += 1
    return document, ops


def _root_anchored(document: LabeledTree, level: int) -> dict:
    return anchored_counts(DocumentIndex(document), (document.root,), level)


def _cut(document: LabeledTree, node: int) -> LabeledTree:
    drop = [node]
    stack = [node]
    while stack:
        for child in document.child_ids(stack.pop()):
            drop.append(child)
            stack.append(child)
    return document.remove_nodes(drop)


def _check_spanning_deltas(document: LabeledTree, ops: list, level: int) -> None:
    """Each update's moment-sum delta equals the change in root-anchored
    counts re-enumerated over the whole document, before and after."""
    moments = _RootMoments.of_document(document, level)
    root_label = document.label(document.root)
    for kind, arg in ops:
        before = _root_anchored(document, level)
        if kind == "insert":
            _, delta = moments.apply(arg, root_label, 1)
            _attach(document, arg)
        else:
            node = document.child_ids(document.root)[arg]
            _, delta = moments.apply(document.subtree_at(node), root_label, -1)
            document = _cut(document, node)
        after = _root_anchored(document, level)
        want = {
            pattern: after.get(pattern, 0) - before.get(pattern, 0)
            for pattern in after.keys() | before.keys()
        }
        assert delta == {p: n for p, n in want.items() if n}, (kind, level)
    assert moments.sums == _RootMoments.of_document(document, level).sums


@settings(max_examples=60, deadline=None)
@given(script=span_script(), level=st.integers(1, 5))
def test_moment_delta_equals_anchored_recount(script, level):
    document, ops = script
    _check_spanning_deltas(document, ops, level)


SPAN_CASES = {
    # Records carrying the document root's label, at and below their root.
    "root-label record": (
        [("r", ["a"])],
        [("insert", ("r", ["r", ("a", ["r"])])), ("insert", "r")],
    ),
    # Identical query children: r(a(b), a(b)) needs the {a(b), a(b)} moment.
    "repeated-label kids": (
        [("a", ["b", "b"]), ("a", [("b", ["a"]), "b"])],
        [
            ("insert", ("a", ["b", "b", "b"])),
            ("insert", ("b", [("a", ["b"]), ("a", ["b"])])),
            ("delete", 0),
        ],
    ),
    "delete the only record": ([("a", ["b", "b"])], [("delete", 0)]),
    "insert under a childless root": (
        [],
        [("insert", ("a", ["b", "b"])), ("insert", "a")],
    ),
}


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("case", sorted(SPAN_CASES))
def test_moment_delta_edge_cases(case, level):
    records, script = SPAN_CASES[case]
    document = LabeledTree("r")
    for spec in records:
        _attach(document, LabeledTree.from_nested(spec))
    ops = [
        (kind, LabeledTree.from_nested(arg) if kind == "insert" else arg)
        for kind, arg in script
    ]
    _check_spanning_deltas(document, ops, level)


@settings(max_examples=20, deadline=None)
@given(script=span_script(), level=st.integers(2, 5))
def test_streaming_matches_rebuild_at_every_level(script, level):
    document, ops = script
    streaming = StreamingSummary(document, level, max_pending=1)
    for kind, arg in ops:
        if kind == "insert":
            streaming.insert(arg)
        else:
            streaming.delete(arg)
    want = dict(LatticeSummary.build(streaming.document, level).patterns())
    assert dict(streaming.summary(fresh=True).patterns()) == want


# ----------------------------------------------------------------------
# Work done per update
# ----------------------------------------------------------------------


def test_updates_never_recount_the_whole_document(tmp_path, monkeypatch):
    # Only the first update may touch the whole document (it builds the
    # root-child moment sums); every later one mines just its record,
    # and resuming from a saved summary mines nothing at all.
    from repro.core import streaming as streaming_module
    from repro.datasets import generate_nasa
    from repro.trees import matching

    level = 3
    document = generate_nasa(20, seed=1)
    donor = generate_nasa(8, seed=2)
    records = [donor.subtree_at(child) for child in donor.child_ids(donor.root)]
    path = tmp_path / "doc.tl"
    LatticeSummary.build(document, level).save(path)

    calls = {"anchored_counts": 0, "mine_lattice": 0}
    indexed: list[int] = []

    def counted(name):
        original = getattr(streaming_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    index_init = matching.DocumentIndex.__init__

    def recording_init(self, tree):
        indexed.append(tree.size)
        index_init(self, tree)

    for name in calls:
        monkeypatch.setattr(streaming_module, name, counted(name))
    monkeypatch.setattr(matching.DocumentIndex, "__init__", recording_init)

    streaming = StreamingSummary.restore(path, document, max_pending=4)
    assert calls["mine_lattice"] == 0 and indexed == []

    whole = document.size
    streaming.insert(records[0])
    assert whole in indexed  # the lazy moment build, once

    calls.update(anchored_counts=0, mine_lattice=0)
    indexed.clear()
    updates = 12
    for op in range(updates):
        if op % 2:
            current = streaming.document
            streaming.delete(op % len(current.child_ids(current.root)))
        else:
            streaming.insert(records[1 + op // 2 % (len(records) - 1)])
    assert calls["anchored_counts"] == 0
    assert calls["mine_lattice"] == updates  # one mine per record
    # Every index built was of one record: a donor or an original child.
    record_sizes = {record.size for record in records}
    record_sizes.update(
        document.subtree_at(child).size for child in document.child_ids(document.root)
    )
    assert set(indexed) <= record_sizes
    assert len(indexed) == updates
    want = dict(LatticeSummary.build(streaming.document, level).patterns())
    assert dict(streaming.summary(fresh=True).patterns()) == want
