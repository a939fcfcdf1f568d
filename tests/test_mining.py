"""Unit tests for the level-wise lattice miner."""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import (
    DocumentIndex,
    LabeledTree,
    LatticeSummary,
    count_matches,
    mine_lattice,
)
from repro.core.streaming import _graft
from repro.mining import (
    anchored_counts,
    freqt,
    mine_lattice_sharded,
    pattern_counts_by_level,
    sharded,
)
from repro.store import DictStore
from repro.trees.canonical import (
    canon,
    canon_from_nested,
    canon_size,
    canon_to_tree,
    decode_canon,
    encode_canon,
)

from .conftest import brute_force_patterns


class TestLevelOne:
    def test_labels_and_counts(self, figure1_doc):
        result = mine_lattice(figure1_doc, 1)
        level1 = result.patterns(1)
        assert level1[("laptop", ())] == 2
        assert level1[("brand", ())] == 3
        assert len(level1) == len(figure1_doc.distinct_labels())


class TestCompleteness:
    def test_figure1_matches_brute_force(self, figure1_doc):
        mined = mine_lattice(figure1_doc, 4)
        expected = brute_force_patterns(figure1_doc, 4)
        got = mined.all_patterns()
        assert got == expected

    def test_duplicate_label_document(self):
        doc = LabeledTree.from_nested(
            ("a", [("a", ["b", "b"]), ("b", [("a", ["b"])])])
        )
        mined = mine_lattice(doc, 3)
        expected = brute_force_patterns(doc, 3)
        assert mined.all_patterns() == expected

    def test_every_count_matches_exact_matcher(self, figure1_doc):
        index = DocumentIndex(figure1_doc)
        mined = mine_lattice(index, 4)
        for pattern, count in mined.all_patterns().items():
            assert count == count_matches(pattern, index), pattern

    def test_pattern_sizes_respect_levels(self, figure1_doc):
        mined = mine_lattice(figure1_doc, 3)
        for size, patterns in mined.levels.items():
            assert all(canon_size(c) == size for c in patterns)

    def test_all_counts_positive(self, small_nasa):
        mined = mine_lattice(small_nasa, 3)
        assert all(
            count > 0 for level in mined.levels.values() for count in level.values()
        )


class TestInjectiveCounts:
    def test_multiplicity_counts(self):
        # a with three b's: pattern a(b) occurs 3 times, a(b,b) 6 times
        # (ordered injective pairs).
        doc = LabeledTree.from_nested(("a", ["b", "b", "b"]))
        mined = mine_lattice(doc, 3)
        assert mined.patterns(2)[canon_from_nested(("a", ["b"]))] == 3
        assert mined.patterns(3)[canon_from_nested(("a", ["b", "b"]))] == 6


class TestSampling:
    def test_extend_cap_records_capped_levels(self, small_nasa):
        full = mine_lattice(small_nasa, 4)
        capped = mine_lattice(small_nasa, 4, extend_cap=10, seed=3)
        assert capped.capped_levels  # something was sampled
        # Capped mining yields a subset of the full lattice at each level.
        for size in capped.levels:
            full_level = full.patterns(size)
            for pattern, count in capped.patterns(size).items():
                assert full_level[pattern] == count

    def test_deterministic_given_seed(self, small_nasa):
        a = mine_lattice(small_nasa, 4, extend_cap=10, seed=5)
        b = mine_lattice(small_nasa, 4, extend_cap=10, seed=5)
        assert a.all_patterns() == b.all_patterns()

    def test_no_cap_no_capped_levels(self, figure1_doc):
        assert mine_lattice(figure1_doc, 4).capped_levels == []


class TestResultHelpers:
    def test_total_patterns(self, figure1_doc):
        mined = mine_lattice(figure1_doc, 3)
        assert mined.total_patterns() == sum(
            len(level) for level in mined.levels.values()
        )

    def test_missing_level_empty(self, figure1_doc):
        assert mine_lattice(figure1_doc, 2).patterns(9) == {}

    def test_root_maps_kept_on_request(self, figure1_doc):
        without = mine_lattice(figure1_doc, 2)
        with_maps = mine_lattice(figure1_doc, 2, keep_root_maps=True)
        assert without.root_maps is None
        assert with_maps.root_maps
        # Root maps must agree with the counts.
        for pattern, count in with_maps.patterns(2).items():
            assert sum(with_maps.root_maps[pattern].values()) == count

    def test_invalid_max_size(self, figure1_doc):
        import pytest

        with pytest.raises(ValueError):
            mine_lattice(figure1_doc, 0)

    def test_stops_on_empty_level(self):
        doc = LabeledTree.path(["a", "b"])
        mined = mine_lattice(doc, 5)
        assert mined.patterns(2) == {canon_from_nested(("a", ["b"])): 1}
        assert mined.patterns(3) == {}
        assert 5 not in mined.levels or mined.patterns(5) == {}


class TestPatternCountsByLevel:
    def test_table2_helper(self, figure1_doc):
        counts = pattern_counts_by_level(figure1_doc, 3)
        assert counts[1] == len(figure1_doc.distinct_labels())
        assert all(isinstance(v, int) for v in counts.values())


# ----------------------------------------------------------------------
# Candidate growth on canon tuples
# ----------------------------------------------------------------------


def tree_candidates(frontier, index):
    """Reference generator: materialise each frontier pattern as a tree,
    grow one leaf at every node, and recanonicalise the copy."""
    candidates = set()
    for pattern in frontier:
        tree = canon_to_tree(pattern)
        for node in range(tree.size):
            for label in index.child_labels.get(tree.label(node), ()):
                candidates.add(canon(tree.with_child(node, label)))
    return sorted(candidates)


@contextmanager
def tree_growth():
    """Route the miner and ``anchored_counts`` through :func:`tree_candidates`."""
    with mock.patch.object(freqt, "_generate_candidates", tree_candidates):
        with mock.patch.object(sharded, "_generate_candidates", tree_candidates):
            yield


@st.composite
def twin_tree(draw):
    """A small tree over few labels, with identical sibling subtrees grafted
    in so that a pattern can have several equal children."""
    size = draw(st.integers(1, 8))
    tree = LabeledTree(draw(st.sampled_from("ab")))
    for i in range(1, size):
        tree.add_child(draw(st.integers(0, i - 1)), draw(st.sampled_from("abc")))
    for _ in range(draw(st.integers(0, 2))):
        parent = draw(st.integers(0, tree.size - 1))
        kids = list(tree.child_ids(parent))
        if kids:
            _graft(tree, parent, tree.subtree_at(draw(st.sampled_from(kids))))
    return tree


def assert_same_levels(got, want):
    assert list(got.levels) == list(want.levels)
    for size, level in want.levels.items():
        assert list(got.levels[size].items()) == list(level.items())


class TestCanonGrowth:
    @settings(max_examples=80, deadline=None)
    @given(tree=twin_tree(), level=st.integers(2, 5))
    def test_candidates_match_tree_growth(self, tree, level):
        index = DocumentIndex(tree)
        mined = mine_lattice(index, level)
        for size in sorted(mined.levels):
            frontier = sorted(mined.levels[size])
            got = freqt._generate_candidates(frontier, index)
            assert got == tree_candidates(frontier, index)

    @settings(max_examples=40, deadline=None)
    @given(tree=twin_tree(), level=st.integers(1, 5))
    def test_mining_is_bit_identical_to_tree_growth(self, tree, level):
        index = DocumentIndex(tree)
        anchors = sorted({0, *tree.child_ids(0)})
        got = mine_lattice(index, level)
        got_anchored = anchored_counts(index, anchors, level)
        got_sharded = mine_lattice_sharded(index, level, shards=2)
        with tree_growth():
            want = mine_lattice(index, level)
            want_anchored = anchored_counts(index, anchors, level)
        assert_same_levels(got, want)
        assert_same_levels(got_sharded, want)
        assert list(got_anchored.items()) == list(want_anchored.items())

    def test_builds_and_files_are_bit_identical(self, small_nasa, tmp_path):
        # Serial, two-worker and two-shard builds against the reference
        # serial build: level dicts in order and saved bytes.  The
        # serial dict store's measured footprint must not change either
        # (byte budgets read it).
        index = DocumentIndex(small_nasa)
        with tree_growth():
            want = mine_lattice(index, 4)
            reference = LatticeSummary.build(index, 4)
        assert_same_levels(mine_lattice(index, 4), want)
        assert_same_levels(mine_lattice(index, 4, workers=2), want)
        assert_same_levels(mine_lattice_sharded(index, 4, shards=2), want)
        reference.save(tmp_path / "want.sum")
        for kwargs in ({}, {"workers": 2}, {"shards": 2}):
            LatticeSummary.build(index, 4, **kwargs).save(tmp_path / "got.sum")
            got_bytes = (tmp_path / "got.sum").read_bytes()
            assert got_bytes == (tmp_path / "want.sum").read_bytes(), kwargs
        footprint = [
            DictStore.from_counts(dict(summary.patterns())).byte_size()
            for summary in (LatticeSummary.build(index, 4), reference)
        ]
        assert footprint[0] == footprint[1]

    def test_footprint_does_not_depend_on_how_the_summary_was_built(
        self, small_nasa
    ):
        # Worker builds unpickle their keys and candidates share
        # sub-tuples; the measured footprint is defined by value.
        index = DocumentIndex(small_nasa)
        sizes = [
            LatticeSummary.build(index, 3, **kwargs).byte_size()
            for kwargs in ({}, {"workers": 2}, {"shards": 2})
        ]
        assert sizes[0] == sizes[1] == sizes[2]
        patterns = dict(LatticeSummary.build(index, 3).patterns())
        copied = {decode_canon(encode_canon(key)): n for key, n in patterns.items()}
        assert (
            DictStore.from_counts(copied).byte_size()
            == DictStore.from_counts(patterns).byte_size()
        )
