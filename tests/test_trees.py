"""Tree enumeration and charges."""

import pytest

from quiverdt.trees import enumerate_trees, is_leaf, render_tree, tree_count

from flow_reference import interior_vertices, leaf_mask


def test_double_factorial_counts():
    assert [tree_count(r) for r in range(1, 9)] == [1, 1, 3, 15, 105, 945, 10395, 135135]


def test_enumeration_matches_count_small():
    for r in range(1, 7):
        assert sum(1 for _ in enumerate_trees(range(1, r + 1))) == tree_count(r)


def test_no_duplicate_encodings():
    for r in range(1, 6):
        seen = list(enumerate_trees(range(1, r + 1)))
        assert len(set(seen)) == len(seen) == tree_count(r)


def test_charge_additivity():
    for r in range(2, 6):
        for tree in enumerate_trees(range(1, r + 1)):
            for node in interior_vertices(tree):
                assert leaf_mask(node) == leaf_mask(node[0]) | leaf_mask(node[1])
                assert not leaf_mask(node[0]) & leaf_mask(node[1])
            assert leaf_mask(tree) == (1 << r) - 1  # child of the root carries e_J


def test_charge_of_leaf_and_root_child():
    assert leaf_mask(2) == 0b10
    tree = (1, (2, 3))
    assert leaf_mask(tree[1]) == 0b110
    assert leaf_mask(tree) == 0b111


def test_canonical_child_order():
    for tree in enumerate_trees(range(1, 6)):
        for node in interior_vertices(tree):
            assert min(i + 1 for i in range(5) if leaf_mask(node[0]) >> i & 1) < min(
                i + 1 for i in range(5) if leaf_mask(node[1]) >> i & 1
            )


def test_render_tree():
    assert render_tree(1) == "{1}"
    assert render_tree((1, (2, 3))) == "{{1,{2,3}}}"
    assert render_tree(((1, 2), 3)) == "{{{1,2},3}}"


def test_empty_index_set_rejected():
    with pytest.raises(ValueError):
        list(enumerate_trees([]))


def test_leaf_predicate():
    assert is_leaf(4)
    assert not is_leaf((1, 2))
