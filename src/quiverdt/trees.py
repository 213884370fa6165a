"""Unordered binary rooted trees with decorated leaves.

A tree on the index set J is stored as the encoding of the child of the
root: a leaf is the bare index i, an interior vertex is the pair of its
children's encodings with the child containing the smallest leaf index
first.  Encodings are equal iff the decorated trees are isomorphic, and
within one tree every vertex has a distinct encoding, so encodings double
as vertex handles.

Enumeration follows the insertion recursion behind the (2|J|-3)!! count:
a tree on J is a tree on J minus its largest index with the extra leaf
grafted into the middle of one of the 2|J|-3 edges.
"""

from __future__ import annotations


def is_leaf(node) -> bool:
    return not isinstance(node, tuple)


def enumerate_trees(indices):
    """Yield each isomorphism class of J-decorated binary tree exactly once."""
    idx = sorted(set(indices))
    if not idx:
        raise ValueError("the index set must be nonempty")
    yield from _enumerate(tuple(idx))


def _enumerate(idx):
    if len(idx) == 1:
        yield idx[0]
        return
    last = idx[-1]
    for sub in _enumerate(idx[:-1]):
        yield from _insert_everywhere(sub, last)


def _insert_everywhere(node, leaf):
    # Grafting on the edge above `node`; the new leaf carries the largest
    # index so the pair is already in canonical child order.
    yield (node, leaf)
    if not is_leaf(node):
        left, right = node
        for new_left in _insert_everywhere(left, leaf):
            yield (new_left, right)
        for new_right in _insert_everywhere(right, leaf):
            yield (left, new_right)


def tree_count(r: int) -> int:
    """(2r-3)!! = 1, 1, 3, 15, 105, ... for r = 1, 2, 3, 4, 5, ..."""
    if r < 1:
        raise ValueError("r must be >= 1")
    count = 1
    for k in range(1, r):
        count *= 2 * k - 1
    return count


def render_tree(tree) -> str:
    """Nested-brace rendering, e.g. '{{1,{2,3}}}' for the {1|{2,3}} split."""
    def inner(node):
        if is_leaf(node):
            return str(node)
        return "{" + inner(node[0]) + "," + inner(node[1]) + "}"

    return "{" + inner(tree) + "}"
