"""Tree-by-tree reference for the flow tree formula.

``quiverdt.flow`` evaluates the formula one split at a time, with the
scalar bracket on Laurent polynomials packed into ints.  This module
keeps the definition it is checked against: the discrete flow run down one
decorated tree, its epsilon-signs, and the bracket value of one tree,
summed over the eta-supported trees that ``enumerate_trees`` yields, and
the scalar bracket kappa(eta(e_A, e_B)) a b on ``LaurentPoly`` values.
A tree is the encoding of ``quiverdt.trees``; ``leaf_mask`` and
``interior_vertices`` read its vertices.  The walks below read a tree
through ``_masked``, which computes the leaf masks of its vertices once.
``has_triple_split`` is the joint gate's triple-split test as a search
over exact covers.
"""

from fractions import Fraction

from quiverdt.algebra import LaurentPoly, kappa
from quiverdt.errors import GenericityError, ZeroSignArgument
from quiverdt.flow import BracketContext
from quiverdt.trees import enumerate_trees, is_leaf

from lattice_reference import mask_indices, mask_sum, pair_masks

ROOT = None


class DivisionByZeroPairing(GenericityError):
    """The flow recursion hit a zero pairing: the form is outside U_J."""


def leaf_mask(node) -> int:
    """Bitmask of leaf indices below the vertex (bit i-1 for leaf i)."""
    if is_leaf(node):
        return 1 << (node - 1)
    return leaf_mask(node[0]) | leaf_mask(node[1])


def _masked(node):
    """The vertex as (vertex, leaf mask, children), with its children in the same form.

    A leaf has no children.  One pass over the tree computes every leaf
    mask, so a walk reads each one without recomputing it.
    """
    if is_leaf(node):
        return node, 1 << (node - 1), ()
    children = (_masked(node[0]), _masked(node[1]))
    return node, children[0][1] | children[1][1], children


def interior_vertices(tree):
    """Interior vertices (pair encodings) in root-to-leaves preorder."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if is_leaf(node):
            continue
        yield node
        stack.append(node[1])
        stack.append(node[0])


def laurent_context(r: int) -> BracketContext:
    """The scalar bracket [a, b] = kappa(eta(e_A, e_B)) a b on LaurentPoly values."""
    return BracketContext(
        bracket=lambda x, y, mx, my, pairing: kappa(pairing) * x * y,
        leaf_values={i: LaurentPoly.const(1) for i in range(1, r + 1)},
        zero=LaurentPoly.zero(),
    )


def _contraction(matrix, mask: int):
    """iota_{e_mask} of the form, as the row sum over the indices of mask."""
    return tuple(map(sum, zip(*(matrix[i] for i in mask_indices(mask)))))


def _sign_arguments(theta_parent, ml, mr, omega):
    """theta(e_L) and omega(e_L, e_R) for the leaf masks of L and R, raising when either vanishes."""
    a = mask_sum(theta_parent, ml)
    b = pair_masks(omega, ml, mr)
    if a == 0 or b == 0:
        raise ZeroSignArgument(f"vanishing sign argument at split {ml:b}|{mr:b}")
    return a, b


def _epsilon(a, b) -> int:
    return -((1 if a > 0 else -1) + (1 if b > 0 else -1)) // 2


def run_flow(tree, alpha, omega) -> dict:
    """Discrete flow values keyed by vertex: ROOT (= None) and interior encodings.

    Raises DivisionByZeroPairing when the recursion divides by a zero
    pairing, which signals that omega lies outside U_J.
    """
    assignment = {ROOT: tuple(alpha)}

    def descend(vertex, theta_parent):
        node, mv, children = vertex
        if not children:
            return
        left, right = children
        ml = left[1]
        denom = pair_masks(omega, mv, ml)
        if denom == 0:
            raise DivisionByZeroPairing(f"omega(e_v, e_v') = 0 at charge {mv:b}/{ml:b}")
        coef = Fraction(mask_sum(theta_parent, ml), 1) / denom
        theta = tuple(tp - coef * rv for tp, rv in zip(theta_parent, _contraction(omega, mv)))
        assignment[node] = theta
        descend(left, theta)
        descend(right, theta)

    descend(_masked(tree), tuple(alpha))
    return assignment


def epsilon_signs(tree, assignment: dict, omega) -> dict:
    """Epsilon in {-1, 0, 1} per interior vertex, from the parent's flow value.

    Raises ZeroSignArgument when either sign argument vanishes, which
    signals that omega lies outside U_{I,alpha}.
    """
    signs = {}

    def walk(vertex, parent_key):
        node, _, children = vertex
        if not children:
            return
        left, right = children
        signs[node] = _epsilon(*_sign_arguments(assignment[parent_key], left[1], right[1], omega))
        walk(left, node)
        walk(right, node)

    walk(_masked(tree), ROOT)
    return signs


def supported_trees(eta, r: int):
    """Trees on 1..r with a nonzero eta-pairing at every interior vertex."""

    def supported(vertex):
        _, _, children = vertex
        if not children:
            return True
        left, right = children
        return pair_masks(eta, left[1], right[1]) != 0 and supported(left) and supported(right)

    return [tree for tree in enumerate_trees(range(1, r + 1)) if supported(_masked(tree))]


def tree_weight(tree, eta, start, form, ctx):
    """Bracket value of one tree times its epsilon product; None when an epsilon is 0.

    Signs are read top-down and the walk stops at the first zero epsilon,
    so only the sign arguments the tree's weight depends on are checked.
    """

    def evaluate(vertex, theta_parent):
        node, mask, children = vertex
        if not children:
            return ctx.leaf_values[node]
        left, right = children
        ml, mr = left[1], right[1]
        a, b = _sign_arguments(theta_parent, ml, mr, form)
        eps = _epsilon(a, b)
        if eps == 0:
            return None
        coef = Fraction(a, 1) / b
        theta = tuple(tp + coef * rv for tp, rv in zip(theta_parent, _contraction(form, mask)))
        value_left = evaluate(left, theta)
        if value_left is None:
            return None
        value_right = evaluate(right, theta)
        if value_right is None:
            return None
        value = ctx.bracket(value_left, value_right, ml, mr, pair_masks(eta, ml, mr))
        return -value if eps < 0 else value

    return evaluate(_masked(tree), tuple(start))


def tree_sum(r: int, eta, start, form, ctx):
    """Sum of tree_weight over the eta-supported trees on 1..r."""
    total = ctx.zero
    for tree in supported_trees(eta, r):
        weight = tree_weight(tree, eta, start, form, ctx)
        if weight is not None:
            total = total + weight
    return total


def has_triple_split(point, r: int) -> bool:
    """Whether {1..r} is the disjoint union of >= 3 parts that point annihilates.

    A search over exact covers by the null proper masks, each step placing
    the lowest index not yet covered.
    """
    full = (1 << r) - 1
    null_masks = [m for m in range(1, full) if mask_sum(point, m) == 0]

    def cover(remaining: int, parts: int) -> bool:
        if remaining == 0:
            return parts >= 3
        low = remaining & -remaining
        for m in null_masks:
            if m & low and (m & ~remaining) == 0:
                if cover(remaining & ~m, parts + 1):
                    return True
        return False

    return cover(full, 0)


def reads_zero_sign(r: int, eta, start, form) -> bool:
    """Whether the split evaluator meets a vanishing sign argument, read tree by tree.

    Every tree on 1..r is walked from the root with the discrete flow.  A
    vertex is read when its children pair nonzero under eta and every
    vertex above it was read with a nonzero epsilon: the evaluator drops
    eta-orthogonal splits before any sign and stops below a zero epsilon.
    """

    def walk(vertex, theta_parent):
        _, mask, children = vertex
        if not children:
            return False
        left, right = children
        if pair_masks(eta, left[1], right[1]) == 0:
            return False
        try:
            a, b = _sign_arguments(theta_parent, left[1], right[1], form)
        except ZeroSignArgument:
            return True
        if _epsilon(a, b) == 0:
            return False
        coef = Fraction(a, 1) / b
        theta = tuple(tp + coef * rv for tp, rv in zip(theta_parent, _contraction(form, mask)))
        return walk(left, theta) or walk(right, theta)

    return any(walk(_masked(tree), tuple(start)) for tree in enumerate_trees(range(1, r + 1)))
