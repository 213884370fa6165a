"""The discrete attractor flow and the flow tree formula.

The per-tree walk of flow_reference is the reference the split evaluator
of quiverdt.flow is checked against.
"""

import random
from fractions import Fraction
from itertools import combinations, islice
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdt.algebra import LaurentPoly, kappa
from quiverdt.checks import random_instance
from quiverdt.errors import InvalidInput, ZeroSignArgument
from quiverdt.flow import (
    BracketContext,
    _first_generic,
    flow_tree_scalar,
    flow_tree_sum,
    scalar_context,
)
from quiverdt.lattice import AuxLattice, Quiver, _beta_numerators, _omega_numerators, build_aux
from quiverdt.trees import is_leaf

from flow_reference import (
    DivisionByZeroPairing,
    _sign_arguments,
    epsilon_signs,
    laurent_context,
    leaf_mask,
    reads_zero_sign,
    run_flow,
    supported_trees,
    tree_sum,
    tree_weight,
)
from lattice_reference import mask_sum


def _fr(*values):
    return tuple(Fraction(v) for v in values)


K2_AUX = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))


def _omega(aux, seed):
    """W of the omega = W / d the sampler certifies: a positive multiple, so the same flow."""
    return _first_generic(aux, "omega", seed, 1000)[0]


def test_flow_root_is_alpha():
    omega = ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))
    fa = run_flow((1, 2), _fr(1, -1), omega)
    assert fa[None] == (1, -1)


def test_flow_rank2_lands_at_origin():
    omega = ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))
    fa = run_flow((1, 2), _fr(1, -1), omega)
    assert fa[(1, 2)] == (0, 0)


def test_flow_wall_membership_rank3():
    omega = _omega(K2_AUX, 0)
    for tree in supported_trees(K2_AUX.eta, 3):
        if is_leaf(tree):
            continue
        fa = run_flow(tree, K2_AUX.alpha, omega)
        for node, theta in fa.items():
            if node is None:
                continue
            assert mask_sum(theta, leaf_mask(node[0])) == 0
            assert mask_sum(theta, leaf_mask(node[1])) == 0
            assert mask_sum(theta, leaf_mask(node)) == 0


def test_flow_division_by_zero_pairing():
    omega = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    with pytest.raises(DivisionByZeroPairing):
        run_flow((1, 2), _fr(1, -1), omega)


def test_epsilon_sign_table():
    omega_pos = ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))
    fa = run_flow((1, 2), _fr(1, -1), omega_pos)
    assert epsilon_signs((1, 2), fa, omega_pos) == {(1, 2): -1}
    fa = run_flow((1, 2), _fr(-1, 1), omega_pos)
    assert epsilon_signs((1, 2), fa, omega_pos) == {(1, 2): 0}
    omega_neg = ((Fraction(0), Fraction(-2)), (Fraction(2), Fraction(0)))
    fa = run_flow((1, 2), _fr(-1, 1), omega_neg)
    assert epsilon_signs((1, 2), fa, omega_neg) == {(1, 2): 1}


def test_epsilon_zero_sign_argument():
    omega = ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))
    fa = run_flow((1, 2), _fr(0, 0), omega)
    with pytest.raises(ZeroSignArgument):
        epsilon_signs((1, 2), fa, omega)


def _flip(tree, rng):
    if is_leaf(tree):
        return tree
    left, right = _flip(tree[0], rng), _flip(tree[1], rng)
    return (right, left) if rng.random() < 0.5 else (left, right)


def test_child_relabeling_invariance():
    rng = random.Random(20)
    for trial in range(30):
        r = rng.randrange(2, 6)
        aux = random_instance(r, trial + 500)
        omega = _omega(aux, 0)
        supported = [t for t in supported_trees(aux.eta, r) if not is_leaf(t)]
        if not supported:
            continue
        tree = supported[rng.randrange(len(supported))]
        flipped = _flip(tree, rng)
        fa = run_flow(tree, aux.alpha, omega)
        fb = run_flow(flipped, aux.alpha, omega)
        by_mask_a = {leaf_mask(k): v for k, v in fa.items() if k is not None}
        by_mask_b = {leaf_mask(k): v for k, v in fb.items() if k is not None}
        assert by_mask_a == by_mask_b
        ctx = laurent_context(r)
        wa = tree_weight(tree, aux.eta, aux.alpha, omega, ctx)
        wb = tree_weight(flipped, aux.eta, aux.alpha, omega, ctx)
        assert (wa is None and wb is None) or wa == wb


def test_flow_linearity_in_alpha():
    # theta depends linearly on the start point for a fixed form.
    rng = random.Random(21)
    eta = K2_AUX.eta
    omega = _omega(K2_AUX, 1)
    trees = [t for t in supported_trees(eta, 3) if not is_leaf(t)]
    for _ in range(10):
        a1 = [Fraction(rng.randrange(-5, 6)) for _ in range(2)]
        a2 = [Fraction(rng.randrange(-5, 6)) for _ in range(2)]
        a1.append(-sum(a1))
        a2.append(-sum(a2))
        total = tuple(x + y for x, y in zip(a1, a2))
        for tree in trees:
            fa1 = run_flow(tree, a1, omega)
            fa2 = run_flow(tree, a2, omega)
            fat = run_flow(tree, total, omega)
            for key in fat:
                assert fat[key] == tuple(
                    x + y for x, y in zip(fa1[key], fa2[key])
                )


def test_scalar_base_case():
    aux = AuxLattice(gammas=((1,),), eta=((0,),), alpha=(Fraction(0),))
    assert flow_tree_scalar(aux) == LaurentPoly.const(1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_scalar_kronecker_chambers(m):
    plus = build_aux(Quiver.kronecker(m), [(1, 0), (0, 1)], (1, -1))
    minus = build_aux(Quiver.kronecker(m), [(1, 0), (0, 1)], (-1, 1))
    assert flow_tree_scalar(plus) == -kappa(m)
    assert flow_tree_scalar(minus) == LaurentPoly.zero()


def test_scalar_collinear_vanishing():
    aux = AuxLattice(
        gammas=((1, 0), (1, 0), (2, 0)),
        eta=tuple(tuple(0 for _ in range(3)) for _ in range(3)),
        alpha=(Fraction(0),) * 3,
    )
    assert flow_tree_scalar(aux) == LaurentPoly.zero()


def test_scalar_perturbation_independence_quick():
    for trial in range(3):
        aux = random_instance(3, trial + 40)
        base = flow_tree_scalar(aux, mode="omega", seed=0)
        for seed in (1, 2):
            assert flow_tree_scalar(aux, mode="omega", seed=seed) == base
        assert flow_tree_scalar(aux, mode="beta", seed=0) == base


def test_scalar_invalid_mode():
    with pytest.raises(InvalidInput):
        flow_tree_scalar(K2_AUX, mode="gamma")


def test_flow_tree_map_scalar_reduction():
    aux = K2_AUX
    omega = _omega(aux, 0)
    ctx = scalar_context(aux.eta)
    assert flow_tree_sum(range(1, 4), aux.eta, ctx, aux.alpha, omega) == flow_tree_scalar(aux, seed=0)


def test_flow_tree_map_abelian_vanishes():
    aux = K2_AUX
    omega = _omega(aux, 0)
    ctx = BracketContext(
        bracket=lambda x, y, mx, my, pairing: LaurentPoly.zero(),
        leaf_values={i: LaurentPoly.const(1) for i in range(1, 4)},
        zero=LaurentPoly.zero(),
    )
    assert flow_tree_sum(range(1, 4), aux.eta, ctx, aux.alpha, omega) == LaurentPoly.zero()


def test_flow_tree_sum_subset():
    aux = K2_AUX
    omega = _omega(aux, 0)
    ctx = scalar_context(aux.eta)
    # the pair {1, 3} has eta-pairing 2; its two-leaf sum is a rank-2 coefficient
    value = flow_tree_sum([1, 3], aux.eta, ctx, aux.alpha, omega)
    assert value in (LaurentPoly.zero(), -kappa(2))


@pytest.mark.parametrize("which", ["eta", "form"])
def test_flow_tree_sum_rejects_a_non_skew_matrix(which):
    # the evaluator reads M(e_L, e_R) as M(e_L, e_J), which needs M skew
    aux = K2_AUX
    omega = _omega(aux, 0)
    bent = [list(row) for row in omega]
    bent[0][1] += 1
    eta, form = (bent, omega) if which == "eta" else (aux.eta, bent)
    with pytest.raises(InvalidInput, match=f"{which} is not skew-symmetric"):
        flow_tree_sum(range(1, 4), eta, scalar_context(aux.eta), aux.alpha, form)
    with pytest.raises(InvalidInput):
        flow_tree_sum(range(1, 4), aux.eta, scalar_context(aux.eta), aux.alpha, omega[:2])


ETA3 = K2_AUX.eta
HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "indices, eta, alpha0, form",
    [
        (range(1, 4), ETA3, (1, -1), ETA3),  # alpha0 shorter than eta
        (range(1, 4), ETA3, (1, 1, -2), ((0, 1), (-1, 0))),  # a 2x2 form under a 3x3 eta
        (range(1, 5), ETA3, (1, 1, -2), ETA3),  # index 4 of a rank-3 eta
        ([0, 1], ETA3, (1, 1, -2), ETA3),  # index 0
        (range(1, 4), ETA3, (1.5, 2, -3.5), ETA3),  # a float start point
        (range(1, 4), ETA3, (1, 1, -2), ((0.0, 1, 1), (-1, 0, 1), (-1, -1, 0))),  # a float form
        (range(1, 4), ((0, 1.0, 1), (-1.0, 0, 1), (-1, -1, 0)), (1, 1, -2), ETA3),  # a float eta
        (range(1, 4), ((0, HALF, 1), (-HALF, 0, 1), (-1, -1, 0)), (1, 1, -2), ETA3),  # eta not integral
        ([], ETA3, (1, 1, -2), ETA3),  # no index
        ([1, 1], ETA3, (1, 1, -2), ETA3),  # a repeated index
    ],
)
def test_flow_tree_sum_rejects_malformed_input(indices, eta, alpha0, form):
    with pytest.raises(InvalidInput):
        flow_tree_sum(indices, eta, scalar_context(ETA3), alpha0, form)


def test_flow_tree_sum_accepts_integral_fraction_eta():
    eta = tuple(tuple(Fraction(x) for x in row) for row in ETA3)
    ctx = scalar_context(ETA3)
    omega = _omega(K2_AUX, 0)
    assert flow_tree_sum(range(1, 4), eta, ctx, K2_AUX.alpha, omega) == flow_tree_sum(
        range(1, 4), ETA3, ctx, K2_AUX.alpha, omega
    )


def _reference_check(r, eta, start, form) -> bool:
    """Check the evaluator against the reference; return whether a sign vanished.

    The evaluator raises ZeroSignArgument exactly where the tree-by-tree
    walk reads a zero sign argument, and otherwise equals tree_sum.
    """
    ctx = scalar_context(eta)
    if reads_zero_sign(r, eta, start, form):
        with pytest.raises(ZeroSignArgument):
            flow_tree_sum(range(1, r + 1), eta, ctx, start, form)
        return True
    expected = tree_sum(r, eta, start, form, laurent_context(r))
    assert flow_tree_sum(range(1, r + 1), eta, ctx, start, form) == expected
    return False


def test_split_evaluator_off_dyadic_points():
    # Points on the flow half-line of the joint check, alpha + t iota_{e_I} omega,
    # at t with odd denominators, under omega and under a form with the
    # perturbation divided by 3.
    evaluated = 0
    for r in (3, 4, 5):
        for trial in range(2):
            aux = random_instance(r, 600 + 10 * r + trial)
            omega, d, _ = _first_generic(aux, "omega", trial, 1000)
            # d (eta + (omega - eta) / 3), with omega = W / d as the integer W
            third = tuple(
                tuple(d * e + Fraction(w - d * e, 3) for e, w in zip(eta_row, row))
                for eta_row, row in zip(aux.eta, omega)
            )
            for form in (omega, third):
                iota = [Fraction(-sum(row), d) for row in form]  # omega(e_I, e_j) for omega = form / d
                for t in (Fraction(1, 3), Fraction(2, 7)):
                    point = tuple(a + t * v for a, v in zip(aux.alpha, iota))
                    evaluated += not _reference_check(r, aux.eta, point, form)
    assert evaluated > 0


def test_zero_sign_arguments_raise_as_in_the_reference():
    # The first 16 draws of each sampler; beta's first draw, alpha itself,
    # has a zero sign argument on the instances (4, 2), (4, 32) and (5, 3).
    raised = evaluated = 0
    for r, seed in ((3, 0), (4, 2), (4, 32), (5, 3)):
        aux = random_instance(r, seed)
        # the integer draws W and B of omega = W / d and beta = B / d: the same flow
        candidates = [(aux.alpha, omega) for omega, _ in islice(_omega_numerators(aux, 0), 16)]
        candidates += [(beta, aux.eta) for beta, _ in islice(_beta_numerators(aux, 0), 16)]
        for start, form in candidates:
            if _reference_check(r, aux.eta, start, form):
                raised += 1
            else:
                evaluated += 1
    assert raised > 0 and evaluated > 0


def test_recursion_through_a_negative_omega_split():
    # At the root split {1} | {2, 3}, theta(e_L) = -1 and omega(e_L, e_R) = -1:
    # epsilon is +1, and the flow step divides by a negative pairing before
    # the split of {2, 3} reads its signs (epsilon 0 there).  The value is
    # the tree ((1, 2), 3), whose lower split has omega(e_1, e_2) = -2.
    eta = ((0, -2, 1), (2, 0, 2), (-1, -2, 0))
    start = (-1, 3, -2)
    assert _sign_arguments(start, 1, (2, 3), eta) == (-1, -1)
    assert not _reference_check(3, eta, start, eta)
    # A positive multiple of the start point has the same value (the evaluator scales by 3).
    for scale in (1, Fraction(1, 3)):
        value = flow_tree_sum(range(1, 4), eta, scalar_context(eta), [scale * x for x in start], eta)
        assert value == LaurentPoly({-3: -1, -1: -2, 1: -2, 3: -1})


def _perturbation(aux, mode, seed):
    """(start, form) of the perturbation flow_tree_scalar certifies for the seed.

    The draw W / d is passed as its integer W, which gives the same flow.
    """
    draw = _first_generic(aux, mode, seed, 1000)[0]
    if mode == "omega":
        return aux.alpha, draw
    eta_frac = tuple(tuple(Fraction(x) for x in row) for row in aux.eta)
    return draw, eta_frac


@pytest.mark.parametrize("mode", ["omega", "beta"])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_split_evaluator_equals_tree_sum(r, mode):
    for trial in range(4 if r < 6 else 2 if r == 6 else 1):
        aux = random_instance(r, 700 + 10 * r + trial)
        start, form = _perturbation(aux, mode, trial)
        expected = tree_sum(r, aux.eta, start, form, laurent_context(r))
        assert flow_tree_scalar(aux, mode=mode, seed=trial) == expected


class _Words(dict):
    """Free antisymmetric bracket: tree encodings with Laurent coefficients.

    Every tree is a basis vector of its own, so a sum of these values
    equals another only if the two sums agree tree by tree.
    """

    def __add__(self, other):
        out = _Words(self)
        for word, coeff in other.items():
            total = out.get(word, LaurentPoly.zero()) + coeff
            if total.is_zero():
                out.pop(word, None)
            else:
                out[word] = total
        return out

    def __neg__(self):
        return _Words({word: -coeff for word, coeff in self.items()})


def _words_context(r):
    def bracket(x, y, mx, my, pairing):
        k = kappa(pairing)
        out = _Words()
        for wx, cx in x.items():
            for wy, cy in y.items():
                # Child order of the tree encoding: the side with the lower index first.
                word, sign = ((wx, wy), 1) if (mx & -mx) < (my & -my) else ((wy, wx), -1)
                out = out + _Words({word: k * cx * cy * sign})
        return out

    return BracketContext(
        bracket=bracket,
        leaf_values={i: _Words({i: LaurentPoly.const(1)}) for i in range(1, r + 1)},
        zero=_Words(),
    )


@pytest.mark.parametrize("mode", ["omega", "beta"])
def test_split_evaluator_equals_tree_sum_free_bracket(mode):
    nonzero = 0
    for r in range(2, 6):
        for trial in range(3):
            aux = random_instance(r, 800 + 10 * r + trial)
            start, form = _perturbation(aux, mode, trial)
            ctx = _words_context(r)
            value = flow_tree_sum(range(1, r + 1), aux.eta, ctx, start, form)
            assert value == tree_sum(r, aux.eta, start, form, ctx)
            nonzero += bool(value)
    assert nonzero > 0


def test_zero_sibling_value_still_checks_signs():
    # With eta itself from this start point, one sign argument vanishes, and
    # only below the right side of a split whose left side holds leaf 1.
    # Leaf 1 carries the value 0, so that left side is zero whatever the
    # signs; the evaluator must still read the right side and refuse.
    eta = ((0, 1, 1, 2), (-1, 0, 1, 0), (-1, -1, 0, 2), (-2, 0, -2, 0))
    start = _fr(2, 2, 2, -6)
    ctx = scalar_context(eta)
    ctx.leaf_values[1] = 0  # the packed zero
    eta_frac = tuple(tuple(Fraction(x) for x in row) for row in eta)
    with pytest.raises(ZeroSignArgument):
        flow_tree_sum(range(1, 5), eta, ctx, start, eta_frac)


# ---------------------------------------------------------------------------
# the packed scalar bracket against the LaurentPoly one


def _l1_bound(eta) -> int:
    """P^(r - 1) (2r - 3)!!, P the sum of |eta_ij| over i < j: the bound the packing width rests on."""
    r = len(eta)
    p = sum(abs(eta[i][j]) for i in range(r) for j in range(i + 1, r))
    return p ** (r - 1) * prod(range(1, 2 * r - 2, 2))


def _restrict(values, indices):
    """The entries (or the square block) of values on the 1-based indices."""
    if isinstance(values[0], (tuple, list)):
        return tuple(tuple(values[i - 1][j - 1] for j in indices) for i in indices)
    return tuple(values[i - 1] for i in indices)


@pytest.mark.parametrize("mode", ["omega", "beta"])
def test_packed_scalar_on_sub_index_sets_equals_the_tree_reference(mode):
    # flow_tree_sum on J reads only the bits of J, so it is the tree sum of
    # the lattice restricted to J; the packed values are graded at masks with gaps.
    compared = 0
    for r in (4, 5):
        for trial in range(3):
            aux = random_instance(r, 900 + 10 * r + trial)
            start, form = _perturbation(aux, mode, trial)
            ctx = scalar_context(aux.eta)
            for size in range(2, r):
                for indices in combinations(range(1, r + 1), size):
                    eta_j, start_j, form_j = (_restrict(x, indices) for x in (aux.eta, start, form))
                    if reads_zero_sign(size, eta_j, start_j, form_j):
                        with pytest.raises(ZeroSignArgument):
                            flow_tree_sum(indices, aux.eta, ctx, start, form)
                        continue
                    expected = tree_sum(size, eta_j, start_j, form_j, laurent_context(size))
                    assert flow_tree_sum(indices, aux.eta, ctx, start, form) == expected
                    compared += bool(expected)
    assert compared > 0


def test_packed_scalar_decodes_a_leaf_under_a_zero_eta():
    # P = 0 bounds no tree sum above 0, yet a single index still sums to 1
    zero = ((0, 0), (0, 0))
    assert flow_tree_sum([2], zero, scalar_context(zero), (0, 0), zero) == LaurentPoly.const(1)
    assert flow_tree_sum([1, 2], zero, scalar_context(zero), (0, 0), zero) == LaurentPoly.zero()


def test_packed_scalar_decodes_coefficients_above_2_16():
    # r = 10: the LaurentPoly bracket run through the same evaluator at the certified draw
    aux = random_instance(10, 0)
    form, _, value = _first_generic(aux, "omega", 0, 1000)
    assert max(abs(c) for c in value.terms().values()) > 1 << 16
    assert value == flow_tree_sum(range(1, 11), aux.eta, laurent_context(10), aux.alpha, form)
    assert sum(abs(c) for c in value.terms().values()) <= _l1_bound(aux.eta)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(r=st.integers(2, 5), seed=st.integers(0, 10 ** 6), mode=st.sampled_from(["omega", "beta"]))
def test_packed_scalar_stays_within_its_l1_bound(r, seed, mode):
    aux = random_instance(r, seed)
    start, form = _perturbation(aux, mode, seed)
    value = flow_tree_scalar(aux, mode=mode, seed=seed)
    assert sum(abs(c) for c in value.terms().values()) <= _l1_bound(aux.eta)
    assert value == tree_sum(r, aux.eta, start, form, laurent_context(r))
    # the packed bracket also serves the tree-by-tree walk: decode its sum once
    ctx = scalar_context(aux.eta)
    assert ctx.decode(tree_sum(r, aux.eta, start, form, ctx), (1 << r) - 1) == value
