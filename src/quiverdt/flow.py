"""The flow tree formula, evaluated one split at a time.

The sum over decorated trees on J factorizes over the split at the root.
With l the lowest index of J and R = J minus L,

    F(J, theta) = sum over L containing l of eps(L, R, theta) [F(L, theta'), F(R, theta')]

where eps = -(sgn theta(e_L) + sgn omega(e_L, e_R)) / 2, theta' is the
discrete flow step theta + (theta(e_L) / omega(e_L, e_R)) iota_{e_J} omega,
and the graded bracket carries the kappa(eta(e_L, e_R)) factor.  Splits
with eta(e_L, e_R) = 0 are dropped before any sign is read: their bracket
vanishes, and the unperturbed form eta may be degenerate on exactly those
splits.

Every quantity a split reads is a subset sum over the bits of J.  For a
skew M, M(e_L, e_L) = 0, so M(e_L, e_{J minus L}) = M(e_L, e_J), and the
pairings eta(e_L, e_R) and omega(e_L, e_R) are the sums over L of the
row sums M(e_i, e_J); theta(e_L) is the sum over L of theta.  These
tables are subset_sums over the splits L = {l} + S, S a proper subset of
the rest of J.  Those of eta and omega depend on the mask alone and are
built once per mask per evaluation; theta's is built per call, and theta
is updated only on the bits of J (its children read nothing else).

The evaluator runs in integers: the rules read only signs, so F(J, c theta)
= F(J, theta) for c > 0, and omega's positive multiples give the same step.
theta and omega start as integer multiples; at a = theta(e_L), b =
omega(e_L, e_R) the step carries |b| theta' = |b| theta - sgn(b) a
iota_{e_J} omega, integers with the signs and zeros of theta'.

Evaluation doubles as the certificate of a sampled perturbation: every
sign argument the sum depends on is read, and a zero one raises
ZeroSignArgument.  The samplers therefore evaluate the draws of
``lattice`` in turn and keep the first evaluation that goes through.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import LaurentPoly, kappa
from .errors import InvalidInput, SamplingTimeout, ZeroSignArgument
from .lattice import AuxLattice, beta_draws, check_skew, omega_draws, subset_sums


class BracketContext:
    """Graded bilinear antisymmetric bracket with one input value per leaf.

    ``bracket(x, y, mask_x, mask_y, pairing)`` is passed the eta-pairing
    eta(e_{mask_x}, e_{mask_y}) of the two grades, which the evaluator has
    already read.  It must be bilinear, antisymmetric under swapping
    (x, mask_x) with (y, mask_y), additive in the grading, and must vanish
    whenever the pairing vanishes (the compatibility the graded Lie
    algebras here always satisfy).  Values need ``+`` and unary ``-``.
    """

    def __init__(self, bracket, leaf_values: dict, zero):
        self.bracket = bracket
        self.leaf_values = dict(leaf_values)
        self.zero = zero


def scalar_context(r: int) -> BracketContext:
    """The bracket [a, b] = kappa(eta(e_A, e_B)) a b on Laurent polynomials."""
    return BracketContext(
        bracket=lambda x, y, mx, my, pairing: kappa(pairing) * x * y,
        leaf_values={i: LaurentPoly.const(1) for i in range(1, r + 1)},
        zero=LaurentPoly.zero(),
    )


def _evaluate(mask: int, theta, eta, form, ctx: BracketContext, tables: dict):
    """F(mask, theta): the flow tree sum over the trees on the indices of mask.

    Entry s of each table belongs to the split L = {low} + (the subset s
    of the other bits); ``tables`` keeps, per mask, those of eta and omega.
    """
    if mask & (mask - 1) == 0:
        return ctx.leaf_values[mask.bit_length()]
    table = tables.get(mask)
    if table is None:
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        eta_rows = [sum(eta[i][j] for j in bits) for i in bits]  # eta(e_i, e_J)
        form_rows = [sum(form[i][j] for j in bits) for i in bits]  # omega(e_i, e_J)
        lefts = subset_sums([1 << i for i in bits[1:]], 1 << bits[0])
        etas = subset_sums(eta_rows[1:], eta_rows[0])
        forms = subset_sums(form_rows[1:], form_rows[0])
        splits = [t for t in zip(range(len(lefts) - 1), lefts, etas, forms) if t[2]]  # all but L = J
        table = tables[mask] = (bits, form_rows, splits)
    bits, form_rows, splits = table
    thetas = subset_sums([theta[i] for i in bits[1:]], theta[bits[0]])
    total = ctx.zero
    for s, left, pairing, b in splits:
        a, right = thetas[s], mask ^ left
        if a == 0 or b == 0:
            raise ZeroSignArgument(f"vanishing sign argument at split {left:b}|{right:b}")
        if (a > 0) != (b > 0):
            continue  # eps = 0
        # |b| times theta - (a / b) omega(e_i, e_J) on the bits of J; here sgn(b) a = |a|
        step, a_abs, b_abs = list(theta), abs(a), abs(b)
        for i, v in zip(bits, form_rows):
            step[i] = b_abs * theta[i] - a_abs * v
        # Both sides are evaluated even when one is zero, so that every sign
        # argument the sum depends on is checked.
        value_left = _evaluate(left, step, eta, form, ctx, tables)
        value_right = _evaluate(right, step, eta, form, ctx, tables)
        value = ctx.bracket(value_left, value_right, left, right, pairing)
        total = total + (-value if a > 0 else value)
    return total


def flow_tree_sum(indices, eta, ctx: BracketContext, alpha0, form):
    """Flow tree map of the index subset ``indices``, started at alpha0.

    ``eta``, ``form`` and ``alpha0`` need one size, int or Fraction entries
    (integral ones in eta), and skew matrices (the sum reads M(e_L, e_R) as
    M(e_L, e_J)); ``indices`` must be nonempty and distinct in 1..len(eta).
    Else InvalidInput.  The value is graded at e_J for J = indices.  Raises
    ZeroSignArgument when a sign argument the sum depends on vanishes.
    """
    check_skew(eta, "eta")
    check_skew(form, "form")
    alpha0, n = tuple(alpha0), len(eta)
    if len(form) != n or len(alpha0) != n:
        raise InvalidInput(f"form and alpha0 must have the size {n} of eta")
    to_scale = [*alpha0, *(x for row in form for x in row)]
    if not all(isinstance(x, (int, Fraction)) for x in to_scale + [x for row in eta for x in row]):
        raise InvalidInput("eta, form and alpha0 need int or Fraction entries")
    if any(x.denominator != 1 for row in eta for x in row):
        raise InvalidInput("eta needs integral entries")
    eta = [[int(x) for x in row] for row in eta]
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise InvalidInput(f"index {i} is outside 1..{n}")
        if mask >> (i - 1) & 1:
            raise InvalidInput(f"index {i} is repeated")
        mask |= 1 << (i - 1)
    if not mask:
        raise InvalidInput("indices must not be empty")
    c = lcm(*(x.denominator for x in to_scale))
    form = [[int(x * c) for x in row] for row in form]
    return _evaluate(mask, [int(x * c) for x in alpha0], eta, form, ctx, {})


def flow_tree_map(aux: AuxLattice, ctx: BracketContext, alpha0, form):
    """Flow tree map of the full index set, a graded value at e_I."""
    return flow_tree_sum(range(1, aux.r + 1), aux.eta, ctx, alpha0, form)


def _first_generic(aux: AuxLattice, mode: str, seed: int, budget: int):
    """(draw, F) for the first draw of the seed on which the scalar formula evaluates.

    In omega mode the draws are perturbed forms and the flow starts at
    alpha; in beta mode they are perturbed start points and the form is
    eta itself.
    """
    if mode == "omega":
        candidates = ((omega, aux.alpha, omega) for omega in omega_draws(aux, seed, budget))
    elif mode == "beta":
        candidates = ((beta, beta, aux.eta) for beta in beta_draws(aux, seed, budget))
    else:
        raise InvalidInput(f"unknown perturbation mode {mode!r}")
    ctx = scalar_context(aux.r)
    for draw, start, form in candidates:
        try:
            return draw, flow_tree_map(aux, ctx, start, form)
        except ZeroSignArgument:
            continue
    raise SamplingTimeout(f"no admissible {mode} after {budget} resamples")


def sample_omega(aux: AuxLattice, seed: int, budget: int = 1000) -> tuple:
    """The first omega = eta + 2^-k R drawn for the seed on which the flow evaluates.

    The draws of ``lattice.omega_draws`` already lie in U^eta; evaluating
    the flow tree map at alpha certifies membership in U_{I,alpha}.
    Deterministic per seed.
    """
    omega, _ = _first_generic(aux, "omega", seed, budget)
    return omega


def sample_beta(aux: AuxLattice, seed: int, budget: int = 1000):
    """The first start point drawn for the seed on which the eta-flow evaluates.

    alpha itself is drawn first, then dyadic perturbations of it that keep
    its signs (``lattice.beta_draws``).
    """
    beta, _ = _first_generic(aux, "beta", seed, budget)
    return beta


def flow_tree_scalar(
    aux: AuxLattice, mode: str = "omega", seed: int = 0, budget: int = 1000
) -> LaurentPoly:
    """Universal wall-crossing coefficient of the decomposition, in Z[y, y^-1].

    In omega-perturbed mode the flow runs from alpha with a sampled generic
    perturbation of eta; in beta-perturbed mode it runs from a sampled
    perturbation of alpha with eta itself.  The two modes and all seeds
    produce the identical polynomial.
    """
    _, value = _first_generic(aux, mode, seed, budget)
    return value
