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

Evaluation doubles as the certificate of a sampled perturbation: every
sign argument the sum depends on is read, and a zero one raises
ZeroSignArgument.  The samplers therefore evaluate the draws of
``lattice`` in turn and keep the first evaluation that goes through.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LaurentPoly, kappa
from .errors import InvalidInput, SamplingTimeout, ZeroSignArgument
from .lattice import AuxLattice, OmegaForm, beta_draws, mask_indices, mask_sum, omega_draws


def _entries(form):
    return form.entries if isinstance(form, OmegaForm) else form


class _MaskForm:
    """Skew matrix with cached contractions against {0,1}-vectors."""

    __slots__ = ("matrix", "r", "_rows")

    def __init__(self, matrix):
        self.matrix = matrix
        self.r = len(matrix)
        self._rows = {}

    def row(self, mask: int):
        row = self._rows.get(mask)
        if row is None:
            acc = [0] * self.r
            for i in mask_indices(mask):
                mrow = self.matrix[i]
                for j in range(self.r):
                    acc[j] += mrow[j]
            row = tuple(acc)
            self._rows[mask] = row
        return row

    def pair(self, ma: int, mb: int):
        row = self.row(ma)
        return sum(row[j] for j in mask_indices(mb))


class BracketContext:
    """Graded bilinear antisymmetric bracket with one input value per leaf.

    ``bracket(x, y, mask_x, mask_y)`` must be bilinear, antisymmetric under
    swapping (x, mask_x) with (y, mask_y), additive in the grading, and
    must vanish whenever the eta-pairing of the two grades vanishes (the
    compatibility the graded Lie algebras here always satisfy).  Values
    need ``+`` and unary ``-``.
    """

    def __init__(self, bracket, leaf_values: dict, zero):
        self.bracket = bracket
        self.leaf_values = dict(leaf_values)
        self.zero = zero


def scalar_context(eta, r: int) -> BracketContext:
    """The bracket [a, b] = kappa(eta(e_A, e_B)) a b on Laurent polynomials."""
    mf_eta = _MaskForm(tuple(tuple(row) for row in eta))

    def bracket(x, y, mx, my):
        return kappa(mf_eta.pair(mx, my)) * x * y

    return BracketContext(
        bracket=bracket,
        leaf_values={i: LaurentPoly.const(1) for i in range(1, r + 1)},
        zero=LaurentPoly.zero(),
    )


def _evaluate(mask: int, theta, eta: _MaskForm, form: _MaskForm, ctx: BracketContext):
    """F(mask, theta): the flow tree sum over the trees on the indices of mask."""
    if mask & (mask - 1) == 0:
        return ctx.leaf_values[mask.bit_length()]
    low = mask & -mask
    rest = mask ^ low
    total = ctx.zero
    sub = rest
    while sub:
        sub = (sub - 1) & rest  # every proper subset of rest, ending with the empty one
        left = low | sub
        right = rest ^ sub
        if eta.pair(left, right) == 0:
            continue
        a = mask_sum(theta, left)
        b = form.pair(left, right)
        if a == 0 or b == 0:
            raise ZeroSignArgument(f"vanishing sign argument at split {left:b}|{right:b}")
        if (a > 0) != (b > 0):
            continue  # eps = 0
        coef = Fraction(a) / b
        step = tuple(t + coef * v for t, v in zip(theta, form.row(mask)))
        # Both sides are evaluated even when one is zero, so that every sign
        # argument the sum depends on is checked.
        value_left = _evaluate(left, step, eta, form, ctx)
        value_right = _evaluate(right, step, eta, form, ctx)
        value = ctx.bracket(value_left, value_right, left, right)
        total = total + (-value if a > 0 else value)
    return total


def flow_tree_sum(indices, eta, ctx: BracketContext, alpha0, form):
    """Flow tree map of the index subset ``indices``, started at alpha0.

    The value is graded at e_J for J = indices.  Raises ZeroSignArgument
    when a sign argument the sum depends on vanishes.
    """
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    eta_form = _MaskForm(tuple(tuple(row) for row in eta))
    return _evaluate(mask, tuple(alpha0), eta_form, _MaskForm(_entries(form)), ctx)


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
    ctx = scalar_context(aux.eta, aux.r)
    for draw, start, form in candidates:
        try:
            return draw, flow_tree_map(aux, ctx, start, form)
        except ZeroSignArgument:
            continue
    raise SamplingTimeout(f"no admissible {mode} after {budget} resamples")


def sample_omega(aux: AuxLattice, seed: int, budget: int = 1000) -> OmegaForm:
    """The first omega = eta + 2^-k R drawn for the seed on which the flow evaluates.

    The draws of ``lattice.omega_draws`` already lie in U^eta; evaluating
    the flow tree map at alpha certifies membership in U_{I,alpha}.
    Deterministic per seed.
    """
    omega, _ = _first_generic(aux, "omega", seed, budget)
    return OmegaForm(entries=omega)


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
