"""The flow tree formula, evaluated one split at a time, in integers.

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
the rest of J.  Those of eta and omega depend on the mask alone: one
``Evaluation`` of (eta, omega) builds each once, for every theta
(``Evaluation.split_table``); theta's is built per call, and theta is
updated only on the bits of J (its children read nothing else).

The evaluator runs in integers: the rules read only signs, so F(J, c theta)
= F(J, theta) for c > 0, and omega's positive multiples give the same step.
theta and omega start as integer multiples; at a = theta(e_L), b =
omega(e_L, e_R) the step carries |b| theta' = |b| theta - sgn(b) a
iota_{e_J} omega, integers with the signs and zeros of theta'.  The
sampler passes the integer draws of ``lattice`` straight in: omega = W / d
runs as W, a start point B / d as B, and alpha as its lcm multiple.
``flow_tree_sum``, the public entry, checks its input and scales theta and
the form by the lcm of their denominators.

The scalar bracket kappa(eta(e_L, e_R)) x y runs on Laurent polynomials
packed into ints (``scalar_context``): the value at mask J is the sum of
c_i 2^(w (i + E_J)), E_J the sum of |eta_ij| over the pairs i < j in J,
which bounds its exponents.  Under y -> 2^w the int arithmetic is exact,
so only the decode, once per evaluation, needs the digits to fit: |c_i|
< 2^(w - 1).  The value is a signed sum of at most (2r - 3)!! trees, each
a product of r - 1 factors kappa(p) with |kappa(p)|_1 = |p| <= P = E_I, so
2^(w - 1) > P^(r - 1) (2r - 3)!! bounds its l1 norm and fixes w.  P is
taken as at least 1, so that w >= 2 and a single leaf, 1, fits too.

Evaluation doubles as the certificate of a sampled perturbation: it
reads the sign arguments its value depends on, and a zero one raises
ZeroSignArgument.  Of the two sides of a split it evaluates the side
with fewer indices first, the left one on a tie (a one-index side is a
leaf value), and skips the other side when the first is zero, reading
no sign under it.  ``_first_generic`` is the one place that accepts or
rejects a perturbation: it checks alpha once, evaluates the integer
draws of ``lattice``, one per resample, in turn, and returns the first
one whose evaluation goes through, as (W, d, F, evaluation) with the
draw W / d and its ``Evaluation``, which the beta draws, all on eta, share.

``check_joint_consistency`` is the gate of the formula's consistency
along the half-line alpha + t iota_{e_I} omega.  Its joints are the
root's splits in the split table of I, and at each one the jump of the
wall value must be the commutator of the two incoming walls; every value
is read through the draw's ``Evaluation``, so each mask's table is
built at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import itemgetter

from .algebra import LaurentPoly, kappa
from .errors import ConsistencyFailure, InvalidInput, NotGenericAlpha, SamplingTimeout, ZeroSignArgument
from .lattice import (
    AuxLattice,
    _beta_numerators,
    _omega_numerators,
    alpha_is_generic,
    check_skew,
    integral_multiple,
    subset_sums,
)


def _identity(value, mask):
    return value


class BracketContext:
    """Graded bilinear antisymmetric bracket with one input value per leaf.

    ``bracket(x, y, mask_x, mask_y, pairing)`` is passed the eta-pairing
    eta(e_{mask_x}, e_{mask_y}) of the two grades, which the evaluator has
    already read.  It must be bilinear, antisymmetric under swapping
    (x, mask_x) with (y, mask_y), additive in the grading, and must vanish
    whenever the pairing vanishes (the compatibility the graded Lie
    algebras here always satisfy).  Values need ``+``, unary ``-`` and
    ``==`` with ``zero``: when the side of a split evaluated first equals
    it, the other side is skipped.
    ``decode(value, mask)`` turns the sum graded at e_mask into the value
    returned; it is the identity unless given.
    """

    def __init__(self, bracket, leaf_values: dict, zero, decode=_identity):
        self.bracket = bracket
        self.leaf_values = dict(leaf_values)
        self.zero = zero
        self.decode = decode


def _packed_kappa(p: int, width: int) -> int:
    """kappa(p) times y^(|p| - 1) at y = 2^width: its exponents 0, 2, .., 2|p| - 2."""
    n = abs(p)
    sign = 1 if (n % 2 == 0) == (p > 0) else -1
    return sign * (((1 << 2 * width * n) - 1) // ((1 << 2 * width) - 1))


def scalar_context(eta) -> BracketContext:
    """The bracket [a, b] = kappa(eta(e_A, e_B)) a b on Laurent polynomials packed into ints.

    A value graded at e_J is the int sum of c_i 2^(w (i + E_J)) for the
    polynomial sum of c_i y^i; the bracket of the values at L and R is
    kappa(p) x y, packed, shifted left by w (E_J - E_L - E_R - |p| + 1) >= w,
    and ``decode`` reads the balanced base-2^w digits back into a
    LaurentPoly (see the module docstring for w).  ``eta`` is the integer
    skew form the evaluation runs on.
    """
    eta = [[int(x) for x in row] for row in eta]
    r = len(eta)
    spans = [0]  # E_J per mask J: E of J plus bit h adds the |eta_hj| over j in J
    for h, row in enumerate(eta):
        spans += [e + s for e, s in zip(spans, subset_sums([abs(x) for x in row[:h]]))]
    bound = max(spans[-1], 1) ** max(r - 1, 0) * prod(range(1, 2 * r - 2, 2))  # (2r - 3)!!
    width = bound.bit_length() + 1
    kappas = {}

    def bracket(x, y, mask_x, mask_y, pairing):
        k = kappas.get(pairing)
        if k is None:
            k = kappas[pairing] = _packed_kappa(pairing, width)
        offset = spans[mask_x | mask_y] - spans[mask_x] - spans[mask_y] - abs(pairing) + 1
        return k * x * y << width * offset

    def decode(value, mask):
        digits, exp = {}, -spans[mask]
        low, half = (1 << width) - 1, 1 << (width - 1)
        while value:
            digit = value & low
            if digit >= half:
                digit -= low + 1
            if digit:
                digits[exp] = digit
            value = (value - digit) >> width
            exp += 1
        return LaurentPoly(digits)

    return BracketContext(bracket, dict.fromkeys(range(1, r + 1), 1), 0, decode)


class Evaluation:
    """The flow tree sums on the integer skew forms eta and form, in the bracket ``ctx``.

    ``tables`` keeps the split table of each mask built so far; a table
    depends on (eta, form) alone, so the values at every theta share them.
    """

    def __init__(self, eta, form, ctx: BracketContext):
        self.eta, self.form, self.ctx = eta, form, ctx
        self.tables: dict = {}

    def split_table(self, mask: int) -> tuple:
        """(bits, form_rows, splits) for a mask of two or more bits, built on a miss and kept.

        ``bits`` are the indices of J = mask, ``form_rows`` the pairings
        omega(e_i, e_J) over them, and ``splits`` one entry (s, L, eta(e_L,
        e_J), omega(e_L, e_J)) per split L = {low} + (the subset s of the
        other bits), L != J, with eta(e_L, e_J) != 0.
        """
        table = self.tables.get(mask)
        if table is None:
            bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
            row = itemgetter(*bits)
            eta_rows = [sum(row(self.eta[i])) for i in bits]  # eta(e_i, e_J)
            form_rows = [sum(row(self.form[i])) for i in bits]  # omega(e_i, e_J)
            lefts = subset_sums([1 << i for i in bits[1:]], 1 << bits[0])
            etas = subset_sums(eta_rows[1:], eta_rows[0])
            forms = subset_sums(form_rows[1:], form_rows[0])
            splits = [t for t in zip(range(len(lefts) - 1), lefts, etas, forms) if t[2]]  # all but L = J
            table = self.tables[mask] = (bits, form_rows, splits)
        return table

    def value(self, mask: int, theta):
        """F(mask, theta) in ``ctx``, the sum over the trees on mask; a mask {i, j} is read inline."""
        ctx = self.ctx
        low, high = mask & -mask, mask & (mask - 1)
        if not high:
            return ctx.leaf_values[mask.bit_length()]
        if high & (high - 1) == 0:  # L = {i}: no sign is read when eta_ij = 0
            i, j = low.bit_length() - 1, high.bit_length() - 1
            pairing, a, b = self.eta[i][j], theta[i], self.form[i][j]
            if pairing and (a == 0 or b == 0):
                raise ZeroSignArgument(f"vanishing sign argument at split {low:b}|{high:b}")
            if not pairing or (a > 0) != (b > 0):
                return ctx.zero
            value = ctx.bracket(ctx.leaf_values[i + 1], ctx.leaf_values[j + 1], low, high, pairing)
            return -value if a > 0 else value
        bits, form_rows, splits = self.split_table(mask)
        thetas = subset_sums([theta[i] for i in bits[1:]], theta[bits[0]])
        total = zero = ctx.zero
        leaves = ctx.leaf_values
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
            # A bracket with a zero side is zero, so the other side is not
            # evaluated and no sign under it is read.  The side with fewer
            # indices goes first, the left one on a tie; a one-index side, which
            # always goes first, is read from the leaf values.
            if left.bit_count() <= right.bit_count():  # s = 0 is the one-index left side
                value_left = leaves[low.bit_length()] if s == 0 else self.value(left, step)
                value_right = zero if value_left == zero else self.value(right, step)
            else:
                single = right & (right - 1) == 0
                value_right = leaves[right.bit_length()] if single else self.value(right, step)
                value_left = zero if value_right == zero else self.value(left, step)
            if value_left == zero or value_right == zero:
                continue
            value = ctx.bracket(value_left, value_right, left, right, pairing)
            total = total + (-value if a > 0 else value)
        return total


def vanishes_at_root(pairings, alpha) -> bool:
    """True when no split at the root can contribute, whatever the draw: then F(I) = 0.

    ``pairings`` are the row pairings eta(e_i, e_I) and ``alpha`` the
    unperturbed stability point, int or Fraction entries.  The root of
    ``Evaluation.value`` reads, in this order, the splits L containing 1,
    L != I, with eta(e_L, e_I) != 0, and a split contributes only when
    theta(e_L) and omega(e_L, e_R) have one sign.  Every omega draw keeps the sign of
    eta on such a split, and every beta draw the sign of alpha where alpha
    is nonzero.  So when alpha is nonzero with the sign opposite to eta on
    every split read, neither mode reads a contributing split, and none of
    them raises: alpha is then also generic, since each proper subset or
    its complement is read.  r = 1 is the leaf 1, never certified.
    """
    if len(alpha) < 2:
        return False
    etas = subset_sums(pairings[1:], pairings[0])
    thetas = subset_sums(alpha[1:], alpha[0])
    return all(a and (a > 0) != (b > 0) for a, b in zip(thetas[:-1], etas) if b)


def flow_tree_sum(indices, eta, ctx: BracketContext, alpha0, form):
    """Flow tree map of the index subset ``indices``, started at alpha0.

    ``eta``, ``form`` and ``alpha0`` need one size, int or Fraction entries
    (integral ones in eta), and skew matrices (the sum reads M(e_L, e_R) as
    M(e_L, e_J)); ``indices`` must be nonempty and distinct in 1..len(eta).
    Else InvalidInput.  A scalar ``ctx`` is ``scalar_context(eta)``.  The
    value is graded at e_J for J = indices.  Raises ZeroSignArgument when a
    sign argument the sum depends on vanishes.
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
    value = Evaluation(eta, form, ctx).value(mask, [int(x * c) for x in alpha0])
    return ctx.decode(value, mask)


def _first_generic(aux: AuxLattice, mode: str, seed: int, budget: int):
    """(numerators, d, F, evaluation) for the seed's first draw on which the formula evaluates.

    The draw is numerators / d, and ``evaluation`` the ``Evaluation``
    that evaluated it: one per form in omega mode, where the draws are
    perturbed forms and the flow starts at alpha; one for all draws in
    beta mode, where they are perturbed start points and the form is eta
    itself.  Both go to the evaluator as the integers ``lattice`` draws
    them in, one per resample; the first beta draw is alpha itself, as
    A / c with c its lcm denominator.  An alpha that fails the finite
    genericity test raises NotGenericAlpha before any draw, and
    ``budget`` resamples without an evaluation that goes through raise
    SamplingTimeout.

    An evaluation that goes through is the whole certificate.  The omega
    draws keep eta's sign wherever eta is nonzero (U^eta), and nothing
    else is required of them.  U_J, omega nonvanishing on disjoint pairs
    where eta vanishes, constrains only quantities the evaluator never
    reads as a sign: it drops a split with eta(e_L, e_R) = 0 before it
    reads any.  Nor does it read any under the side it skips: of the two
    sides of a split it evaluates the one with fewer indices first, the
    left one on a tie, and a zero value there makes the term 0.  The
    signs an evaluation that goes through reads are all nonzero, so each
    keeps its sign on a neighbourhood U of the draw; by induction over the
    recursion, every draw in U reads the same signs, gets the same values
    and skips the same sides, so the value is constant on U.  U holds
    fully generic draws, as every neighbourhood of a U^eta draw does;
    there the full evaluation is the flow tree formula, the same for every
    generic perturbation, and the skipped terms are 0.  So a draw that
    evaluates gives F, and a retry at a smaller shrink exponent adds nothing.
    """
    eta, ctx = aux.eta, scalar_context(aux.eta)
    if mode == "omega":
        alpha = integral_multiple(aux.alpha)[1]
        draws = _omega_numerators(aux, seed, budget)
        candidates = ((form, d, alpha, Evaluation(eta, form, ctx)) for form, d in draws)
    elif mode == "beta":
        evaluation = Evaluation(eta, eta, ctx)
        candidates = ((start, d, start, evaluation) for start, d in _beta_numerators(aux, seed, budget))
    else:
        raise InvalidInput(f"unknown perturbation mode {mode!r}")
    if not alpha_is_generic(eta, aux.alpha):
        raise NotGenericAlpha(f"alpha = {aux.alpha} fails the finite genericity test")
    full = (1 << aux.r) - 1
    for draw, d, start, evaluation in candidates:
        try:
            value = evaluation.value(full, start)
        except ZeroSignArgument:
            continue
        return draw, d, ctx.decode(value, full), evaluation
    raise SamplingTimeout(f"no admissible {mode} after {budget} resamples")


def flow_tree_scalar(
    aux: AuxLattice, mode: str = "omega", seed: int = 0, budget: int = 1000
) -> LaurentPoly:
    """Universal wall-crossing coefficient of the decomposition, in Z[y, y^-1].

    In omega-perturbed mode the flow runs from alpha with a sampled generic
    perturbation of eta; in beta-perturbed mode it runs from a sampled
    perturbation of alpha with eta itself.  The two modes and all seeds
    produce the identical polynomial.
    """
    return _first_generic(aux, mode, seed, budget)[2]


# ---------------------------------------------------------------------------
# joint consistency along the flow half-line


@dataclass(frozen=True)
class ConsistencyReport:
    """The wall value at alpha and the joint positions t, in increasing order."""

    wall_value: LaurentPoly
    joints: tuple


_SEGMENT_FRACTIONS = tuple(Fraction(p, q) for p, q in ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (1, 7), (6, 7)))
_TAIL_OFFSETS = (1, 2, Fraction(1, 2), 3, Fraction(5, 2), 5, Fraction(7, 3))


def _has_triple_split(point, r: int) -> bool:
    """Is there a partition of {1..r} into >= 3 parts, all annihilated by point?

    Exactly when point kills e_I and two distinct null proper masks B, A
    nest, B inside A: parts P1, P2, ... give B = P1 inside A = P1 u P2, and
    nested B, A give the null parts B, A minus B and I minus A.
    """
    sums = subset_sums(point)
    null = [m for m in range(1, (1 << r) - 1) if sums[m] == 0]
    return sums[-1] == 0 and any(b != a and b & a == b for a in null for b in null)


def check_joint_consistency(aux: AuxLattice, seed: int, budget: int = 1000) -> ConsistencyReport:
    """Verify the wall structure along the attractor half-line from alpha.

    Samples a generic perturbation, locates every relevant joint on the
    half-line alpha + t * iota_{e_I} omega, and checks: no triple splits at
    the joints; each jump of the wall value across a joint equals the
    commutator predicted by the two incoming walls; and the value beyond
    the last joint vanishes.  Raises ConsistencyFailure with the offending
    joint.  The telescoped jumps then reassemble the wall value at alpha
    with no check of their own: they sum to the first segment's value
    minus the last one's, which the checks fix as the wall value and 0.
    """
    r = aux.r
    if r < 2:
        raise InvalidInput("joint consistency needs r >= 2")
    # omega = W / d and alpha = A / c run as W and A, through the draw's evaluation and tables
    _, d, value_at_alpha, evaluation = _first_generic(aux, "omega", seed, budget)
    c, alpha = integral_multiple(aux.alpha)
    full, decode = (1 << r) - 1, evaluation.ctx.decode
    # the root's splits L, each unordered split of I once, as the part containing index 1
    _, form_rows, splits = evaluation.split_table(full)
    alphas = subset_sums(alpha[1:], alpha[0])

    # the joints t = alpha(e_L) / omega(e_L, e_I) > 0; every split of the table has
    # eta(e_L, e_I) != 0, where omega keeps eta's sign, so omega(e_L, e_I) != 0
    located = sorted(
        (Fraction(alphas[s] * d, c * b), left, pairing, b)
        for s, left, pairing, b in splits
        if alphas[s] * b > 0
    )
    ts = [t for t, *_ in located]
    for prev, t in zip(ts, ts[1:]):
        if t == prev:
            raise ConsistencyFailure("tied joints on the flow half-line", joint=t)

    def point_at(t: Fraction) -> list:
        """c d q (alpha + t iota_{e_I} omega) at t = p / q: the flow reads only its signs."""
        return [d * t.denominator * a - c * t.numerator * w for a, w in zip(alpha, form_rows)]

    def segment_value(lo: Fraction, hi) -> LaurentPoly:
        if hi is None:
            candidates = [lo + off for off in _TAIL_OFFSETS]
        else:
            candidates = [lo + (hi - lo) * f for f in _SEGMENT_FRACTIONS]
        for t in candidates:
            try:
                return decode(evaluation.value(full, point_at(t)), full)
            except ZeroSignArgument:
                continue
        raise ConsistencyFailure("no generic sample point on a segment", joint=lo)

    segment_values = [segment_value(lo, hi) for lo, hi in zip([Fraction(0)] + ts, ts + [None])]

    if segment_values[0] != value_at_alpha:
        raise ConsistencyFailure("wall value is not constant on the first segment", joint=Fraction(0))

    for i, (t, left, pairing, b) in enumerate(located, start=1):
        x = point_at(t)
        if _has_triple_split(x, r):
            raise ConsistencyFailure("triple split at a joint", joint=t)
        value_left, value_right = (decode(evaluation.value(m, x), m) for m in (left, full ^ left))
        predicted = kappa(pairing) * value_left * value_right
        if b > 0:
            predicted = -predicted
        measured = segment_values[i - 1] - segment_values[i]
        if measured != predicted:
            raise ConsistencyFailure("jump does not match the commutator", joint=t)

    if segment_values[-1] != LaurentPoly.zero():
        raise ConsistencyFailure(
            "wall value beyond the last joint is nonzero",
            joint=ts[-1] if ts else Fraction(0),
        )

    return ConsistencyReport(wall_value=value_at_alpha, joints=tuple(ts))
