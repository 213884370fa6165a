"""Graded nilpotent Lie algebras and the rank-2 scattering oracle.

Lie elements are sparse dictionaries mapping lattice classes to rational-
function coefficients, with bracket [z^a, z^b] = kappa(<a, b>) z^{a+b},
truncated by total dimension.

``GradedLie`` also carries the group model: path-ordered products of wall
elements are folded in a faithful associative model of the unipotent
group (z^n -> (y - y^-1)^{delta(n)-1} x^n with x^a x^b = (-y)^{<a,b>}
x^{a+b}), whose product is the bracket's truncated convolution with
another factor.  The tests check it against the Dynkin BCH series.

The rank-2 oracle reconstructs a consistent diagram from its initial
(attractor-side) rays as the unique slope-ordered factorization of their
product (Kontsevich-Soibelman, arXiv:0811.2435): the classes of angle
above any given one span an ideal, so the factor on the smallest angle
is read off the product and peeled away, one ray at a time.  The final
loop check reads its crossings from ``Rank2Diagram.ray_entries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from .algebra import BiLaurent, LaurentPoly, RatFunc, _as_ratfunc, kappa
from .errors import ConsistencyFailure, DegreeExceeded, InvalidInput, NotOnWall
from .lattice import as_fractions, check_skew, dot, is_positive_dimvec


@lru_cache(maxsize=None)
def _kappa_rf(x: int) -> RatFunc:
    return RatFunc(kappa(x))


@lru_cache(maxsize=None)
def _twist_rf(k: int) -> RatFunc:
    """(-y)^k, the twist of the group product."""
    return RatFunc(LaurentPoly.monomial(k, -1 if k % 2 else 1))


@lru_cache(maxsize=None)
def _ym_rf(j: int) -> RatFunc:
    """(y - y^-1)^j for any integer j, the factor between z^n and x^n."""
    power = BiLaurent.const(1)
    for _ in range(abs(j)):
        power = power * BiLaurent({(1, 0): 1, (-1, 0): -1})
    return RatFunc(power) if j >= 0 else RatFunc(1, power)


def _accumulate(out: dict, n, value: RatFunc) -> None:
    """Add value to out[n], dropping the entry when the sum cancels."""
    prev = out.get(n)
    if prev is not None:
        value = prev + value
    if value.is_zero():
        out.pop(n, None)
    else:
        out[n] = value


def lie_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for n, c in b.items():
        _accumulate(out, n, c)
    return out


def lie_scale(a: dict, c) -> dict:
    if not c:
        return {}
    c = _as_ratfunc(c)
    return {n: c * v for n, v in a.items()}


@dataclass(frozen=True)
class GradedLie:
    """kappa-bracket Lie algebra graded by a positive cone of lattice points.

    ``form`` is the integer skew matrix of the pairing.  ``degree_bound``
    truncates by total dimension, keeping the algebra finitely graded; a
    bracket leaving the support is zero.  Group elements are stored as
    g - 1 in the twisted monoid algebra of the lattice, truncated the same way.
    """

    form: tuple
    degree_bound: int

    @property
    def rank(self) -> int:
        return len(self.form)

    def pairing(self, n1, n2) -> int:
        return sum(
            self.form[i][j] * a * b
            for i, a in enumerate(n1)
            if a
            for j, b in enumerate(n2)
            if self.form[i][j] and b
        )

    def in_support(self, n) -> bool:
        if len(n) != self.rank or any(c < 0 for c in n) or not any(n):
            return False
        return sum(n) <= self.degree_bound

    def element(self, coeffs: dict) -> dict:
        out = {}
        for n, c in coeffs.items():
            n = tuple(n)
            if not self.in_support(n):
                continue
            c = _as_ratfunc(c)
            if not c.is_zero():
                out[n] = c
        return out

    def _product(self, a: dict, b: dict, factor) -> dict:
        """Sum of factor(<n1, n2>) c1 c2 z^{n1+n2} over the supported terms."""
        out: dict = {}
        for n1, c1 in a.items():
            for n2, c2 in b.items():
                n = tuple(x + y for x, y in zip(n1, n2))
                if not self.in_support(n):
                    continue
                f = factor(self.pairing(n1, n2))
                if f:
                    _accumulate(out, n, f * c1 * c2)
        return out

    def bracket(self, a: dict, b: dict) -> dict:
        return self._product(a, b, _kappa_rf)

    def group_mul(self, g: dict, h: dict) -> dict:
        return lie_add(lie_add(g, h), self._product(g, h, _twist_rf))

    def _series(self, u: dict, coeff) -> dict:
        """Sum over k >= 1 of coeff(k) u^k; finite by the grading bound."""
        total: dict = {}
        power = u
        k = 1
        while power:
            total = lie_add(total, lie_scale(power, coeff(k)))
            power = self._product(power, u, _twist_rf)
            k += 1
        return total

    def exp(self, lie_elt: dict) -> dict:
        u = {n: c * _ym_rf(sum(n) - 1) for n, c in self.element(lie_elt).items()}
        return self._series(u, lambda k: Fraction(1, math.factorial(k)))

    def log(self, g: dict) -> dict:
        total = self._series(g, lambda k: Fraction((-1) ** (k + 1), k))
        return {n: c * _ym_rf(1 - sum(n)) for n, c in total.items()}

    def path_product(self, crossings) -> dict:
        """Ordered product of exp(sign * element); later crossings multiply on the left."""
        g: dict = {}
        for element, sign in crossings:
            g = self.group_mul(self.exp(lie_scale(element, sign)), g)
        return g


# ---------------------------------------------------------------------------
# rank-2 diagrams


def _attractor_direction(form, n):
    """The covector <n, -> as an integer vector in the stability plane."""
    return (
        n[0] * form[0][0] + n[1] * form[1][0],
        n[0] * form[0][1] + n[1] * form[1][1],
    )


def _angle(n) -> Fraction:
    """n1 / (n0 + n1): increasing in the angle of a positive class, equal along a ray."""
    return Fraction(n[1], sum(n))


def _rank2_class(n, what: str) -> tuple:
    """n as a rank-2 class; anything but a pair of ints is invalid input."""
    if len(n) != 2 or not all(isinstance(x, int) for x in n):
        raise InvalidInput(f"{what} {n} is not a pair of integers")
    return tuple(n)


@dataclass
class Rank2Diagram:
    """Consistent rank-2 diagram: initial (attractor-side) and scattered rays.

    The two rays of the line orthogonal to a class carry the initial datum
    (on the side of the attractor point) and the corrected element (on the
    opposite side).  Values are stored per full class n = k * primitive.
    """

    form: tuple
    degree_bound: int
    initial: dict
    scattered: dict

    def ray_entries(self):
        """(sigma, (class, coefficient)) counterclockwise from the positive x-axis.

        The ray of n points along sigma |w| (-n1, n0), w = form[0][1], with
        sigma = sgn w for initial rays and -sgn w for scattered ones.  First
        come the sigma = -1 classes (0, k), on the positive x-axis, then the
        sigma = +1 rays, then the other sigma = -1 rays; each group by
        ``_angle``, then by total dimension.  A zero form gives no rays.
        """
        if not self.form[0][1]:
            return []
        s = 1 if self.form[0][1] > 0 else -1

        def order(entry):
            sigma, (n, _) = entry
            group = 1 if sigma > 0 else 2 if n[0] else 0
            return group, _angle(n), sum(n)

        sides = ((self.initial, s), (self.scattered, -s))
        entries = [(sigma, entry) for values, sigma in sides for entry in values.items()]
        return sorted(entries, key=order)


def _loop_rays(diagram: Rank2Diagram):
    """(element, sign) per ray of ``ray_entries``, in crossing order for a counterclockwise loop.

    The ray of n points along d = sigma |w| (-n1, n0), so n0 d1 - n1 d0 =
    sigma |w| (n0^2 + n1^2): the loop crosses it with sign sigma.
    """
    rays = groupby(diagram.ray_entries(), key=lambda entry: (entry[0], _angle(entry[1][0])))
    return [(dict(entry for _, entry in entries), sigma) for (sigma, _), entries in rays]


def reconstruct_rank2(initial: dict, form, degree_bound: int) -> Rank2Diagram:
    """Unique consistent rank-2 diagram with the given initial data.

    Every class is positive, so with s = sgn form[0][1] and the rays'
    primitive classes p_1, ..., p_k in increasing angle from (1, 0), loop
    consistency reads exp(s S_1) ... exp(s S_k) = exp(s A_k) ... exp(s A_1)
    for the attractor elements A_i and the scattered elements S_i.  The
    right side is built once.  The classes of angle above any given one
    span an ideal, so the part of that product on the smallest angle
    present is exp(s S_1) = 1 + P; it is peeled off from the left by the
    series of (1 + P)^-1, and so on until nothing is left.  A zero form
    makes the bracket and the twist vanish, so the peel gives back the
    initial data.  A final full-loop check asserts consistency up to the
    degree bound.
    """
    check_skew(form, "form")
    form = tuple(tuple(row) for row in form)
    if len(form) != 2:
        raise InvalidInput("rank-2 reconstruction needs a 2x2 skew matrix")
    if degree_bound < 1:
        raise InvalidInput("degree bound must be >= 1")
    init: dict = {}
    for n, c in initial.items():
        n = _rank2_class(n, "initial class")
        if not is_positive_dimvec(n):
            raise InvalidInput(f"initial class {n} is not positive")
        if sum(n) > degree_bound:
            raise InvalidInput(f"initial class {n} exceeds the degree bound")
        c = _as_ratfunc(c)
        if not c.is_zero():
            init[n] = c

    s = 1 if form[0][1] > 0 else -1
    alg = GradedLie(form=form, degree_bound=degree_bound)
    target = alg.path_product(({n: init[n]}, s) for n in sorted(init, key=_angle))
    scattered: dict = {}
    while target:
        ray = min(map(_angle, target))
        part = {n: c for n, c in target.items() if _angle(n) == ray}
        scattered.update(lie_scale(alg.log(part), s))
        target = alg.group_mul(alg._series(part, lambda k: (-1) ** k), target)

    diagram = Rank2Diagram(form=form, degree_bound=degree_bound, initial=init, scattered=scattered)
    final = alg.log(alg.path_product(_loop_rays(diagram)))
    if final:
        raise ConsistencyFailure(f"reconstruction left a nonzero loop product: {final}")
    return diagram


def dt_from_rank2(diag: Rank2Diagram, gamma, theta) -> RatFunc:
    """Read the z^gamma coefficient on the ray selected by theta's side.

    theta must lie on the wall of gamma; the ray containing theta is the
    attractor side or the scattered side, and the value is the stored
    coefficient there (zero when no ray carries the class).  theta needs
    int or Fraction entries.
    """
    gamma = _rank2_class(gamma, "class")
    if not is_positive_dimvec(gamma):
        raise InvalidInput(f"not a positive class: {gamma}")
    if sum(gamma) > diag.degree_bound:
        raise DegreeExceeded(f"delta({gamma}) exceeds the degree bound {diag.degree_bound}")
    theta = as_fractions(theta, "theta")
    if len(theta) != 2:
        raise InvalidInput("theta must have length 2")
    if dot(theta, gamma) != 0:
        raise NotOnWall(f"theta({gamma}) = {dot(theta, gamma)} != 0")
    if not any(theta):
        raise InvalidInput("theta must be nonzero")
    d_att = _attractor_direction(diag.form, gamma)
    side = diag.initial if dot(theta, d_att) > 0 else diag.scattered
    return side.get(gamma, RatFunc.zero())

