"""Term-by-term reference for ``quiverdt.dt.assemble_dt``.

``quiverdt.dt`` pulls theta back once per call as integer numerators over
one denominator and adds the numerators of all decompositions that share a
weight denominator before it normalizes.  This module keeps the plain
definition it is checked against: every decomposition pulled back on its
own with Fraction dot products, and every term normalized as a RatFunc and
added to the total one at a time.
"""

from fractions import Fraction

from quiverdt.algebra import RatFunc
from quiverdt.dt import enumerate_decompositions, universal_coefficient
from quiverdt.errors import InvalidInput, NotGenericTheta, NotOnWall
from quiverdt.lattice import (
    AuxLattice,
    _iter_box,
    dot,
    euler_skew,
    is_gamma_generic,
    is_positive_dimvec,
)


def build_aux(q, gammas, theta) -> AuxLattice:
    """Pull back the Euler form and the stability point along e_i -> gamma_i."""
    gammas = tuple(tuple(g) for g in gammas)
    for g in gammas:
        if len(g) != q.vertex_count or not is_positive_dimvec(g):
            raise InvalidInput(f"not a positive dimension vector: {g}")
    theta = tuple(Fraction(x) for x in theta)
    if len(theta) != q.vertex_count:
        raise InvalidInput("stability parameter has wrong length")
    total = tuple(sum(g[i] for g in gammas) for i in range(q.vertex_count))
    if dot(theta, total) != 0:
        raise NotOnWall(f"theta({total}) = {dot(theta, total)} != 0")
    form = euler_skew(q)
    r = len(gammas)
    eta = tuple(tuple(form.pair(gammas[i], gammas[j]) for j in range(r)) for i in range(r))
    alpha = tuple(dot(theta, g) for g in gammas)
    return AuxLattice(gammas=gammas, eta=eta, alpha=alpha)


def assemble_dt(q, gamma, theta, table, mode="omega", seed=0, budget=1000, cache=None) -> RatFunc:
    """Rational DT invariant of gamma at theta from the attractor table."""
    gamma = tuple(gamma)
    theta = tuple(Fraction(x) for x in theta)
    if not is_positive_dimvec(gamma):
        raise InvalidInput(f"not a positive dimension vector: {gamma}")
    if len(theta) != q.vertex_count or len(gamma) != q.vertex_count:
        raise InvalidInput("gamma/theta length does not match the quiver")
    if dot(theta, gamma) != 0:
        raise NotOnWall(f"theta(gamma) = {dot(theta, gamma)} != 0")
    if not is_gamma_generic(theta, gamma):
        raise NotGenericTheta(f"theta = {theta} is not generic for gamma = {gamma}")

    allowed_parts = [p for p in _iter_box(gamma) if not table.rational_value(p).is_zero()]
    total = RatFunc.zero()
    for decomp in enumerate_decompositions(gamma, parts=allowed_parts):
        aux = build_aux(q, decomp.parts, theta)
        coeff = universal_coefficient(aux, mode=mode, seed=seed, budget=budget, cache=cache)
        if coeff.is_zero():
            continue
        term = RatFunc(coeff) * Fraction(1, decomp.aut_order)
        for part in decomp.parts:
            term = term * table.rational_value(part)
        total = total + term
    return total
