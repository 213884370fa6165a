"""Verification drivers shared by the CLI `check` command and the tests.

Each driver runs one theorem-backed property at desk scale and returns a
CheckResult; the CLI turns that into pass/fail lines and an exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import BiLaurent
from .dt import (
    AttractorTable,
    FCache,
    assemble_dt,
    integer_from_rational,
    rational_from_integer,
)
from .errors import ConsistencyFailure, GenericityError
from .flow import flow_tree_scalar
from .lattice import AuxLattice, Quiver, _rng, alpha_is_generic, euler_skew, is_gamma_generic
from .scattering import _attractor_direction, check_joint_consistency, dt_from_rank2, reconstruct_rank2


@dataclass
class CheckResult:
    passed: bool
    lines: list = field(default_factory=list)
    locus: str = ""


def random_instance(r: int, seed: int) -> AuxLattice:
    """Random integer skew form, entries in [-4, 4], with a generic integer stability point.

    The lattice basis doubles as the classes (the quiver with a_ij =
    max(eta_ij, 0) pulls back to exactly this eta), so the instance is
    genuine random quiver data.
    """
    rng = _rng(seed, "instance", r)
    for _ in range(1000):
        eta = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                x = rng.integers(-4, 5)
                eta[i][j] = x
                eta[j][i] = -x
        eta = tuple(tuple(row) for row in eta)
        alpha = [Fraction(rng.integers(-9, 10)) for _ in range(r - 1)]
        alpha.append(-sum(alpha))
        alpha = tuple(alpha)
        if alpha_is_generic(eta, alpha):
            gammas = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
            return AuxLattice(gammas=gammas, eta=eta, alpha=alpha)
    raise GenericityError(f"no generic random instance for r={r}, seed={seed}")


def check_perturbation(r: int, trials: int, seed: int = 0) -> CheckResult:
    """flow_tree_scalar is the same for omega seeds 0..4 and in beta mode, per instance."""
    result = CheckResult(passed=True)
    for trial in range(trials):
        aux = random_instance(r, seed * 1000 + trial)
        values = [
            flow_tree_scalar(aux, mode="omega", seed=s).render()
            for s in range(5)
        ]
        beta_value = flow_tree_scalar(aux, mode="beta", seed=0).render()
        if any(v != values[0] for v in values[1:]) or beta_value != values[0]:
            result.passed = False
            result.locus = f"trial={trial} eta={aux.eta} alpha={aux.alpha}"
            return result
        result.lines.append(f"trial {trial}: F = {values[0]}")
    return result


def check_joints(r: int, trials: int, seed: int = 0) -> CheckResult:
    """check_joint_consistency passes on random instances."""
    result = CheckResult(passed=True)
    for trial in range(trials):
        aux = random_instance(r, seed * 1000 + trial)
        try:
            report = check_joint_consistency(aux, seed=trial)
        except ConsistencyFailure as exc:
            result.passed = False
            result.locus = f"trial={trial} joint={exc.joint} reason={exc}"
            return result
        result.lines.append(
            f"trial {trial}: {len(report.joints)} joints, wall value {report.wall_value.render()}"
        )
    return result


def random_integer_table(seed: int, max_gamma=(4, 4)) -> dict:
    """Random integer-level table on four draws of classes <= max_gamma."""
    rng = _rng(seed, "table")
    table = {}
    for _ in range(4):
        gamma = tuple(rng.integers(0, c + 1) for c in max_gamma)
        if not any(gamma):
            gamma = (1,) + tuple(0 for _ in max_gamma[1:])
        terms = {}
        for _ in range(rng.integers(1, 4)):
            ye = rng.integers(-3, 4)
            te = rng.integers(-2, 3)
            coeff = rng.integers(-5, 6)
            if coeff:
                terms[(ye, te)] = terms.get((ye, te), 0) + coeff
        poly = BiLaurent(terms)
        if not poly.is_zero():
            table[gamma] = poly
    return table


def check_multicover(trials: int, seed: int = 0, max_gamma=(4, 4)) -> CheckResult:
    """integer_from_rational inverts rational_from_integer exactly."""
    result = CheckResult(passed=True)
    for trial in range(trials):
        table = random_integer_table(seed * 1000 + trial, max_gamma)
        rational = rational_from_integer(table)
        recovered = integer_from_rational(rational)
        reference = {g: v for g, v in table.items() if not v.is_zero()}
        if recovered != reference:
            result.passed = False
            result.locus = f"trial={trial} table={ {g: v.render() for g, v in table.items()} }"
            return result
    result.lines.append(f"{trials} round trips exact")
    return result


def rank2_initial_data(table: AttractorTable, degree_bound: int) -> dict:
    """Nonzero rational attractor values of the rank-2 classes up to the degree bound."""
    initial = {}
    for a in range(degree_bound + 1):
        for b in range(degree_bound + 1 - a):
            if a or b:
                value = table.rational_value((a, b))
                if not value.is_zero():
                    initial[(a, b)] = value
    return initial


def check_oracle(m: int, max_dim: int, seed: int = 0) -> CheckResult:
    """assemble_dt equals the rank-2 scattering oracle on every small class."""
    result = CheckResult(passed=True)
    quiver = Quiver.kronecker(m)
    table = AttractorTable(acyclic_default=True)
    diagram = reconstruct_rank2(rank2_initial_data(table, max_dim), euler_skew(quiver).matrix, max_dim)
    cache = FCache()
    compared = 0
    for total in range(1, max_dim + 1):
        for a in range(total + 1):
            gamma = (a, total - a)
            if not any(gamma):
                continue
            for theta in _chamber_representatives(quiver, gamma):
                flows = assemble_dt(
                    quiver, gamma, theta, table, seed=seed, cache=cache
                )
                oracle = dt_from_rank2(diagram, gamma, theta)
                if not flows == oracle:
                    result.passed = False
                    result.locus = (
                        f"m={m} gamma={gamma} theta={theta} "
                        f"flow={flows.render()} oracle={oracle.render()}"
                    )
                    return result
                compared += 1
    result.lines.append(f"m={m}: {compared} classes/chambers agree")
    return result


def _chamber_representatives(q: Quiver, gamma):
    """One gamma-generic theta per chamber of the wall of gamma."""
    att = _attractor_direction(euler_skew(q).matrix, gamma)
    if att == (0, 0):
        # Degenerate pairing: a single chamber; pick any covector on the wall.
        theta = (Fraction(gamma[1]), Fraction(-gamma[0]))
        return [theta] if is_gamma_generic(theta, gamma) else []
    out = []
    for sign in (1, -1):
        theta = (Fraction(sign * att[0]), Fraction(sign * att[1]))
        if is_gamma_generic(theta, gamma):
            out.append(theta)
    return out
