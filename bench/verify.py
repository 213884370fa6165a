"""Correctness checks on the workloads' outputs, run after the timed part.

Every check returns a list of failure descriptions; an empty list means
the outputs pass.  ``None`` stands for a job that raised and is counted
as failed, not checked.

* kronecker_oracle: each assembled value equals ``dt_from_rank2`` of the
  rank-2 reconstruction made in the same round.
* random_flow: each value equals the beta-perturbed value of the same
  instance, has integer coefficients and is invariant under y -> 1/y.
* quiver3_*: the integer-level Omega has integer coefficients, Omega-bar
  is invariant under y -> 1/y, classes supported on exactly two vertices
  equal the rank-2 oracle of that 2-vertex subquiver, and warm values
  equal the cold values the cache was filled with.
"""

from __future__ import annotations

from fractions import Fraction

import workloads
from workloads import qalg, qflow, qsc


def is_integral(poly) -> bool:
    return all(Fraction(c).denominator == 1 for c in poly.terms().values())


def flip_laurent(poly):
    return qalg.LaurentPoly({-e: c for e, c in poly.terms().items()})


def flip_bilaurent(poly):
    return qalg.BiLaurent({(-ye, te): c for (ye, te), c in poly.terms().items()})


def flip_ratfunc(value):
    return qalg.RatFunc(flip_bilaurent(value.num), flip_bilaurent(value.den))


# ---------------------------------------------------------------------------
# kronecker_oracle


def parse_kronecker(outputs):
    """Assemble jobs as (value, oracle) pairs; reconstruction jobs as None."""
    parsed = []
    for out in outputs:
        if isinstance(out, dict):
            oracle = None if out["oracle"] is None else workloads.ratfunc_from_text(out["oracle"])
            parsed.append((workloads.ratfunc_from_text(out["value"]), oracle))
        else:
            parsed.append(None)
    return parsed


def check_kronecker(jobs, pairs) -> list:
    failures = []
    for job, pair in zip(jobs, pairs):
        if pair is None:
            continue
        value, oracle = pair
        if oracle is None:
            failures.append(f"{job}: no rank-2 diagram to compare with")
        elif not value == oracle:
            failures.append(f"{job}: flow {value.render()} != oracle {oracle.render()}")
    return failures


# ---------------------------------------------------------------------------
# random_flow


def parse_random_flow(outputs):
    return [None if out is None else qalg.parse_laurent(out) for out in outputs]


def random_flow_references(seed: int):
    """The beta-perturbed value of each instance, with the same perturbation seed."""
    pseed = workloads.perturbation_seed(seed)
    return [
        qflow.flow_tree_scalar(aux, mode="beta", seed=pseed)
        for aux in workloads.random_flow_instances(seed)
    ]


def check_random_flow(values, references) -> list:
    failures = []
    for index, (value, reference) in enumerate(zip(values, references)):
        if value is None:
            continue
        if not value == reference:
            failures.append(f"instance {index}: omega {value.render()} != beta {reference.render()}")
        if not is_integral(value):
            failures.append(f"instance {index}: non-integer coefficient in {value.render()}")
        if not flip_laurent(value) == value:
            failures.append(f"instance {index}: not invariant under y -> 1/y: {value.render()}")
    return failures


# ---------------------------------------------------------------------------
# quiver3


def parse_quiver3(outputs):
    return [
        None if out is None else (
            workloads.ratfunc_from_text(out["rational"]),
            qalg.parse_bilaurent(out["integral"]),
        )
        for out in outputs
    ]


def quiver3_oracles(degree: int = max(workloads.QUIVER3_DIMS)):
    """Rank-2 diagram of each 2-vertex subquiver, keyed by its vertex pair (i, j), i < j."""
    diagrams, by_arrows = {}, {}
    for i, j, m in workloads.QUIVER3_ARROWS:
        if m not in by_arrows:
            _, _, initial, form = workloads.rank2_initial(m, degree)
            by_arrows[m] = qsc.reconstruct_rank2(initial, form, degree)
        diagrams[(i, j)] = by_arrows[m]
    return diagrams


def two_vertex_oracle(diagrams, gamma, theta):
    """The oracle value of a class supported on exactly two vertices, else None."""
    support = tuple(i for i, c in enumerate(gamma) if c)
    if len(support) != 2:
        return None
    i, j = support
    return qsc.dt_from_rank2(diagrams[(i, j)], (gamma[i], gamma[j]), (theta[i], theta[j]))


def check_quiver3(jobs, values, diagrams, cold_values=None) -> list:
    failures = []
    for index, (job, value) in enumerate(zip(jobs, values)):
        if value is None:
            continue
        gamma, theta = job
        rational, integral = value
        where = f"gamma={gamma} theta={tuple(str(x) for x in theta)}"
        if not is_integral(integral):
            failures.append(f"{where}: non-integer Omega {integral.render()}")
        if not flip_ratfunc(rational) == rational:
            failures.append(f"{where}: Omega_bar not invariant under y -> 1/y: {rational.render()}")
        oracle = two_vertex_oracle(diagrams, gamma, theta)
        if oracle is not None and not rational == oracle:
            failures.append(f"{where}: Omega_bar {rational.render()} != rank-2 oracle {oracle.render()}")
        if cold_values is not None:
            cold = cold_values[index]
            if cold is None:
                failures.append(f"{where}: no cold value to compare with")
            elif not (rational == cold[0] and integral == cold[1]):
                failures.append(f"{where}: warm value differs from the cold value")
    return failures
