"""Acceptance criteria.

Each test runs one criterion at its stated budget, exactly (no numeric
tolerances anywhere), and prints one pass/fail line; run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

import pytest

from quiverdt.algebra import LaurentPoly, RatFunc, kappa
from quiverdt.checks import (
    check_joints,
    check_multicover,
    check_oracle,
    check_perturbation,
    random_instance,
)
from quiverdt.cli import main
from quiverdt.dt import AttractorTable, assemble_dt
from quiverdt.errors import ConsistencyFailure
from quiverdt.flow import _first_generic, flow_tree_scalar, scalar_context
from quiverdt.lattice import Quiver, _rng
from quiverdt.scattering import GradedLie, check_joint_consistency, lie_add
from quiverdt.trees import enumerate_trees, is_leaf, tree_count

from flow_reference import leaf_mask, run_flow, supported_trees, tree_weight


def _report(number: int, name: str, started: float, budget: float):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {number} ({name}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")


def test_criterion_1_tree_counts():
    started = time.time()
    expected = [1, 1, 3, 15, 105, 945, 10395, 135135]
    for r, want in zip(range(1, 9), expected):
        assert tree_count(r) == want
        assert sum(1 for _ in enumerate_trees(range(1, r + 1))) == want
    _report(1, "tree combinatorics", started, 5)


def _flip(tree, rng):
    if is_leaf(tree):
        return tree
    left, right = _flip(tree[0], rng), _flip(tree[1], rng)
    return (right, left) if rng.random() < 0.5 else (left, right)


def test_criterion_2_flow_well_definedness():
    started = time.time()
    rng = random.Random(2024)
    checked = 0
    trial = 0
    while checked < 100:
        r = rng.randrange(2, 6)
        aux = random_instance(r, 10_000 + trial)
        trial += 1
        omega = _first_generic(aux, "omega", 0, 1000)[0]  # omega = W / d; the flow reads W
        supported = [t for t in supported_trees(aux.eta, r) if not is_leaf(t)]
        if not supported:
            continue
        tree = supported[rng.randrange(len(supported))]
        flipped = _flip(tree, rng)
        fa = {leaf_mask(k): v for k, v in run_flow(tree, aux.alpha, omega).items() if k}
        fb = {leaf_mask(k): v for k, v in run_flow(flipped, aux.alpha, omega).items() if k}
        assert fa == fb
        ctx = scalar_context(aux.eta)
        wa = tree_weight(tree, aux.eta, aux.alpha, omega, ctx)
        wb = tree_weight(flipped, aux.eta, aux.alpha, omega, ctx)
        assert (wa is None and wb is None) or wa == wb
        checked += 1
    _report(2, "flow well-definedness", started, 10)


def _instances_for_criteria_3_4():
    out = []
    for trial in range(25):
        r = 2 + trial % 3  # r in {2, 3, 4}
        out.append(random_instance(r, 30_000 + trial))
    return out


def test_criterion_3_perturbation_independence():
    started = time.time()
    for aux in _instances_for_criteria_3_4():
        rendered = {
            flow_tree_scalar(aux, mode="omega", seed=seed).render() for seed in range(5)
        }
        assert len(rendered) == 1
    _report(3, "perturbation independence", started, 30)


def test_criterion_4_two_perturbation_variants_agree():
    started = time.time()
    for aux in _instances_for_criteria_3_4():
        omega_value = flow_tree_scalar(aux, mode="omega", seed=0)
        beta_value = flow_tree_scalar(aux, mode="beta", seed=0)
        assert omega_value == beta_value
    _report(4, "variant I equals variant II", started, 30)


def test_criterion_5_oracle_agreement():
    started = time.time()
    for m in (1, 2, 3):
        result = check_oracle(m, 6)
        assert result.passed, result.locus
    _report(5, "rank-2 oracle agreement", started, 60)


def test_criterion_6_primitive_wall_crossing():
    started = time.time()
    a2 = Quiver.kronecker(1)
    table = AttractorTable(acyclic_default=True)
    plus = assemble_dt(a2, (1, 1), (1, -1), table)
    minus = assemble_dt(a2, (1, 1), (-1, 1), table)
    assert plus == RatFunc.one()
    assert minus == RatFunc.zero()
    jump = plus - minus
    assert jump == RatFunc(-kappa(1)) or jump == RatFunc(kappa(1))
    _report(6, "primitive wall-crossing", started, 1)


def test_criterion_7_joint_consistency():
    started = time.time()
    result = check_joints(3, 20)
    assert result.passed, result.locus
    result = check_joints(4, 10)
    assert result.passed, result.locus
    with pytest.raises(ConsistencyFailure):
        check_joint_consistency(random_instance(3, 77), seed=0, corrupt=True)
    _report(7, "joint consistency", started, 60)


def test_criterion_8_multicover_round_trip():
    started = time.time()
    result = check_multicover(50, max_gamma=(4, 4))
    assert result.passed, result.locus
    _report(8, "multicover round trip", started, 5)


def test_criterion_9_algebra_invariants():
    started = time.time()
    for x in range(-20, 21):
        assert kappa(-x) == -kappa(x)
        assert sum(kappa(x).terms().values()) == (-1) ** x * x  # the value at y = 1
    alg = GradedLie(form=((0, 1), (-1, 0)), degree_bound=4)
    rng = _rng(9, "acceptance-jacobi")
    classes = [(a, b) for a in range(5) for b in range(5 - a) if (a, b) != (0, 0)]

    def rand_elt():
        out = {}
        for _ in range(3):
            n = classes[int(rng.integers(0, len(classes)))]
            out[n] = out.get(n, 0) + int(rng.integers(-4, 5))
        return alg.element(out)

    for _ in range(50):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        total = lie_add(
            lie_add(
                alg.bracket(alg.bracket(a, b), c),
                alg.bracket(alg.bracket(b, c), a),
            ),
            alg.bracket(alg.bracket(c, a), b),
        )
        assert all(v.is_zero() for v in total.values())
    _report(9, "algebra invariants", started, 5)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    started = time.time()
    quiver = tmp_path / "k2.quiver"
    quiver.write_text("vertices 2\narrow 1 2 2\n")
    attractor = tmp_path / "attractor.txt"
    attractor.write_text("default acyclic\n")
    cache = tmp_path / "cache"
    commands = [
        ["trees", "4"],
        ["F", "--quiver", str(quiver), "--gammas", "1,0", "1,0", "0,1", "--theta", "1,-2"],
        ["--cache", str(cache), "dt", "--quiver", str(quiver), "--gamma", "2,1",
         "--theta", "1,-2", "--attractor", str(attractor)],
        ["oracle", "rank2", "--m", "2", "--degree", "4"],
        ["check", "multicover", "--trials", "5"],
        ["check", "perturbation", "--r", "3", "--trials", "2"],
        ["check", "joints", "--r", "3", "--trials", "3"],
        ["check", "oracle", "--m", "1", "--max-dim", "3"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, argv
            runs.append(captured.out)
        assert len(set(runs)) == 1, argv
    _report(10, "CLI byte determinism", started, 30)
