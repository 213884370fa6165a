"""Lie algebra brackets, the group model against BCH, the rank-2 oracle and joint consistency."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quiverdt import flow, scattering
from quiverdt.algebra import BiLaurent, RatFunc, kappa
from quiverdt.checks import rank2_initial_data, random_instance, random_integer_table
from quiverdt.dt import AttractorTable, rational_from_integer
from quiverdt.errors import ConsistencyFailure, DegreeExceeded, InvalidInput
from quiverdt.flow import check_joint_consistency
from quiverdt.lattice import Quiver, _iter_box, _rng, build_aux, euler_skew, parse_quiver
from quiverdt.scattering import (
    GradedLie,
    _attractor_direction,
    _loop_rays,
    dt_from_rank2,
    lie_add,
    reconstruct_rank2,
)

from lie_reference import bch_log_product, path_ordered_product, square_free

RANK2 = GradedLie(form=((0, 1), (-1, 0)), degree_bound=4)
ACYCLIC = AttractorTable(acyclic_default=True)  # the default attractor data of any 2-vertex quiver
BENCH_QUIVER = parse_quiver("vertices 3\narrow 1 2 2\narrow 2 3 2\narrow 1 3 1\n")


def _lie_eq(a, b):
    keys = set(a) | set(b)
    return all(a.get(k, RatFunc.zero()) == b.get(k, RatFunc.zero()) for k in keys)


def _random_element(alg, rng, max_terms=3):
    out = {}
    classes = [
        (a, b)
        for a in range(alg.degree_bound + 1)
        for b in range(alg.degree_bound + 1 - a)
        if (a, b) != (0, 0)
    ]
    for _ in range(max_terms):
        n = classes[int(rng.integers(0, len(classes)))]
        c = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        out[n] = out.get(n, Fraction(0)) + c
    return alg.element(out)


def test_bch_commuting_case():
    alg = GradedLie(form=((0, 0), (0, 0)), degree_bound=4)
    a = {(1, 0): 2}
    b = {(0, 1): 5}
    assert _lie_eq(bch_log_product(alg, a, b), lie_add(alg.element(a), alg.element(b)))


def test_bch_degree_two_head():
    alg = GradedLie(form=((0, 1), (-1, 0)), degree_bound=2)
    log = bch_log_product(alg, {(1, 0): 1}, {(0, 1): 1})
    # a + b + [a,b]/2 with [z^e1, z^e2] = kappa(1) z^{e1+e2} = -z^{(1,1)}
    assert _lie_eq(
        log,
        {
            (1, 0): RatFunc.one(),
            (0, 1): RatFunc.one(),
            (1, 1): RatFunc(Fraction(-1, 2)),
        },
    )


def test_bch_h_mode_rank3_example():
    eta = ((0, 0, 2), (0, 0, 2), (-2, -2, 0))
    alg = square_free(eta)
    log = bch_log_product(alg, {(1, 0, 0): 1}, {(0, 0, 1): 1})
    half_kappa2 = RatFunc(kappa(2)) * Fraction(1, 2)
    assert _lie_eq(
        log,
        {(1, 0, 0): RatFunc.one(), (0, 0, 1): RatFunc.one(), (1, 0, 1): half_kappa2},
    )


def test_bch_against_associative_model():
    rng = _rng(31, "bch-vs-assoc")
    for trial in range(6):
        a = _random_element(RANK2, rng)
        b = _random_element(RANK2, rng)
        dynkin = bch_log_product(RANK2, a, b)
        assoc = RANK2.log(RANK2.path_product([(b, 1), (a, 1)]))
        assert _lie_eq(dynkin, assoc)


def test_h_mode_bch_against_associative_model():
    eta = ((0, 1, -2), (-1, 0, 3), (2, -3, 0))
    alg = square_free(eta)
    a = {(1, 0, 0): 1, (0, 1, 0): Fraction(1, 2)}
    b = {(0, 0, 1): 2, (0, 1, 0): -1}
    assert _lie_eq(bch_log_product(alg, a, b), alg.log(alg.path_product([(b, 1), (a, 1)])))


def test_path_ordered_products_agree_in_both_gradings():
    # three signed crossings, degree-bounded rank 2 and {0,1}-graded rank 4
    rng = _rng(33, "path-ordered")
    eta = ((0, 1, -2, 1), (-1, 0, 3, 0), (2, -3, 0, -1), (-1, 0, 1, 0))
    h_mode = square_free(eta)
    h_classes = [n for n in _iter_box((1, 1, 1, 1)) if h_mode.in_support(n)]
    assert len(h_classes) == 15
    for trial in range(3):
        crossings = [(_random_element(RANK2, rng), (-1) ** k) for k in range(3)]
        assert _lie_eq(path_ordered_product(RANK2, crossings), RANK2.log(RANK2.path_product(crossings)))
        crossings = []
        for k in range(3):
            n = h_classes[int(rng.integers(0, len(h_classes)))]
            m = h_classes[int(rng.integers(0, len(h_classes)))]
            crossings.append(({n: int(rng.integers(1, 4)), m: Fraction(1, 2)}, (-1) ** k))
        assert _lie_eq(path_ordered_product(h_mode, crossings), h_mode.log(h_mode.path_product(crossings)))


@pytest.mark.parametrize(
    "arrows",
    ["1 2 1", "1 2 2", "1 2 3", "2 1 1", "2 1 2", "2 1 3", "1 2 3\narrow 2 1 1"],
)
def test_ray_entries_run_counterclockwise_with_the_crossing_sign(arrows):
    # against the geometry: the ray of n on side s (+1 initial, -1 scattered) points along
    # d = s <n, ->, ordered by atan2(d) in [0, 2 pi), then by total dimension
    quiver = parse_quiver(f"vertices 2\narrow {arrows}\n")
    form = euler_skew(quiver).matrix
    diag = reconstruct_rank2(rank2_initial_data(ACYCLIC, 7), form, 7)

    def direction(side, n):
        return [side * x for x in _attractor_direction(form, n)]

    def key(ray):
        d = direction(*ray[:2])
        g = math.gcd(*d)  # atan2 of the primitive direction, so that a ray's classes tie exactly
        angle = math.atan2(d[1] // g, d[0] // g)
        return angle if angle >= 0 else angle + 2 * math.pi, sum(ray[1])

    rays = [(1, n, c) for n, c in diag.initial.items()] + [(-1, n, c) for n, c in diag.scattered.items()]
    rays.sort(key=key)
    entries = diag.ray_entries()
    assert [entry for _, entry in entries] == [(n, c) for _, n, c in rays]
    for (sigma, _), (side, n, _) in zip(entries, rays):
        d = direction(side, n)
        assert sigma == (1 if n[0] * d[1] - n[1] * d[0] > 0 else -1)


def test_jacobi_identity_random():
    rng = _rng(32, "jacobi")
    for trial in range(15):
        a, b, c = (_random_element(RANK2, rng) for _ in range(3))
        total = lie_add(
            lie_add(
                RANK2.bracket(RANK2.bracket(a, b), c),
                RANK2.bracket(RANK2.bracket(b, c), a),
            ),
            RANK2.bracket(RANK2.bracket(c, a), b),
        )
        assert _lie_eq(total, {})


def test_h_mode_degenerate_bracket_vanishes():
    eta = ((0, 0, 2), (0, 0, 2), (-2, -2, 0))
    alg = square_free(eta)
    assert alg.bracket({(1, 0, 0): 1}, {(0, 1, 0): 1}) == {}
    # and products leaving the {0,1} region vanish
    assert alg.bracket({(1, 0, 1): 1}, {(1, 0, 0): 1}) == {}


def test_untruncated_lattice_algebra_rejected():
    with pytest.raises(TypeError):
        GradedLie(form=((0, 1), (-1, 0)))


def test_path_ordered_single_and_inverse():
    phi = {(1, 0): 1, (0, 1): Fraction(2, 3)}
    assert _lie_eq(path_ordered_product(RANK2, [(phi, 1)]), RANK2.element(phi))
    assert path_ordered_product(RANK2, [(phi, 1), (phi, -1)]) == {}


@pytest.mark.parametrize(
    "initial, degree",
    [
        ({(1, 0): RatFunc.one(), (0, 1): RatFunc.one()}, 3),
        # non-unit classes, t-terms and multicover denominators
        (rational_from_integer(random_integer_table(5)), 8),
    ],
    ids=["unit", "random_table"],
)
def test_reconstruct_commutative_identity(initial, degree):
    diag = reconstruct_rank2(initial, ((0, 0), (0, 0)), degree)
    assert diag.scattered == diag.initial
    assert diag.ray_entries() == []


def test_reconstruct_a2_single_new_ray():
    diag = reconstruct_rank2({(1, 0): 1, (0, 1): 1}, ((0, 1), (-1, 0)), 2)
    new_rays = {
        n: c for n, c in diag.scattered.items() if not c == diag.initial.get(n, RatFunc.zero())
    }
    assert set(new_rays) == {(1, 1)}
    assert new_rays[(1, 1)] == RatFunc.one()


def test_reconstruct_pentagon_loop_vanishes_via_bch():
    # verify the reconstructed A2 diagram with the Dynkin-BCH path product
    diag = reconstruct_rank2({(1, 0): 1, (0, 1): 1}, ((0, 1), (-1, 0)), 3)
    alg = GradedLie(form=diag.form, degree_bound=3)
    crossings = _loop_rays(diag)
    assert path_ordered_product(alg, crossings) == {}


def test_reconstruct_k2_self_check_and_rays():
    diag = reconstruct_rank2(rank2_initial_data(ACYCLIC, 6), euler_skew(Quiver.kronecker(2)).matrix, 6)
    for n in [(1, 1), (2, 1), (1, 2)]:
        assert n in diag.scattered and not diag.scattered[n].is_zero()
    # the consistency of the final diagram is asserted inside reconstruct_rank2;
    # verify the lowest degrees once more through the Dynkin route
    low = GradedLie(form=diag.form, degree_bound=3)
    crossings = _loop_rays(diag)
    assert path_ordered_product(low, crossings) == {}


def test_reconstruct_final_loop_check_rejects_a_corrupted_diagram(monkeypatch):
    # drop the scattered (1, 1) ray of Kronecker-2 on its way into the final check
    loop_rays = scattering._loop_rays

    def drop_ray(diagram):
        assert not diagram.scattered[(1, 1)].is_zero()
        scattered = {n: c for n, c in diagram.scattered.items() if n != (1, 1)}
        return loop_rays(dataclasses.replace(diagram, scattered=scattered))

    monkeypatch.setattr(scattering, "_loop_rays", drop_ray)
    with pytest.raises(ConsistencyFailure):
        reconstruct_rank2(rank2_initial_data(ACYCLIC, 4), euler_skew(Quiver.kronecker(2)).matrix, 4)


def _swap(elements):
    return {(b, a): c for (a, b), c in elements.items()}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reconstruct_negative_form_is_the_relabelled_positive_one(m):
    # swapping the two vertices turns the form ((0, -m), (m, 0)) into ((0, m), (-m, 0))
    acyclic = rank2_initial_data(ACYCLIC, 5)
    t_term = RatFunc(BiLaurent({(0, 1): 1, (1, 0): -2}))
    asymmetric = {(1, 0): 1, (0, 1): Fraction(1, 2), (1, 2): t_term}
    for initial in (acyclic, asymmetric):
        negative = reconstruct_rank2(initial, ((0, -m), (m, 0)), 5)
        positive = reconstruct_rank2(_swap(initial), ((0, m), (-m, 0)), 5)
        assert _swap(negative.scattered) == positive.scattered
        assert len(positive.scattered) > len(positive.initial)


def test_reconstruct_rejects_malformed_forms():
    not_skew = ((0, 1), (1, 0))
    three_by_three = ((0, 1, 0), (-1, 0, 2), (0, -2, 0))
    for form in (not_skew, three_by_three):
        with pytest.raises(InvalidInput):
            reconstruct_rank2({(1, 0): 1, (0, 1): 1}, form, 2)


def test_dt_from_rank2_read_offs():
    diag = reconstruct_rank2({(1, 0): 1, (0, 1): 1}, ((0, 1), (-1, 0)), 2)
    # initial ray class: its initial coefficient (attractor side of (1,0))
    assert dt_from_rank2(diag, (1, 0), (0, 1)) == RatFunc.one()
    # the A2 chamber with the extra ray
    assert dt_from_rank2(diag, (1, 1), (1, -1)) == RatFunc.one()
    # class with no ray
    assert dt_from_rank2(diag, (1, 1), (-1, 1)) == RatFunc.zero()
    with pytest.raises(DegreeExceeded):
        dt_from_rank2(diag, (2, 1), (1, -2))


@pytest.mark.parametrize("bad", [(1, 0, 5), (1,), (Fraction(1, 2), 1), (1.0, 2)])
def test_reconstruct_rejects_a_class_that_is_not_an_integer_pair(bad):
    with pytest.raises(InvalidInput, match="not a pair of integers"):
        reconstruct_rank2({bad: 1, (0, 1): 1}, ((0, 1), (-1, 0)), 3)


@pytest.mark.parametrize("bad", [(1, 1, 7), (1,), (Fraction(3, 2), 1), (1.0, 1)])
def test_dt_from_rank2_rejects_a_class_that_is_not_an_integer_pair(bad):
    diag = reconstruct_rank2({(1, 0): 1, (0, 1): 1}, ((0, 1), (-1, 0)), 2)
    with pytest.raises(InvalidInput, match="not a pair of integers"):
        dt_from_rank2(diag, bad, (1, -1))


@pytest.mark.parametrize("theta", [("1", "-1"), ("1e3", "-1_000"), (0.5, -0.5)])
def test_dt_from_rank2_takes_only_int_or_fraction_theta(theta):
    # Fraction(str) would read '1e3' and '1_000' as 1000: text goes through the grammar
    diag = reconstruct_rank2({(1, 0): 1, (0, 1): 1}, ((0, 1), (-1, 0)), 2)
    with pytest.raises(InvalidInput, match="theta needs int or Fraction entries"):
        dt_from_rank2(diag, (1, 1), theta)


def test_joint_consistency_rank2():
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (0, 1)], (1, -1))
    report = check_joint_consistency(aux, seed=0)
    assert len(report.joints) == 1
    assert report.wall_value == -kappa(2)


def test_joint_consistency_rank3_kronecker2():
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))
    for seed in range(5):
        check_joint_consistency(aux, seed=seed)


def test_flow_tree_map_matches_joint_wall_value():
    # the graded-bracket evaluation at the start point is exactly the wall
    # value that the joint check telescopes
    from quiverdt.flow import _first_generic, flow_tree_sum, scalar_context

    aux = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))
    report = check_joint_consistency(aux, seed=3)
    form = _first_generic(aux, "omega", 3, 1000)[0]  # omega = form / d
    ctx = scalar_context(aux.eta)
    assert flow_tree_sum(range(1, 4), aux.eta, ctx, aux.alpha, form) == report.wall_value


def test_joint_consistency_negative_control(monkeypatch):
    from quiverdt.algebra import LaurentPoly
    from quiverdt.flow import _first_generic

    def off_by_one(*args):
        form, d, value, evaluation = _first_generic(*args)
        return form, d, value + LaurentPoly.const(1), evaluation

    # the wall value the check starts from is wrong by 1
    monkeypatch.setattr(flow, "_first_generic", off_by_one)
    with pytest.raises(ConsistencyFailure, match="first segment"):
        check_joint_consistency(random_instance(3, 7), seed=0)


def test_joint_consistency_builds_each_split_table_once(monkeypatch):
    # the gate extends the split tables of the accepted draw's evaluation instead of
    # starting its own; a two-index mask, and a mask only under a skipped side, builds
    # none; the evaluator's smaller-side-first order fixes which masks are skipped
    built = []
    split_table = flow.Evaluation.split_table

    def counting(self, mask):
        if mask not in self.tables:
            built.append(mask)
        return split_table(self, mask)

    monkeypatch.setattr(flow.Evaluation, "split_table", counting)
    check_joint_consistency(random_instance(7, 0), seed=0)
    assert len(built) == len(set(built)) == 35


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "quiver, gammas, theta, joints",
    [
        (Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2), 3),
        (BENCH_QUIVER, [(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)], (3, 1, -5), 4),
        (BENCH_QUIVER, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)], (7, 2, -8), 10),
    ],
)
def test_joint_consistency_under_a_fractional_stability_point(quiver, gammas, theta, joints, k):
    # alpha = A / c with c = k: the gate's point_at and joints carry c
    whole = check_joint_consistency(build_aux(quiver, gammas, theta), seed=0)
    assert len(whole.joints) == joints
    scaled = check_joint_consistency(build_aux(quiver, gammas, [Fraction(x, k) for x in theta]), seed=0)
    assert scaled.wall_value == whole.wall_value
    assert scaled.joints == tuple(t / k for t in whole.joints)


def test_scattering_imports_neither_flow_nor_dt():
    # the rank-2 oracle stays independent of the flow tree machinery it checks
    code = (
        "import sys, quiverdt.scattering\n"
        "print(sorted(m for m in sys.modules if m in ('quiverdt.flow', 'quiverdt.dt')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(scattering.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_joint_consistency_requires_rank_two():
    aux = random_instance(3, 7)
    single = build_aux(Quiver.kronecker(1), [(1, 1)], (1, -1))
    assert single.r == 1
    with pytest.raises(InvalidInput):
        check_joint_consistency(single, seed=0)
    check_joint_consistency(aux, seed=0)
