"""Quivers, the auxiliary lattice, genericity predicates and samplers."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quiverdt.flow as quiverdt_flow
import quiverdt.lattice as quiverdt_lattice

from quiverdt.errors import (
    GenericityError,
    InvalidInput,
    NotGenericAlpha,
    NotOnWall,
    SamplingTimeout,
    ZeroSignArgument,
)
from quiverdt.flow import _first_generic
from quiverdt.lattice import (
    MAX_VERTICES,
    AuxLattice,
    Quiver,
    SkewForm,
    _beta_numerators,
    _disjoint_pairings,
    _omega_numerators,
    _rng,
    _shrink_exponent,
    alpha_is_generic,
    build_aux,
    euler_skew,
    is_gamma_generic,
    parse_covector,
    parse_dimvec,
    parse_quiver,
    subset_sums,
)
from quiverdt.trees import enumerate_trees, is_leaf

import lattice_reference
from flow_reference import epsilon_signs, leaf_mask, run_flow, supported_trees
from lattice_reference import mask_sum, nonempty_masks, pair_masks


def test_euler_skew_kronecker():
    form = euler_skew(Quiver.kronecker(3))
    assert form.pair((1, 0), (0, 1)) == 3
    assert form.pair((0, 1), (1, 0)) == -3


def test_euler_skew_loop_vanishes():
    form = euler_skew(Quiver(((1,),)))
    assert form.matrix == ((0,),)
    assert form.pair((5,), (7,)) == 0


def test_euler_skew_three_cycle():
    q = Quiver.from_arrows(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    form = euler_skew(q)
    assert form.pair((1, 0, 0), (0, 1, 0)) == 1
    assert form.pair((1, 0, 0), (0, 0, 1)) == -1


def test_euler_skew_antisymmetry_random():
    rng = _rng(5, "skew")
    for _ in range(20):
        n = int(rng.integers(2, 5))
        counts = tuple(
            tuple(int(rng.integers(0, 4)) for _ in range(n)) for _ in range(n)
        )
        form = euler_skew(Quiver(counts))
        g1 = tuple(int(rng.integers(-3, 4)) for _ in range(n))
        g2 = tuple(int(rng.integers(-3, 4)) for _ in range(n))
        assert form.pair(g1, g2) == -form.pair(g2, g1)


def test_build_aux_kronecker2_example():
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))
    assert aux.eta == ((0, 0, 2), (0, 0, 2), (-2, -2, 0))
    assert aux.alpha == (1, 1, -2)


def test_build_aux_zero_theta():
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (0, 1)], (0, 0))
    assert aux.alpha == (0, 0)


def test_build_aux_kronecker1():
    aux = build_aux(Quiver.kronecker(1), [(1, 0), (0, 1)], (1, -1))
    assert aux.eta == ((0, 1), (-1, 0))
    assert aux.alpha == (1, -1)


def test_build_aux_not_on_wall():
    with pytest.raises(NotOnWall):
        build_aux(Quiver.kronecker(1), [(1, 0), (0, 1)], (1, 1))


def test_gamma_genericity_examples():
    assert is_gamma_generic((1, -2), (2, 1))
    assert not is_gamma_generic((1, -1, 0), (1, 1, 1))
    assert not is_gamma_generic((0, 0), (1, 1))


def test_pullback_compatibility_random():
    rng = _rng(6, "pullback")
    for _ in range(10):
        n = int(rng.integers(2, 4))
        counts = tuple(
            tuple(int(rng.integers(0, 3)) for _ in range(n)) for _ in range(n)
        )
        q = Quiver(counts)
        form = euler_skew(q)
        r = int(rng.integers(2, 4))
        gammas = []
        for _ in range(r):
            g = [int(rng.integers(0, 3)) for _ in range(n)]
            if not any(g):
                g[0] = 1
            gammas.append(tuple(g))
        total = tuple(sum(g[i] for g in gammas) for i in range(n))
        theta = [Fraction(int(rng.integers(-5, 6))) for _ in range(n - 1)]
        denom = total[-1]
        if denom == 0:
            continue
        last = -sum(t * c for t, c in zip(theta, total[:-1])) / denom
        theta.append(last)
        aux = build_aux(q, gammas, theta)
        for i in range(r):
            for j in range(r):
                assert aux.eta[i][j] == form.pair(gammas[i], gammas[j])
        for mask in nonempty_masks(r):
            summed = tuple(
                sum(gammas[i][k] for i in range(r) if mask >> i & 1) for k in range(n)
            )
            assert mask_sum(aux.alpha, mask) == sum(
                t * c for t, c in zip(theta, summed)
            )


def test_gamma_generic_implies_alpha_generic():
    # Restatement of the pullback-genericity lemma on random instances.
    rng = _rng(7, "lem-generic")
    found = 0
    while found < 10:
        n = int(rng.integers(2, 4))
        counts = tuple(
            tuple(int(rng.integers(0, 3)) for _ in range(n)) for _ in range(n)
        )
        q = Quiver(counts)
        r = int(rng.integers(2, 4))
        gammas = []
        for _ in range(r):
            g = [int(rng.integers(0, 2)) for _ in range(n)]
            if not any(g):
                g[0] = 1
            gammas.append(tuple(g))
        total = tuple(sum(g[i] for g in gammas) for i in range(n))
        theta = [Fraction(int(rng.integers(-7, 8))) for _ in range(n - 1)]
        if total[-1] == 0:
            continue
        theta.append(-sum(t * c for t, c in zip(theta, total[:-1])) / total[-1])
        if not is_gamma_generic(tuple(theta), total):
            continue
        aux = build_aux(q, gammas, theta)
        assert alpha_is_generic(aux.eta, aux.alpha)
        found += 1


def _flow_conditions_hold(tree_list, start, form) -> bool:
    """The flow runs down every listed tree with no vanishing sign argument."""
    for tree in tree_list:
        try:
            epsilon_signs(tree, run_flow(tree, start, form), form)
        except GenericityError:
            return False
    return True


def _postcondition_omega(aux, omega):
    r = aux.r
    # sign agreement with eta on every pair of {0,1}-vectors
    for ma in nonempty_masks(r):
        for mb in nonempty_masks(r):
            e = pair_masks(aux.eta, ma, mb)
            if e != 0:
                w = pair_masks(omega, ma, mb)
                assert w != 0 and (w > 0) == (e > 0)
    # nonvanishing on disjoint pairs (the U_J conditions)
    for ma in nonempty_masks(r):
        for mb in nonempty_masks(r):
            if ma < mb and not ma & mb:
                assert pair_masks(omega, ma, mb) != 0
    # flow sign-definiteness over the eta-relevant trees
    tree_list = [
        t for t in enumerate_trees(range(1, r + 1))
        if is_leaf(t) or pair_masks(aux.eta, leaf_mask(t[0]), leaf_mask(t[1])) != 0
    ]
    assert _flow_conditions_hold(tree_list, aux.alpha, omega)


# The sampler's draw is W / d; the postconditions read only signs, so they
# run on the integer W (a positive multiple of the draw).


def test_sample_omega_rank2():
    aux = AuxLattice(gammas=((1, 0), (0, 1)), eta=((0, 1), (-1, 0)), alpha=(Fraction(1), Fraction(-1)))
    omega = _first_generic(aux, "omega", 0, 1000)[0]
    assert omega[0][1] > 0
    _postcondition_omega(aux, omega)


def test_sample_omega_rank3_degenerate_pair():
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))
    omega = _first_generic(aux, "omega", 0, 1000)[0]
    assert omega[0][1] != 0  # eta(e1, e2) = 0 but U_J needs a nonzero pairing
    _postcondition_omega(aux, omega)


def test_sample_omega_deterministic():
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))
    (w3, d3, _), (w3_again, d3_again, _), (w4, d4, _) = (
        _first_generic(aux, "omega", seed, 1000) for seed in (3, 3, 4)
    )
    assert (w3, d3) == (w3_again, d3_again)
    # W3 / d3 != W4 / d4, compared over the common denominator
    assert [[x * d4 for x in row] for row in w3] != [[x * d3 for x in row] for row in w4]


def test_sample_omega_rejects_degenerate_alpha():
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))
    bad = AuxLattice(gammas=aux.gammas, eta=aux.eta, alpha=(Fraction(0),) * 3)
    with pytest.raises(NotGenericAlpha):
        _first_generic(bad, "omega", 0, 1000)
    with pytest.raises(NotGenericAlpha):
        _first_generic(bad, "beta", 0, 1000)


def test_sample_beta_rank2_returns_alpha():
    aux = AuxLattice(gammas=((1, 0), (0, 1)), eta=((0, 1), (-1, 0)), alpha=(Fraction(1), Fraction(-1)))
    beta, d, _ = _first_generic(aux, "beta", 0, 1000)
    assert (beta, d) == ([1, -1], 1)


def test_sample_beta_rank3_postconditions():
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))
    beta, d, _ = _first_generic(aux, "beta", 0, 1000)
    assert sum(beta) == 0
    # keeps alpha's signs on every subset where alpha is nonzero
    for mask in nonempty_masks(aux.r):
        a = mask_sum(aux.alpha, mask)
        if a != 0:
            b = mask_sum(beta, mask)
            assert b != 0 and (b > 0) == (a > 0)
    # eta-flow is sign-definite from beta on the kappa-supported trees
    eta_frac = tuple(tuple(Fraction(x) for x in row) for row in aux.eta)
    assert _flow_conditions_hold(supported_trees(aux.eta, aux.r), beta, eta_frac)
    # beta is not alpha here: the exact flow from alpha collapses to zero
    assert beta != [d * a for a in aux.alpha]


def test_parse_quiver_and_vectors():
    q = parse_quiver("# sample\nvertices 2\narrow 1 2 2\n\narrow 1 2 1\n")
    assert q.arrow_counts == ((0, 3), (0, 0))
    assert parse_dimvec("2,1") == (2, 1)
    assert parse_covector("1,-1/2") == (1, Fraction(-1, 2))
    assert parse_covector("3/2, -3/2") == (Fraction(3, 2), Fraction(-3, 2))
    for bad in ("1.5,-1.5", "1e3,-1e3", "1_0,-1_0", "1/0,0", "1,,2"):
        with pytest.raises(InvalidInput, match="bad covector"):
            parse_covector(bad)
    with pytest.raises(InvalidInput):
        parse_quiver("arrow 1 2 1\n")
    with pytest.raises(InvalidInput):
        parse_quiver("vertices 2\narrow 0 1 1\n")
    with pytest.raises(InvalidInput):
        parse_dimvec("2,x")


def test_parse_quiver_vertex_limit():
    assert parse_quiver(f"vertices {MAX_VERTICES}\n").vertex_count == MAX_VERTICES
    for count in (0, MAX_VERTICES + 1, 10 ** 12):
        with pytest.raises(InvalidInput, match="vertex count"):
            parse_quiver(f"vertices {count}\n")


def test_skewform_validation():
    with pytest.raises(InvalidInput):
        SkewForm(((0, 1), (1, 0)))


@pytest.mark.parametrize("alpha", [("1", "-1"), (0.5, -0.5), (1, None)])
def test_aux_lattice_rejects_an_alpha_entry_that_is_not_int_or_fraction(alpha):
    with pytest.raises(InvalidInput, match="alpha needs int or Fraction entries"):
        AuxLattice(gammas=((1, 0), (0, 1)), eta=((0, 1), (-1, 0)), alpha=alpha)


def test_aux_lattice_rejects_an_empty_decomposition():
    with pytest.raises(InvalidInput, match="at least one class"):
        AuxLattice(gammas=(), eta=(), alpha=())


def test_lattice_imports_neither_flow_nor_trees():
    code = (
        "import sys, quiverdt.lattice\n"
        "print(sorted(m for m in sys.modules if m in ('quiverdt.flow', 'quiverdt.trees')))\n"
    )
    src = Path(quiverdt_lattice.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_every_export_resolves_lazily_and_star_import_works():
    # A fresh process, so that every name goes through the package's __getattr__.
    code = (
        "import quiverdt\n"
        "assert not set(quiverdt.__all__) & set(vars(quiverdt))\n"
        "from quiverdt import *\n"
        "print(sorted(n for n in quiverdt.__all__ if globals()[n].__module__ != 'quiverdt.' + quiverdt._MODULE_OF[n]))\n"
    )
    src = Path(quiverdt_lattice.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out == "[]\n"


# ---------------------------------------------------------------------------
# the subset-sum tables against the pair-by-pair reference (tests/lattice_reference.py)


def _unit_aux(eta, alpha):
    r = len(alpha)
    gammas = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    return AuxLattice(gammas=gammas, eta=eta, alpha=tuple(alpha))


def _random_aux(rng, r: int, max_entry: int, zero_block: bool):
    """Random skew eta, optionally zero between {1..s} and {s+1..r}, with a generic alpha."""
    split = int(rng.integers(1, r)) if r > 1 else 1
    eta = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if zero_block and (i < split) != (j < split):
                continue
            x = int(rng.integers(-max_entry, max_entry + 1))
            eta[i][j], eta[j][i] = x, -x
    eta = tuple(tuple(row) for row in eta)
    while True:
        alpha = [Fraction(int(rng.integers(-9, 10))) for _ in range(r - 1)]
        alpha.append(-sum(alpha))
        if lattice_reference.alpha_is_generic(eta, alpha):
            return _unit_aux(eta, alpha)


def _first(draws, n: int = 16):
    return list(itertools.islice(draws, n))


def omega_draws(aux, seed: int, budget: int = 1000):
    """The draws W / d of ``_omega_numerators`` as matrices of Fractions."""
    for form, d in _omega_numerators(aux, seed, budget):
        yield tuple(tuple(Fraction(x, d) for x in row) for row in form)


def beta_draws(aux, seed: int, budget: int = 1000):
    """The draws B / d of ``_beta_numerators`` as tuples of Fractions."""
    for start, d in _beta_numerators(aux, seed, budget):
        yield tuple(Fraction(x, d) for x in start)


# Block-diagonal eta whose draws for seed 1903 skip the first resample: its
# R vanishes on a disjoint pair where eta does (found by a seed scan).
SKIP_ETA = ((0, 1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 0, 1, -2), (0, 0, -1, 0, 1), (0, 0, 2, -1, 0))
SKIP_ALPHA = (4, 1, 9, 5, -19)
SKIP_SEED = 1903


def test_subset_sums_and_disjoint_pairings_match_mask_sums():
    rng = _rng(11, "subset-sums")
    for r in range(0, 6):
        vec = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(r)]
        assert subset_sums(vec) == [mask_sum(vec, m) for m in range(1 << r)]
        assert subset_sums(vec, 7) == [7 + mask_sum(vec, m) for m in range(1 << r)]
        mat = [[int(rng.integers(-5, 6)) for _ in range(r)] for _ in range(r)]
        disjoint = [(a, b) for a in nonempty_masks(r) for b in nonempty_masks(r) if not a & b]
        assert _disjoint_pairings(mat, r) == [pair_masks(mat, a, b) for a, b in disjoint]


@pytest.mark.parametrize("r", range(1, 8))
def test_draws_equal_reference(r):
    rng = _rng(12, "draw-reference", r)
    shapes = [(4, False), (4, True), (10 ** 6, False)]
    for trial, (max_entry, zero_block) in enumerate(shapes):
        aux = _random_aux(rng, r, max_entry, zero_block)
        seed = 100 * r + trial
        assert alpha_is_generic(aux.eta, aux.alpha)
        assert _first(omega_draws(aux, seed)) == _first(lattice_reference.omega_draws(aux, seed))
        assert _first(beta_draws(aux, seed), 17) == _first(lattice_reference.beta_draws(aux, seed), 17)


def test_draws_equal_reference_when_the_zero_disjoint_skip_fires():
    aux = _unit_aux(SKIP_ETA, SKIP_ALPHA)
    reference = list(lattice_reference.omega_draws(aux, SKIP_SEED, budget=3))
    assert len(reference) == 16  # one of the three resamples was skipped
    assert list(omega_draws(aux, SKIP_SEED, budget=3)) == reference


def test_draws_equal_reference_when_the_shrink_exponent_exceeds_8():
    # With integer eta, k stays 8 for r <= 27 (see _omega_numerators), and the
    # lattice refuses any other eta; a tiny alpha is what pushes the beta
    # draws' k past 8.
    tiny = Fraction(1, 10 ** 6)
    with pytest.raises(InvalidInput, match="integral"):
        _unit_aux(((0, tiny, -2 * tiny), (-tiny, 0, tiny), (2 * tiny, -tiny, 0)), (1, 2, -3))
    eta = ((0, Fraction(1), Fraction(-2)), (Fraction(-1), 0, Fraction(1)), (Fraction(2), Fraction(-1), 0))
    aux = _unit_aux(eta, (tiny, 2 * tiny, -3 * tiny))
    assert _first(omega_draws(aux, 5)) == _first(lattice_reference.omega_draws(aux, 5))
    starts = _first(beta_draws(aux, 5), 17)
    assert starts == _first(lattice_reference.beta_draws(aux, 5), 17)

    def is_large_power_of_two(scale):
        return scale.denominator == 1 and scale.numerator.bit_count() == 1 and scale > 1 << 8

    delta_entry = lattice_reference._random_fraction(_rng(5, "beta", 0))
    assert is_large_power_of_two(delta_entry / (starts[1][0] - aux.alpha[0]))


def test_shrink_exponent_matches_reference():
    rng = _rng(13, "shrink")
    for _ in range(300):
        n = int(rng.integers(1, 6))
        base = [int(rng.integers(-3, 4)) * 10 ** int(rng.integers(0, 4)) for _ in range(n)]
        pert = [int(rng.integers(-(1 << 40), 1 << 40)) >> int(rng.integers(0, 40)) for _ in range(n)]
        expected = lattice_reference.min_shrink_exponent(base, pert)
        assert _shrink_exponent(base, pert) == expected
        thirds = [Fraction(b, 3) for b in base]
        assert _shrink_exponent(thirds, pert) == lattice_reference.min_shrink_exponent(thirds, pert)
    assert _shrink_exponent([1], [1 << 30]) == 31


def test_alpha_is_generic_matches_reference():
    rng = _rng(14, "generic")
    for _ in range(200):
        r = int(rng.integers(1, 6))
        aux = _random_aux(rng, r, 2, bool(rng.integers(0, 2)))
        alpha = [Fraction(int(rng.integers(-2, 3))) for _ in range(r - 1)]
        alpha.append(-sum(alpha))
        assert alpha_is_generic(aux.eta, alpha) == lattice_reference.alpha_is_generic(aux.eta, alpha)


@pytest.mark.parametrize("mode", ["omega", "beta"])
def test_sampling_timeout_after_the_reference_budget(monkeypatch, mode):
    aux = _unit_aux(SKIP_ETA, SKIP_ALPHA)
    draws = lattice_reference.omega_draws if mode == "omega" else lattice_reference.beta_draws
    expected = len(list(draws(aux, SKIP_SEED, budget=3)))
    calls = []

    def rejecting(*args):
        calls.append(args)
        raise ZeroSignArgument("rejected")

    # both modes evaluate each draw through this one entry
    monkeypatch.setattr(quiverdt_flow, "_evaluate", rejecting)
    with pytest.raises(SamplingTimeout):
        _first_generic(aux, mode, SKIP_SEED, 3)
    assert len(calls) == expected
