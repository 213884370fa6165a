"""Exact arithmetic: kappa, Laurent polynomials, rational functions."""

from fractions import Fraction

import pytest

from quiverdt.algebra import (
    BiLaurent,
    LaurentPoly,
    RatFunc,
    kappa,
    parse_bilaurent,
    parse_laurent,
)
from quiverdt.errors import InvalidInput, NotPolynomial
from quiverdt.lattice import _rng


def test_kappa_small_values():
    assert kappa(0) == LaurentPoly.zero()
    assert kappa(1) == LaurentPoly.const(-1)
    assert kappa(2) == LaurentPoly({1: 1, -1: 1})
    assert kappa(-3) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_kappa_oddness_and_value_at_one():
    for x in range(-20, 21):
        assert kappa(-x) == -kappa(x)
        assert kappa(x).eval_at_one() == (-1) ** x * x
        assert kappa(x).is_integral()


def test_substitute_power_examples():
    f = BiLaurent({(1, 0): 1, (-1, 0): 1})
    assert f.substitute_power(2) == BiLaurent({(2, 0): 1, (-2, 0): 1})
    assert f.substitute_power(1) == f
    g = BiLaurent({(0, 1): 1, (1, 0): -1})
    assert g.substitute_power(3) == BiLaurent({(0, 3): 1, (3, 0): -1})
    with pytest.raises(Exception):
        f.substitute_power(0)


def test_ratfunc_add_identity():
    f = RatFunc(BiLaurent({(2, 1): 3, (0, 0): 1}), BiLaurent({(1, 0): 2, (0, 0): 1}))
    assert f + RatFunc.zero() == f


def test_ratfunc_mul_collapses_to_one():
    # (y - y^-1)/(y^2 - y^-2) * (y + y^-1) = 1
    a = RatFunc(BiLaurent({(1, 0): 1, (-1, 0): -1}), BiLaurent({(2, 0): 1, (-2, 0): -1}))
    b = RatFunc(BiLaurent({(1, 0): 1, (-1, 0): 1}))
    assert a * b == RatFunc.one()


def test_ratfunc_equality_by_cross_multiplication():
    a = RatFunc(BiLaurent.const(1), BiLaurent({(1, 0): 1, (-1, 0): 1}))
    b = RatFunc(BiLaurent({(1, 0): 1}), BiLaurent({(2, 0): 1, (0, 0): 1}))
    assert a == b
    # equal values are stored alike, so they hash and render alike
    assert (a.num, a.den) == (b.num, b.den)
    assert hash(a) == hash(b) and a.render() == b.render()


def test_ratfunc_common_factor_cancels_in_every_t_slice():
    # (1 + y t)(1 + y) / ((1 + y)(1 + 2 y)) is (1 + y t) / (1 + 2 y)
    one_plus_y = BiLaurent({(0, 0): 1, (1, 0): 1})
    a = RatFunc(BiLaurent({(0, 0): 1, (1, 1): 1}) * one_plus_y,
                one_plus_y * BiLaurent({(0, 0): 1, (1, 0): 2}))
    b = RatFunc(BiLaurent({(0, 0): 1, (1, 1): 1}), BiLaurent({(0, 0): 1, (1, 0): 2}))
    assert a == b and hash(a) == hash(b)
    assert a.render() == "(1 + y*t) / (1 + 2*y)"


def test_ratfunc_compares_unequal_to_other_types():
    assert RatFunc(1) != None  # noqa: E711
    assert RatFunc(1) != "1"
    assert RatFunc(1) == 1 and RatFunc(LaurentPoly.const(2)) == Fraction(2)


def test_ratfunc_t_denominator_rejected():
    with pytest.raises(InvalidInput):
        RatFunc(1, BiLaurent({(0, 0): 1, (0, 1): 2}))
    with pytest.raises(InvalidInput):
        RatFunc(BiLaurent({(1, 1): 1}), BiLaurent({(0, 1): 1}))


def _random_laurent(rng):
    return LaurentPoly(
        {int(rng.integers(-4, 5)): int(rng.integers(-5, 6)) for _ in range(int(rng.integers(1, 5)))}
    )


def _random_ratfunc(rng):
    num = BiLaurent(
        {
            (int(rng.integers(-3, 4)), int(rng.integers(-2, 3))): int(rng.integers(-4, 5))
            for _ in range(int(rng.integers(1, 4)))
        }
    )
    den_terms = {
        (int(rng.integers(-2, 3)), 0): int(rng.integers(-3, 4))
        for _ in range(int(rng.integers(1, 3)))
    }
    den = BiLaurent(den_terms)
    if den.is_zero():
        den = BiLaurent.const(1)
    return RatFunc(num, den)


def test_laurent_ring_laws():
    rng = _rng(11, "laurent-laws")
    for _ in range(40):
        a, b, c = (_random_laurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == LaurentPoly.zero()


def test_ratfunc_ring_laws():
    rng = _rng(12, "ratfunc-laws")
    for _ in range(25):
        a, b, c = (_random_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RatFunc.zero()


def test_normalization_idempotent():
    rng = _rng(13, "normalize")
    for _ in range(25):
        f = _random_ratfunc(rng)
        again = RatFunc(f.num, f.den)
        assert again.num == f.num and again.den == f.den


def test_normalization_denominator_smallest_term_is_one():
    f = RatFunc(BiLaurent.const(1), BiLaurent({(1, 0): 2, (-1, 0): 2}))
    (ye, te), c = f.den.smallest_term()
    assert (ye, te) == (0, 0) and c == 1
    # 1/(2(y + y^-1)) times 2(y + y^-1) is 1
    assert f * RatFunc(BiLaurent({(1, 0): 2, (-1, 0): 2})) == RatFunc.one()


def test_rendering_contract():
    assert LaurentPoly.zero().render() == "0"
    assert kappa(2).render() == "y^-1 + y"
    assert (-kappa(2)).render() == "-y^-1 - y"
    assert LaurentPoly.const(1).render() == "1"
    assert LaurentPoly({1: Fraction(1, 2)}).render() == "1/2*y"
    f = BiLaurent({(2, -1): -3, (0, 0): 1, (0, 3): Fraction(5, 2)})
    assert f.render() == "1 + 5/2*t^3 - 3*y^2*t^-1"


def test_parse_round_trip():
    rng = _rng(14, "parse")
    for _ in range(30):
        f = _random_ratfunc(rng).num
        assert parse_bilaurent(f.render()) == f
    p = _random_laurent(rng)
    assert parse_laurent(p.render()) == p
    assert parse_bilaurent("0") == BiLaurent.zero()


def test_exact_division_and_not_polynomial():
    num = BiLaurent({(2, 0): 1, (-2, 0): -1})
    den = BiLaurent({(1, 0): 1, (-1, 0): -1})
    assert RatFunc(num, den).to_bilaurent() == BiLaurent({(1, 0): 1, (-1, 0): 1})
    f = RatFunc(BiLaurent.const(1), BiLaurent({(1, 0): 1, (-1, 0): 1}))
    with pytest.raises(NotPolynomial):
        f.to_bilaurent()
    g = RatFunc(BiLaurent({(2, 0): 1, (0, 0): 1}), BiLaurent({(1, 0): 1}))
    assert g.to_bilaurent() == BiLaurent({(1, 0): 1, (-1, 0): 1})
