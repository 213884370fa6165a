"""Exact arithmetic: kappa, Laurent polynomials, rational functions."""

import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from algebra_reference import canonical_pair, reference_parse_bilaurent
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdt.algebra import (
    BiLaurent,
    LaurentPoly,
    RatFunc,
    _div_exact,
    kappa,
    parse_bilaurent,
    parse_laurent,
    parse_rational,
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
        assert sum(kappa(x).terms().values()) == (-1) ** x * x  # the value at y = 1
        assert all(type(c) is int for c in kappa(x).terms().values())


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


def _random_y_poly(rng):
    """A y-only polynomial, possibly zero, with int and Fraction coefficients."""
    terms = {}
    for _ in range(int(rng.integers(0, 5))):
        c = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        terms[int(rng.integers(-4, 5))] = c if c.denominator > 1 else int(c)
    return LaurentPoly(terms)


def test_laurent_ops_match_their_bilaurent_images():
    rng = _rng(15, "laurent-bilaurent")
    scalars = [0, 2, -1, Fraction(0), Fraction(-2, 3)]
    for _ in range(60):
        a, b = _random_y_poly(rng), _random_y_poly(rng)
        ab, bb = a.to_bilaurent(), b.to_bilaurent()
        cases = [(a + b, ab + bb), (a - b, ab - bb), (a * b, ab * bb), (-a, -ab)]
        # the cross terms of (a + b)(a - b) cancel, so the product drops zero coefficients
        cases += [((a + b) * (a - b), (ab + bb) * (ab - bb))]
        cases += [(a * c, ab * c) for c in scalars] + [(c * a, c * ab) for c in scalars]
        for got, want in cases:
            assert type(got) is LaurentPoly and type(want) is BiLaurent
            assert got.to_bilaurent() == want and got.render() == want.render()
            assert got.terms() == {ye: c for (ye, _), c in want.terms().items()}
        same = a + b - b
        for x in (b, same, *scalars):
            xb = x.to_bilaurent() if isinstance(x, LaurentPoly) else x
            assert (a == x) == (ab == xb)
        assert hash(same) == hash(a) and hash(same.to_bilaurent()) == hash(ab)


_L1, _B1, _R1 = LaurentPoly.const(1), BiLaurent.const(1), RatFunc(1)


@pytest.mark.parametrize(
    "left, op, right, expected",
    [
        (_L1, operator.add, _R1, RatFunc(2)),
        (_L1, operator.mul, _R1, RatFunc(1)),
        (_R1, operator.add, _L1, RatFunc(2)),
        (_B1, operator.add, _R1, RatFunc(2)),
        (_B1, operator.mul, _R1, RatFunc(1)),
        (_L1, operator.add, _B1, TypeError),
        (_B1, operator.add, _L1, TypeError),
        (_L1, operator.mul, _B1, TypeError),
        (_B1, operator.mul, _L1, TypeError),
        (_L1, operator.mul, 1.5, TypeError),
        (1.5, operator.mul, _B1, TypeError),
        (1, operator.add, _L1, LaurentPoly.const(2)),
        (1, operator.sub, _L1, LaurentPoly.zero()),
        (Fraction(1, 2), operator.sub, _B1, BiLaurent.const(Fraction(-1, 2))),
        (_L1, operator.sub, _R1, RatFunc(0)),
        (1, operator.sub, _R1, RatFunc(0)),
        (_L1, lambda a, b: sum([a, b]), _L1, LaurentPoly.const(2)),
        (_L1, operator.sub, _B1, TypeError),
        (_B1, operator.sub, _L1, TypeError),
        (1.5, operator.sub, _L1, TypeError),
        (1.5, operator.add, _B1, TypeError),
    ],
    ids=["L+R", "L*R", "R+L", "B+R", "B*R", "L+B", "B+L", "L*B", "B*L", "L*float", "float*B",
         "1+L", "1-L", "q-B", "L-R", "1-R", "sum(L)", "L-B", "B-L", "float-L", "float+B"],
)
def test_mixed_type_arithmetic(left, op, right, expected):
    if expected is TypeError:
        with pytest.raises(TypeError):
            op(left, right)
    else:
        got = op(left, right)
        assert type(got) is type(expected) and got == expected


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
    (ye, te), c = min(f.den.terms().items())  # the lexicographically smallest term
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


def test_parse_rational_reads_integers_and_fractions():
    assert parse_rational("3/2") == Fraction(3, 2) and parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" +4/2 ") == 2 and parse_rational("007") == 7
    assert type(parse_rational("-12")) is int


@pytest.mark.parametrize(
    "text", ["0.5", "1.", ".5", "1e3", "1E3", "1_0", "1/0", "3/00", "", "+", "1/-2", "1 /2", "- 1", "inf", "\u0663"]
)
def test_parse_rational_rejects_every_other_literal(text):
    with pytest.raises(InvalidInput):
        parse_rational(text)


def test_parse_rational_rejects_more_digits_than_int_converts():
    with pytest.raises(InvalidInput, match="5000 digits"):
        parse_rational("9" * 5000)
    with pytest.raises(InvalidInput, match="5000 digits"):
        parse_bilaurent(f"y^{'9' * 5000}")


_MUTATIONS = "0123456789yt^*/+- \t.e_"


def _mutate(rng, text: str) -> str:
    """text with one to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        op = rng.randrange(3)
        if op == 0:
            chars.insert(i, rng.choice(_MUTATIONS))
        elif chars and op == 1:
            del chars[min(i, len(chars) - 1)]
        elif chars:
            chars[min(i, len(chars) - 1)] = rng.choice(_MUTATIONS)
    return "".join(chars)


def _parsed_or_none(parse, text: str):
    try:
        return parse(text)
    except (InvalidInput, ValueError, ZeroDivisionError):
        return None


def test_parser_agrees_with_the_reference_parser():
    # Random renders, half of them mutated: both parsers give the same value or
    # both reject, except that only the grammar rejects '.', 'e' and '_'.
    rng = random.Random(34)
    counts = {"same": 0, "only the grammar rejects": 0}
    for k in range(10_000):
        terms = {
            (rng.randint(-4, 4), rng.randint(-3, 3)): Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 7)))
            for _ in range(rng.randint(0, 4))
        }
        text = BiLaurent(terms).render()
        if k % 2:
            text = _mutate(rng, text)
        new, old = _parsed_or_none(parse_bilaurent, text), _parsed_or_none(reference_parse_bilaurent, text)
        if set(text) & set(".e_"):
            assert new is None, text
            counts["only the grammar rejects" if old is not None else "same"] += 1
        else:
            assert new == old, text
            counts["same"] += 1
    assert counts["only the grammar rejects"] > 10, counts


def test_exact_division_and_not_polynomial():
    num = BiLaurent({(2, 0): 1, (-2, 0): -1})
    den = BiLaurent({(1, 0): 1, (-1, 0): -1})
    assert RatFunc(num, den).to_bilaurent() == BiLaurent({(1, 0): 1, (-1, 0): 1})
    f = RatFunc(BiLaurent.const(1), BiLaurent({(1, 0): 1, (-1, 0): 1}))
    with pytest.raises(NotPolynomial):
        f.to_bilaurent()
    g = RatFunc(BiLaurent({(2, 0): 1, (0, 0): 1}), BiLaurent({(1, 0): 1}))
    assert g.to_bilaurent() == BiLaurent({(1, 0): 1, (-1, 0): 1})


_ONE = BiLaurent.const(1)
_Y = BiLaurent.monomial(1, 0)
_T = BiLaurent.monomial(0, 1)
# 1 + y, y - y^-1, y^2 + y + 1, 2y - 3, y/2 + 1
_FACTORS = [
    BiLaurent({(0, 0): 1, (1, 0): 1}),
    BiLaurent({(1, 0): 1, (-1, 0): -1}),
    BiLaurent({(0, 0): 1, (1, 0): 1, (2, 0): 1}),
    BiLaurent({(1, 0): 2, (0, 0): -3}),
    BiLaurent({(1, 0): Fraction(1, 2), (0, 0): 1}),
]
_product = st.lists(st.sampled_from(_FACTORS), max_size=3).map(
    lambda fs: reduce(BiLaurent.__mul__, fs, _ONE)
)
_coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_numerator = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)), _coefficients, max_size=4
).map(BiLaurent)
# (num, den) in product form: the numerator shares some factors with den
_pair = st.tuples(_numerator, _product, _product).map(lambda p: (p[0] * p[1], p[2]))
_unit = st.builds(
    BiLaurent.monomial, st.integers(-3, 3), st.integers(-2, 2), _coefficients.filter(bool)
)


def _render_pair(num, den):
    return num.render() if den == _ONE else f"({num.render()}) / ({den.render()})"


def _assert_canonical_pair(f):
    """The stored pair: int coefficients, D[0] > 0 (lowest y-exponent 0), joint content 1."""
    n, d = f.pair
    coefficients = list(n.terms().values())
    assert type(d) is tuple and d[0] > 0 and d[-1] != 0
    assert all(type(c) is int for c in (*d, *coefficients))
    assert math.gcd(*d, *coefficients) == 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(a=_pair, b=_pair, unit=_unit, k=st.integers(1, 3))
def test_ratfunc_ops_match_the_euclid_reference(a, b, unit, k):
    (an, ad), (bn, bd) = a, b
    fa, fb, u = RatFunc(an, ad), RatFunc(bn, bd), RatFunc(unit)
    cases = [
        (fa, (an, ad)),
        (fa + fb, (an * bd + bn * ad, ad * bd)),
        (fa - fb, (an * bd - bn * ad, ad * bd)),
        (fa * fb, (an * bn, ad * bd)),
        (-fa, (-an, ad)),
        (fa.substitute_power(k), (an.substitute_power(k), ad.substitute_power(k))),
        (u * fa, (unit * an, ad)),
        (fa * u, (an * unit, ad)),
    ]
    for got, (num, den) in cases:
        num, den = canonical_pair(num, den)
        _assert_canonical_pair(got)
        assert got.num == num and got.den == den
        assert got.render() == _render_pair(num, den)


def test_ratfunc_times_zero_has_denominator_one():
    f = RatFunc(_Y, _ONE + _Y)
    for zero in (f * 0, 0 * f, f * RatFunc.zero(), RatFunc.zero() * f):
        assert zero.num.is_zero() and zero.den == _ONE and zero.render() == "0"


def test_ratfunc_times_a_unit_on_either_side():
    f = RatFunc(_ONE + _Y * _T, _ONE + _Y * 2)
    u = RatFunc(BiLaurent.monomial(-2, 1, Fraction(-3, 2)))
    expected = "(-3/2*y^-2*t - 3/2*y^-1*t^2) / (1 + 2*y)"
    assert (u * f).render() == expected and (f * u).render() == expected
    # a one-term numerator over a nontrivial denominator is not a unit
    g, h = RatFunc(_ONE + _Y), RatFunc(1, _ONE + _Y)
    assert (g * h).render() == "1" and (h * g).render() == "1"


def test_ratfunc_add_over_coprime_and_shared_denominators():
    assert (RatFunc(1, _ONE + _Y) + RatFunc(1, _ONE - _Y)).render() == "(2) / (1 - y^2)"
    shared = RatFunc(1, _ONE + _Y) - RatFunc(_Y, (_ONE + _Y) * (_ONE + _Y * 2))
    assert shared.render() == "(1) / (1 + 2*y)"


def test_ratfunc_gcd_with_fraction_coefficients_and_a_constant_slice():
    half = _ONE + _Y * Fraction(1, 2)
    f = RatFunc(half * _T, half * (_ONE - _Y * Fraction(1, 3)))
    assert f.render() == "(t) / (1 - 1/3*y)"
    # the t-slice 5 is constant, so the gcd is 1 once it is read
    g = RatFunc((_ONE + _Y) * 2 + _T * 10, (_ONE + _Y) * 2)
    assert g.render() == "(1 + 5*t + y) / (1 + y)"


def test_exact_division_rejects_a_remainder():
    assert _div_exact([1, 2, 1], [1, 1]) == [1, 1]
    with pytest.raises(ArithmeticError):
        _div_exact([1, 0, 1], [1, 1])
    with pytest.raises(ArithmeticError):
        _div_exact([3, 3], [2, 2])


def test_ratfunc_pair_is_unique_under_scaling():
    a = RatFunc(_Y * 2, _ONE * 4 + _Y * _Y * 4)
    b = RatFunc(_Y * Fraction(1, 2), _ONE + _Y * _Y)
    assert a == b and hash(a) == hash(b)
    assert a.pair == b.pair == (_Y, (2, 0, 2))
    assert (a.num, a.den) == (_Y * Fraction(1, 2), _ONE + _Y * _Y)
    assert a.render() == "(1/2*y) / (1 + y^2)"


def test_ratfunc_integral_fraction_coefficients():
    f = RatFunc(BiLaurent({(1, 0): Fraction(2, 1)}), BiLaurent.const(Fraction(4, 1)))
    _assert_canonical_pair(f)
    assert f.pair == (_Y, (2,)) and f == RatFunc(_Y, 2)


def test_ratfunc_negative_denominator_entries():
    # a negative lowest entry flips the sign of the pair: (1 - y) / ((y - 1)(2 + 3y))
    f = RatFunc(_ONE - _Y, (_Y - 1) * (_ONE * 2 + _Y * 3))
    _assert_canonical_pair(f)
    assert f.pair == (-_ONE, (2, 3)) and f.render() == "(-1/2) / (1 + 3/2*y)"
    # a negative leading entry stays: (1 - y) t / ((1 - y)(2 + y)) cancels to t / (2 + y)
    g = RatFunc((_ONE - _Y) * _T, (_ONE - _Y) * (_ONE * 2 + _Y))
    _assert_canonical_pair(g)
    assert g.pair == (_T, (2, 1))
    h = RatFunc(_T, _ONE * 2 - _Y)
    assert h.pair == (_T, (2, -1)) and h.render() == "(1/2*t) / (1 - 1/2*y)"


def test_ratfunc_same_denominator_sum_cancels():
    f = RatFunc(1, _ONE + _Y) + RatFunc(_Y, _ONE + _Y)
    assert f == RatFunc.one() and f.pair == (_ONE, (1,)) and f.render() == "1"
    g = RatFunc(_T, _ONE - _Y * _Y) - RatFunc(_Y * _T, _ONE - _Y * _Y)
    assert g.pair == (_T, (1, 1)) and g.render() == "(t) / (1 + y)"


def test_to_bilaurent_over_a_constant_denominator():
    f = RatFunc(_Y, 3)
    assert f.pair == (_Y, (3,))
    assert f.to_bilaurent() == BiLaurent({(1, 0): Fraction(1, 3)})
    assert f.render() == "1/3*y" and f.den == _ONE

