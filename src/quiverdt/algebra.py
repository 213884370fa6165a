"""Exact arithmetic: rationals, Laurent polynomials and rational functions.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``;
plain ``int`` is accepted wherever it is exact).  Polynomials are sparse
dictionaries mapping exponents to nonzero coefficients, so all identities
tested in this package are exact, never approximate.

Three value types live here:

* ``LaurentPoly`` -- elements of Q[y, y^-1], the value type of kappa.
* ``BiLaurent``   -- elements of Q[y^±1, t^±1].  Both polynomial types
  share one sparse core (``_Laurent``) and differ in their exponent type
  (int or (y, t) pair) and their product loop.
* ``RatFunc``     -- elements of Q(y)[t^±1]: a BiLaurent over a denominator
  in y alone, stored in a canonical form, so equal values have equal
  fields, hashes and renderings and only a univariate gcd is ever needed.
  The gcd runs in ints, on primitive parts over Z; sums are formed over
  the lcm of the denominators; negation, multiplication by a unit and
  ``substitute_power`` keep a canonical pair canonical and skip the gcd.

The canonical text rendering (ascending y-exponent, then ascending
t-exponent, explicit signs, ``y^-1``-style exponents) is the bit-exact
output contract of the CLI.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import InvalidInput, NotPolynomial

def _coeff(value) -> Fraction | int:
    """Coerce a coefficient-like input, keeping exact ints as ints."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"not an exact coefficient: {value!r}")


class _Laurent:
    """Sparse {exponent: nonzero coefficient} arithmetic shared by both polynomial types.

    A subclass fixes the exponent type through ``_exp`` (the normalizer
    applied on construction) and ``_ZERO`` (the exponent of a constant),
    names its variables in ``_VARS`` and writes its own product loop.  A
    binary operation takes an int, a Fraction or a value of the same class;
    any other operand gets NotImplemented, so mixed types either reach the
    other operand's reflected method (RatFunc's) or raise TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            exp = self._exp
            for e, c in terms.items():
                c = _coeff(c)
                if c:
                    data[exp(e)] = c
        self._terms = data

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a dict whose exponents are normalized and whose coefficients are nonzero."""
        res = cls.__new__(cls)
        res._terms = terms
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({cls._ZERO: c})

    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.const(other)
        elif type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.const(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return self._of(out)

    __radd__ = __add__

    def __neg__(self):
        return self._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self) and not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other if isinstance(other, (int, Fraction)) else NotImplemented

    def _scale(self, c):
        """The scalar product, which each subclass's __mul__ hands non-polynomial operands."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return self._of({e: x * c for e, x in self._terms.items()} if c else {})

    __rmul__ = _scale

    def render(self) -> str:
        return _render(self._terms, self._VARS)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class LaurentPoly(_Laurent):
    """Sparse Laurent polynomial in y with rational coefficients."""

    __slots__ = ()
    _exp, _ZERO, _VARS = int, 0, ("y",)

    @staticmethod
    def monomial(exp: int, c=1) -> "LaurentPoly":
        return LaurentPoly({exp: c})

    def __mul__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            return self._scale(other)
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return LaurentPoly._of(out)

    def eval_at_one(self):
        """Value at y = 1 (the sum of all coefficients)."""
        return sum(self._terms.values())

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self._terms.values())

    def to_bilaurent(self) -> "BiLaurent":
        return BiLaurent._of({(e, 0): c for e, c in self._terms.items()})


@lru_cache(maxsize=None)
def kappa(x: int) -> LaurentPoly:
    """(-1)^x (y^x - y^-x)/(y - y^-1), expanded as a Laurent polynomial.

    kappa(0) = 0 and kappa(-x) = -kappa(x).
    """
    if x == 0:
        return LaurentPoly.zero()
    n = abs(x)
    sign = 1 if (x % 2 == 0) else -1
    if x < 0:
        sign = -sign
    return LaurentPoly({n - 1 - 2 * j: sign for j in range(n)})


class BiLaurent(_Laurent):
    """Sparse Laurent polynomial in (y, t) with rational coefficients."""

    __slots__ = ()
    _ZERO, _VARS = (0, 0), ("y", "t")

    @staticmethod
    def _exp(e) -> tuple:
        ye, te = e
        return int(ye), int(te)

    @staticmethod
    def monomial(ye: int, te: int, c=1) -> "BiLaurent":
        return BiLaurent({(ye, te): c})

    def __mul__(self, other) -> "BiLaurent":
        if type(other) is not BiLaurent:
            return self._scale(other)
        out = {}
        for (y1, t1), c1 in self._terms.items():
            for (y2, t2), c2 in other._terms.items():
                e = (y1 + y2, t1 + t2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return BiLaurent._of(out)

    def substitute_power(self, k: int) -> "BiLaurent":
        """Map every exponent pair (a, b) to (k a, k b): f(y, t) -> f(y^k, t^k)."""
        if k < 1:
            raise InvalidInput(f"substitution power must be >= 1, got {k}")
        if k == 1:
            return self
        return BiLaurent._of({(k * ye, k * te): c for (ye, te), c in self._terms.items()})

    def smallest_term(self):
        """Lexicographically smallest (y-exp, t-exp) term as ((ye, te), coeff)."""
        if not self._terms:
            raise ValueError("zero polynomial has no terms")
        e = min(self._terms)
        return e, self._terms[e]


def _dense(p: dict):
    """(lowest exponent, coefficient list from there up) of a nonzero {exp: coeff}."""
    lo = min(p)
    out = [0] * (max(p) - lo + 1)
    for e, c in p.items():
        out[e - lo] = c
    return lo, out


def _primitive(p: list):
    """(content, part) with p = content * part for a nonzero rational coefficient
    list: part has coprime int entries and a positive last entry."""
    m = reduce(math.lcm, [c.denominator for c in p])
    ints = [c.numerator * (m // c.denominator) for c in p]
    g = reduce(math.gcd, ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, m) if m != 1 else g, [c // g for c in ints]


def _gcd_int(a: list, b: list) -> list:
    """Gcd in Z[y] of two primitive coefficient lists, by primitive pseudo-remainders."""
    while b:
        r, n, lb = list(a), len(b), b[-1]
        while len(r) >= n:
            c, shift = r.pop(), len(r) + 1 - n
            r = [lb * x for x in r]
            for i in range(n - 1):
                r[shift + i] -= c * b[i]
            while r and not r[-1]:
                r.pop()
        a, b = b, (_primitive(r)[1] if r else r)
    return a


def _div_exact(a: list, b: list) -> list:
    """a / b in Z[y]; b divides a exactly whenever b is a primitive divisor over Q."""
    a, n, lb = list(a), len(b), b[-1]
    q = [0] * (len(a) - n + 1)
    for i in reversed(range(len(q))):
        c, rem = divmod(a[i + n - 1], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c
        for j in range(n):
            a[i + j] -= c * b[j]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def _y_list(den: BiLaurent):
    """_dense of a y-only BiLaurent."""
    return _dense({ye: c for (ye, _), c in den._terms.items()})


def _undense(content, coeffs: list, lo: int = 0, te: int = 0) -> dict:
    """The {(y-exp, t-exp): coeff} terms of content * y^lo * t^te * coeffs."""
    return {(e + lo, te): content * c for e, c in enumerate(coeffs) if c}


def _cofactors(b: BiLaurent, d: BiLaurent):
    """(b / g, d / g) for g the gcd over Q[y] of two canonical denominators."""
    (bc, bp), (dc, dp) = _primitive(_y_list(b)[1]), _primitive(_y_list(d)[1])
    g = _gcd_int(bp, dp)
    if len(g) == 1:
        return b, d
    return (BiLaurent(_undense(bc, _div_exact(bp, g))),
            BiLaurent(_undense(dc, _div_exact(dp, g))))


class RatFunc:
    """Element of Q(y)[t^±1]: a BiLaurent numerator over a Laurent polynomial in y.

    The stored pair is canonical: the gcd over Q[y] of the denominator and
    every t-slice of the numerator is cancelled, then both are scaled so
    that the denominator's lowest term is the constant +1.  A y-only
    irreducible divides the numerator exactly when it divides every
    t-slice, so equal fractions store equal fields; equality and hashing
    compare them directly.  A denominator involving t raises InvalidInput.

    The gcd is taken over Z on primitive parts.  a/b + c/d is built as
    (a (d/g) + c (b/g)) / ((b/g) d) with g = gcd(b, d), so the gcd that
    follows works on the lcm, not on b d.  Three operations build the
    canonical pair directly: negation; multiplication by a unit (a one-term
    numerator over denominator 1), which scales each t-slice by a monomial;
    and ``substitute_power``, since a Bezout identity survives y -> y^k and
    the denominator keeps its constant term 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _as_bilaurent(num), _as_bilaurent(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if any(te for (_, te) in den._terms):
            raise InvalidInput(f"denominator is not a polynomial in y: {den.render()}")
        self.num, self.den = _normalize(num, den)

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(0)

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    @staticmethod
    def _canonical(num: BiLaurent, den: BiLaurent) -> "RatFunc":
        """Wrap a pair that is already canonical, with no gcd and no scaling."""
        res = RatFunc.__new__(RatFunc)
        res.num, res.den = num, den
        return res

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        b, d = self.den, other.den
        if b == d:
            return RatFunc(self.num + other.num, b)
        b_g, d_g = _cofactors(b, d)
        return RatFunc(self.num * d_g + other.num * b_g, b_g * d)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._canonical(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return -self + other

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        for unit, f in ((self, other), (other, self)):
            if len(unit.num._terms) == 1 and unit.den == _ONE:
                return RatFunc._canonical(f.num * unit.num, f.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatFunc, BiLaurent, LaurentPoly, int, Fraction)):
            return NotImplemented
        other = _as_ratfunc(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def substitute_power(self, k: int) -> "RatFunc":
        return RatFunc._canonical(self.num.substitute_power(k), self.den.substitute_power(k))

    def to_bilaurent(self) -> BiLaurent:
        """Exact polynomial value; raises NotPolynomial when the fraction is not one."""
        if self.den != _ONE:
            raise NotPolynomial(f"not a Laurent polynomial: {self.render()}")
        return self.num

    def render(self) -> str:
        if self.den == _ONE:
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()})"


_ONE = BiLaurent.const(1)


def _as_bilaurent(x) -> BiLaurent:
    if isinstance(x, BiLaurent):
        return x
    if isinstance(x, LaurentPoly):
        return x.to_bilaurent()
    return BiLaurent.const(x)


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc(x)


def _normalize(num: BiLaurent, den: BiLaurent):
    """The canonical pair of num / den, for a nonzero y-only den."""
    if num.is_zero():
        return num, _ONE
    if len(den._terms) > 1:
        num, den = _cancel_gcd(num, den)
    (ye, _), c = den.smallest_term()
    if ye or c != 1:
        scale = BiLaurent.monomial(-ye, 0, Fraction(1) / c)
        num, den = num * scale, den * scale
    return num, den


def _cancel_gcd(num: BiLaurent, den: BiLaurent):
    """Divide num and den by the gcd over Q[y] of den and every t-slice of num."""
    slices: dict = {}
    for (ye, te), c in num._terms.items():
        slices.setdefault(te, {})[ye] = c
    den_lo, den_p = _y_list(den)
    den_c, den_p = _primitive(den_p)
    g, parts = den_p, {}
    for te, p in slices.items():
        lo, p = _dense(p)
        parts[te] = (lo, *_primitive(p))
        g = _gcd_int(g, parts[te][2])
        if len(g) == 1:
            return num, den
    quo = {}
    for te, (lo, content, p) in parts.items():
        quo.update(_undense(content, _div_exact(p, g), lo, te))
    return BiLaurent(quo), BiLaurent(_undense(den_c, _div_exact(den_p, g), den_lo))


# ---------------------------------------------------------------------------
# canonical rendering and parsing


def _fmt_rational(c) -> str:
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _render(terms: dict, variables: tuple) -> str:
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms):
        c = terms[exps]
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(variables, exps if type(exps) is tuple else (exps,))
            if e != 0
        )
        mag = abs(Fraction(c))
        if not mono:
            body = _fmt_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_fmt_rational(mag)}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def parse_bilaurent(text: str) -> BiLaurent:
    """Parse the canonical rendering back into a BiLaurent polynomial."""
    text = text.strip()
    if text == "0":
        return BiLaurent.zero()
    terms: dict = {}
    for sign, chunk in _split_signed(text):
        coeff, ye, te = _parse_term(chunk)
        key = (ye, te)
        s = terms.get(key, 0) + sign * coeff
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    return BiLaurent({k: c.numerator if c.denominator == 1 else c for k, c in terms.items()})


def parse_laurent(text: str) -> LaurentPoly:
    bi = parse_bilaurent(text)
    terms = {}
    for (ye, te), c in bi.terms().items():
        if te != 0:
            raise InvalidInput(f"unexpected t-power in y-polynomial: {text!r}")
        terms[ye] = c
    return LaurentPoly(terms)


def _split_signed(text: str):
    out = []
    i = 0
    sign = 1
    if text.startswith("-"):
        sign = -1
        i = 1
    elif text.startswith("+"):
        i = 1
    start = i
    while i < len(text):
        if text[i] in "+-" and i > start and text[i - 1] == " ":
            out.append((sign, text[start:i - 1].strip()))
            sign = 1 if text[i] == "+" else -1
            i += 1
            start = i
        else:
            i += 1
    out.append((sign, text[start:].strip()))
    return out


def _parse_term(chunk: str):
    coeff = Fraction(1)
    ye = te = 0
    saw_coeff = False
    for factor in chunk.split("*"):
        factor = factor.strip()
        if not factor:
            raise InvalidInput(f"empty factor in term {chunk!r}")
        if factor[0] in "yt":
            var = factor[0]
            exp = 1
            if len(factor) > 1:
                if factor[1] != "^":
                    raise InvalidInput(f"bad monomial {factor!r}")
                exp = int(factor[2:])
            if var == "y":
                ye += exp
            else:
                te += exp
        else:
            if saw_coeff:
                coeff *= Fraction(factor)
            else:
                coeff = Fraction(factor)
                saw_coeff = True
    return coeff, ye, te
