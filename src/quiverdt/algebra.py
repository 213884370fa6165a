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
  in y alone, stored as a canonical pair of integer polynomials, so equal
  values have equal pairs, hashes and renderings and only a univariate gcd
  is ever needed.  All of its arithmetic runs in ints: gcds on primitive
  parts over Z, sums over the lcm of the denominators, products by
  cancelling each numerator against the other denominator; negation,
  multiplication by a unit and ``substitute_power`` skip the gcd.  The
  rational views ``num`` / ``den`` (denominator's lowest term 1) are built
  only when read.

The canonical text rendering (ascending y-exponent, then ascending
t-exponent, explicit signs, ``y^-1``-style exponents) is the bit-exact
output contract of the CLI.  The parsers read the same grammar and no
other: a rational is ``[+-]N`` or ``[+-]N/D`` in decimal digits
(``parse_rational``), so no decimal point, exponent or digit separator.
"""

from __future__ import annotations

import math
import re
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


def _dense(p: dict):
    """(lowest exponent, coefficient list from there up) of a nonzero {exp: coeff}."""
    lo = min(p)
    out = [0] * (max(p) - lo + 1)
    for e, c in p.items():
        out[e - lo] = c
    return lo, out


def _primitive(p: list) -> list:
    """The primitive part of a nonzero int coefficient list: coprime entries, positive last entry."""
    g = math.gcd(*p)
    if p[-1] < 0:
        g = -g
    return p if g == 1 else [c // g for c in p]


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
        a, b = b, (_primitive(r) if r else r)
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


def _poly_mul(a, b) -> list:
    """Product of two int coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, z in enumerate(b):
                out[i + j] += x * z
    return out


def _times_y_list(n: BiLaurent, p) -> BiLaurent:
    """n times the y-polynomial with coefficient list p."""
    if len(p) == 1 and p[0] == 1:
        return n
    return n * BiLaurent._of({(e, 0): c for e, c in enumerate(p) if c})


def _cofactors(b: tuple, d: tuple):
    """(b / g, d / g) for g the gcd over Q[y] of two denominators."""
    g = _gcd_int(_primitive(b), _primitive(d))
    if len(g) == 1:
        return b, d
    return _div_exact(b, g), _div_exact(d, g)


def _cancel(n: dict, d):
    """Divide the int terms n and the y-list d by the gcd over Q[y] of d and every t-slice of n.

    d[0] != 0, so a one-term slice (a monomial) shares no factor with d.
    """
    slices: dict = {}
    for (ye, te), c in n.items():
        slices.setdefault(te, {})[ye] = c
    g, parts = _primitive(d), []
    for te, p in slices.items():
        if len(p) == 1:
            return n, d
        lo, p = _dense(p)
        g = _gcd_int(g, _primitive(p))
        if len(g) == 1:
            return n, d
        parts.append((te, lo, p))
    out = {}
    for te, lo, p in parts:
        out.update({(e + lo, te): c for e, c in enumerate(_div_exact(p, g)) if c})
    return out, _div_exact(d, g)


def _content_free(n: dict, d) -> tuple:
    """(BiLaurent, tuple) of the int terms n and y-list d over their joint content, d[0] > 0."""
    if d[0] != 1:
        g = math.gcd(*d, *n.values())
        if d[0] < 0:
            g = -g
        if g != 1:
            n = {e: c // g for e, c in n.items()}
            d = [c // g for c in d]
    return BiLaurent._of(n), tuple(d)


def _normalize(n: dict, d) -> tuple:
    """The canonical pair of n / d, for int terms n and an int y-list d with d[0] != 0."""
    if not n:
        return BiLaurent._of({}), (1,)
    if len(d) > 1:
        n, d = _cancel(n, d)
    return _content_free(n, d)


def _integral(c, m: int) -> int:
    """m c as an int, for a coefficient whose denominator divides m."""
    return c * m if isinstance(c, int) else c.numerator * (m // c.denominator)


class RatFunc:
    """Element of Q(y)[t^±1]: a polynomial in (y, t) over a polynomial in y.

    Stored as a pair of integer polynomials (N, D), the ``pair`` attribute:
    N is an int BiLaurent and D a tuple of int y-coefficients from y^0 up,
    with D[0] > 0.  The gcd over Q[y] of D and every t-slice of N is
    cancelled, and the joint integer content of N and D is 1.  A y-only
    irreducible divides N exactly when it divides every t-slice, so this
    form is unique: equality and hashing compare the pair.  A denominator
    involving t raises InvalidInput.

    All arithmetic runs in ints.  The gcd is taken over Z on primitive
    parts; by Gauss's lemma a primitive divisor divides exactly over Z.
    a/b + c/d is built as (a (d/g) + c (b/g)) / ((b/g) d) with
    g = gcd(b, d), so the gcd that follows works on the lcm, not on b d.
    A product cancels N1 against D2 and N2 against D1, the only factors it
    can share.  Three operations skip the gcd: negation; multiplication by
    a unit (one term over a constant), which can change only the content;
    and ``substitute_power``, since a Bezout identity survives y -> y^k.

    ``num`` and ``den`` are the rational views N / D[0] and D / D[0], the
    pair scaled so that the denominator's lowest term is the constant +1;
    they are built when read, as is the ``render`` text.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=1):
        num, den = _as_bilaurent(num), _as_bilaurent(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if any(te for (_, te) in den._terms):
            raise InvalidInput(f"denominator is not a polynomial in y: {den.render()}")
        lo, d = _dense({ye: c for (ye, _), c in den._terms.items()})
        if lo:
            num = num * BiLaurent._of({(-lo, 0): 1})
        self._n, self._d = _rational_pair(num, d)

    @staticmethod
    def _canonical(n: BiLaurent, d: tuple) -> "RatFunc":
        """Wrap a pair that is already canonical, with no gcd and no scaling."""
        res = RatFunc.__new__(RatFunc)
        res._n, res._d = n, d
        return res

    @staticmethod
    def from_pair(num: BiLaurent, den: tuple) -> "RatFunc":
        """num / den, for a denominator given like ``pair``'s: y-coefficients from y^0 up."""
        return RatFunc._canonical(*_rational_pair(num, den))

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc._canonical(BiLaurent._of({}), (1,))

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc._canonical(BiLaurent._of({(0, 0): 1}), (1,))

    @property
    def pair(self) -> tuple:
        """(N, D): the int BiLaurent numerator and the denominator's int y-coefficients."""
        return self._n, self._d

    @property
    def num(self) -> BiLaurent:
        d0 = self._d[0]
        if d0 == 1:
            return self._n
        return BiLaurent._of({e: Fraction(c, d0) for e, c in self._n._terms.items()})

    @property
    def den(self) -> BiLaurent:
        d0 = self._d[0]
        return BiLaurent._of({(e, 0): Fraction(c, d0) for e, c in enumerate(self._d) if c})

    def is_zero(self) -> bool:
        return not self._n._terms

    def __bool__(self) -> bool:
        return bool(self._n._terms)

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if not other._n._terms:
            return self
        if not self._n._terms:
            return other
        b, d = self._d, other._d
        if b == d:
            return RatFunc._canonical(*_normalize((self._n + other._n)._terms, b))
        b_g, d_g = _cofactors(b, d)
        num = _times_y_list(self._n, d_g) + _times_y_list(other._n, b_g)
        return RatFunc._canonical(*_normalize(num._terms, _poly_mul(b_g, d)))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._canonical(-self._n, self._d)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return -self + other

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        (n1, d1), (n2, d2) = (self._n, self._d), (other._n, other._d)
        if not n1._terms or not n2._terms:
            return RatFunc.zero()
        for (nu, du), (nf, df) in (((n1, d1), (n2, d2)), ((n2, d2), (n1, d1))):
            if len(du) == 1 and len(nu._terms) == 1:
                # a unit c y^a t^b / q: the gcd stays, only the content can change
                (_, c), q = next(iter(nu._terms.items())), du[0]
                if q == 1 and (c == 1 or c == -1):
                    return RatFunc._canonical(nf * nu, df)
                return RatFunc._canonical(*_content_free((nf * nu)._terms, [q * x for x in df]))
        a, b = n1._terms, n2._terms
        if len(d2) > 1:
            a, d2 = _cancel(a, d2)
        if len(d1) > 1:
            b, d1 = _cancel(b, d1)
        num = BiLaurent._of(a) * BiLaurent._of(b)
        return RatFunc._canonical(*_content_free(num._terms, _poly_mul(d1, d2)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatFunc, BiLaurent, LaurentPoly, int, Fraction)):
            return NotImplemented
        other = _as_ratfunc(other)
        return self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def substitute_power(self, k: int) -> "RatFunc":
        n = self._n.substitute_power(k)
        if k == 1:
            return self
        d = [0] * (k * (len(self._d) - 1) + 1)
        d[::k] = self._d
        return RatFunc._canonical(n, tuple(d))

    def to_bilaurent(self) -> BiLaurent:
        """Exact polynomial value; raises NotPolynomial when the fraction is not one."""
        if len(self._d) > 1:
            raise NotPolynomial(f"not a Laurent polynomial: {self.render()}")
        return self.num

    def render(self) -> str:
        if len(self._d) == 1:
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()})"


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


def _rational_pair(num: BiLaurent, d) -> tuple:
    """The canonical pair of num / d, for rational coefficients and d[0] != 0."""
    m = 1
    for c in (*num._terms.values(), *d):
        if not isinstance(c, int):
            m = math.lcm(m, c.denominator)
    n = {e: _integral(c, m) for e, c in num._terms.items()}
    return _normalize(n, [_integral(c, m) for c in d])


# ---------------------------------------------------------------------------
# canonical rendering and parsing


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
        mag = abs(c)  # an int or a Fraction, which str() writes as N or N/D
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?\s*")  # no zero denominator
_MONOMIAL = re.compile(r"\s*([yt])(?:\^\s*([+-]?[0-9]+))?\s*")
_TERM_SIGN = re.compile(r" ([+-])")


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # the patterns admit only digits: int()'s digit limit
        raise InvalidInput(f"integer of {len(digits)} digits is too long") from None


def parse_rational(text: str) -> int | Fraction:
    """A rational literal [+-]N or [+-]N/D in decimal digits, as the renderer writes it."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise InvalidInput(f"bad rational {text!r}")
    num = _int(match[1])
    return num if match[2] is None else Fraction(num, _int(match[2]))


def parse_bilaurent(text: str) -> BiLaurent:
    """Parse the canonical rendering back into a BiLaurent polynomial.

    Terms are split at a sign that follows a space, factors at '*'; a
    factor is y or t with an optional integer exponent, or a rational.
    """
    text = text.strip()
    # a leading sign needs no space before it; a text without one gets "+"
    pieces = _TERM_SIGN.split((" " if text[:1] in ("+", "-") else " +") + text)
    terms: dict = {}
    for sign, chunk in zip(pieces[1::2], pieces[2::2]):
        coeff, exps = 1, [0, 0]  # the y- and the t-exponent
        for factor in chunk.split("*"):
            var = _MONOMIAL.fullmatch(factor)
            if var is None:
                coeff *= parse_rational(factor)
            else:
                exps[var[1] == "t"] += _int(var[2] or "1")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + (coeff if sign == "+" else -coeff)
    return BiLaurent._of({k: c.numerator if c.denominator == 1 else c for k, c in terms.items() if c})


def parse_laurent(text: str) -> LaurentPoly:
    terms = parse_bilaurent(text)._terms  # exponent pairs (y, t)
    if any(te for _, te in terms):
        raise InvalidInput(f"unexpected t-power in y-polynomial: {text!r}")
    return LaurentPoly._of({ye: c for (ye, _), c in terms.items()})
