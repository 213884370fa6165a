"""Euclid-over-Fractions reference for the canonical form of ``RatFunc``.

``quiverdt.algebra`` stores a pair of integer polynomials, takes its gcds
over Z, cancels a sum only against the gcd of its two denominators and
skips the gcd where the canonical form already holds.  This module keeps
the definition its ``num`` / ``den`` views are checked against: for a
product-form num / den, Euclid over Q[y] on the denominator and every
t-slice of the numerator, division by the monic gcd, then scaling so that
the denominator's lowest term is the constant +1.

It also keeps the hand-written parser that ``parse_bilaurent`` replaced:
a character scan for the term signs, and ``Fraction(str)`` on every
coefficient.  On the renderer's language the two agree; the reference
also accepts Python's other rational literals (``0.5``, ``1e3``, ``1_0``).
"""

from fractions import Fraction

from quiverdt.algebra import BiLaurent
from quiverdt.errors import InvalidInput


def _divmod_y(a: dict, b: dict):
    """Quotient and remainder of polynomials in y given as {exp: coeff}, exps >= 0."""
    db = max(b)
    lb = Fraction(b[db])
    quo = {}
    rem = dict(a)
    while rem:
        dr = max(rem)
        if dr < db:
            break
        q = rem[dr] / lb
        quo[dr - db] = q
        for e, c in b.items():
            key = dr - db + e
            s = rem.get(key, 0) - q * c
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return quo, rem


def _gcd_poly_y(a: dict, b: dict) -> dict:
    """Monic gcd of two nonzero polynomials in y given as {exp: coeff}, exps >= 0."""
    while b:
        a, b = b, _divmod_y(a, b)[1]
    lc = Fraction(a[max(a)])
    return {e: c / lc for e, c in a.items()}


def _shift_down(p: dict):
    """(lowest exponent, p divided by y^lowest) for a nonzero {exp: coeff}."""
    lo = min(p)
    return lo, {e - lo: c for e, c in p.items()}


def _cancel_gcd(num: BiLaurent, den: BiLaurent):
    """Divide num and den by the gcd over Q[y] of den and every t-slice of num."""
    slices: dict = {}
    for (ye, te), c in num.terms().items():
        slices.setdefault(te, {})[ye] = c
    shifted = {te: _shift_down(p) for te, p in slices.items()}
    den_lo, den_p = _shift_down({ye: c for (ye, _), c in den.terms().items()})
    g = den_p
    for _, p in shifted.values():
        g = _gcd_poly_y(g, p)
        if len(g) == 1:
            return num, den
    quo = {
        (e + lo, te): c
        for te, (lo, p) in shifted.items()
        for e, c in _divmod_y(p, g)[0].items()
    }
    den_q = _divmod_y(den_p, g)[0]
    return BiLaurent(quo), BiLaurent({(e + den_lo, 0): c for e, c in den_q.items()})


def canonical_pair(num: BiLaurent, den: BiLaurent):
    """The canonical (num, den) of num / den, for a nonzero y-only den."""
    if num.is_zero():
        return num, BiLaurent.const(1)
    if len(den.terms()) > 1:
        num, den = _cancel_gcd(num, den)
    (ye, _), c = min(den.terms().items())  # the lexicographically smallest term
    if ye or c != 1:
        scale = BiLaurent.monomial(-ye, 0, Fraction(1) / c)
        num, den = num * scale, den * scale
    return num, den


def reference_parse_bilaurent(text: str) -> BiLaurent:
    """The former parser of the canonical rendering, kept as the differential reference."""
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
