"""Rational DT invariants from attractor data.

The assembly sums over multisets of classes: each decomposition of gamma
contributes its universal flow-tree coefficient times the product of the
rational attractor values of its parts, divided by the order of the
multiset's symmetry group.  Theta is pulled back once per call
(``lattice.Pullback``): as integer numerators over one denominator c, so
each alpha_i is an int dot product, a Fraction only when c != 1, and the
Euler column M gamma_p of each part p is formed once.  The sum runs per
weight denominator: a decomposition D weighs w(D) = prod_p Omega_bar(p) /
|Aut D|, a canonical RatFunc with integer pair (N, Q), and the numerators
F(D) N of all D with one Q are added as polynomials; only those few sums
are normalized.  Canonical forms are unique, so the result has the same
pair as the term-by-term sum.  Multicover conversion between integer-level
and rational invariants runs in both directions; the inverse direction
asserts integrality.

Universal coefficients depend only on (r, pulled-back form, sign pattern
of the pulled-back stability point), so they are cached under exactly
that key, in memory and optionally on disk.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import tempfile
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import BiLaurent, LaurentPoly, RatFunc, kappa, parse_bilaurent, parse_laurent
from .errors import InvalidInput, NotGenericTheta, NotOnWall, NotPolynomial
from .flow import flow_tree_scalar
from .lattice import (
    AuxLattice,
    Pullback,
    Quiver,
    _iter_box,
    is_gamma_generic,
    is_positive_dimvec,
    parse_dimvec,
    subset_sums,
)

# Largest |y-exponent| of an attractor file entry: RatFunc gcds run over dense y-lists, so
# `dt` time grows about quadratically in it (0.37, 3.7 and 37 s at 1 000, 4 000 and 16 000).
MAX_EXPONENT = 100
# Most digits of an attractor coefficient's numerator or denominator: values print only below 4 300 digits.
MAX_DIGITS = 100
_ENTRY = re.compile(r"gamma\s*=([^;=]*);\s*omega_star\s*=([^;=]*)")


def qbracket(k: int) -> LaurentPoly:
    """[k]_y = y^{k-1} + y^{k-3} + ... + y^{1-k} = (-1)^k kappa(k)."""
    if k < 1:
        raise InvalidInput("qbracket needs k >= 1")
    return (-1) ** k * kappa(k)


def _multicover_factor(k: int) -> RatFunc:
    """1 / (k [k]_y), the weight of the k-fold cover."""
    return RatFunc(1, qbracket(k).to_bilaurent() * k)


def _divisors_of_vector(gamma):
    """k >= 1 with gamma/k still integral, with the quotient vector."""
    g = math.gcd(*[abs(c) for c in gamma])
    for k in range(1, g + 1):
        if g % k == 0:
            yield k, tuple(c // k for c in gamma)


class AttractorTable:
    """Attractor inputs: explicit entries plus the acyclic default rule."""

    def __init__(self, entries=None, acyclic_default: bool = False):
        self.entries = {}
        if entries:
            for gamma, value in entries.items():
                if not isinstance(value, RatFunc):
                    value = RatFunc(value)
                self.entries[tuple(gamma)] = value
        self.acyclic_default = acyclic_default
        self._rational_cache = {}

    def omega_star(self, gamma) -> RatFunc:
        gamma = tuple(gamma)
        if gamma in self.entries:
            return self.entries[gamma]
        if self.acyclic_default:
            if sum(gamma) == 1 and all(c in (0, 1) for c in gamma):
                return RatFunc.one()
        return RatFunc.zero()

    def rational_value(self, gamma) -> RatFunc:
        """Multicover-corrected rational attractor value of the class."""
        gamma = tuple(gamma)
        cached = self._rational_cache.get(gamma)
        if cached is not None:
            return cached
        total = RatFunc.zero()
        for k, base in _divisors_of_vector(gamma):
            contrib = self.omega_star(base)
            if contrib.is_zero():
                continue
            total = total + _multicover_factor(k) * contrib.substitute_power(k)
        self._rational_cache[gamma] = total
        return total

    @staticmethod
    def parse(text: str) -> "AttractorTable":
        """One entry per line: 'gamma = 1,2 ; omega_star = <poly>'.

        A line 'default acyclic' switches on the unit-vector default.  A
        y-exponent above MAX_EXPONENT in absolute value, or a coefficient
        whose numerator or denominator has more than MAX_DIGITS digits, is
        invalid input.
        """
        entries = {}
        acyclic = False
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "default acyclic":
                acyclic = True
                continue
            entry = _ENTRY.fullmatch(line)
            if entry is None:
                raise InvalidInput(f"line {lineno}: expected 'gamma = ... ; omega_star = ...'")
            gamma = parse_dimvec(entry[1].strip())
            if not is_positive_dimvec(gamma):
                raise InvalidInput(f"line {lineno}: {gamma} is not a positive class")
            if gamma in entries:
                raise InvalidInput(f"line {lineno}: class {gamma} is listed twice")
            try:
                value = parse_bilaurent(entry[2])
            except InvalidInput as exc:
                raise InvalidInput(f"line {lineno}: bad omega_star value: {exc}") from exc
            widest = max((abs(ye) for ye, _ in value.terms()), default=0)
            if widest > MAX_EXPONENT:
                raise InvalidInput(f"line {lineno}: |y-exponent| {widest} is above {MAX_EXPONENT}")
            if any(max(abs(c.numerator), c.denominator) >= 10 ** MAX_DIGITS for c in value.terms().values()):
                raise InvalidInput(f"line {lineno}: a coefficient has more than {MAX_DIGITS} digits")
            entries[gamma] = RatFunc(value)
        return AttractorTable(entries, acyclic_default=acyclic)


def rational_from_integer(table: dict) -> dict:
    """Integer-level invariants to rational ones over the divisor closure.

    The output keeps explicit zeros on the whole closure, so it is always
    a valid (divisor-closed) input for integer_from_rational.
    """
    attractor = AttractorTable(table)
    closure = {base for gamma in attractor.entries for _, base in _divisors_of_vector(gamma)}
    return {
        gamma: attractor.rational_value(gamma)
        for gamma in sorted(closure, key=lambda g: (sum(g), g))
    }


def integer_from_rational(table: dict) -> dict:
    """Exact inverse of rational_from_integer; asserts the result is polynomial.

    Raises NotPolynomial when the input is inconsistent: either a divisor
    class of a listed class is missing (the table is not closed, so the
    multicover sum it claims to be cannot be reproduced) or the inversion
    leaves a nontrivial denominator.
    """
    table = {tuple(g): v for g, v in table.items()}
    for gamma in table:
        for k, base in _divisors_of_vector(gamma):
            if k > 1 and base not in table:
                raise NotPolynomial(
                    f"table lists {gamma} but not its divisor class {base}"
                )
    integer_values: dict = {}
    for gamma in sorted(table, key=lambda g: (sum(g), g)):
        value = table[gamma]
        for k, base in _divisors_of_vector(gamma):
            if k == 1:
                continue
            lower = integer_values.get(base)
            if lower is None or lower.is_zero():
                continue
            value = value - _multicover_factor(k) * RatFunc(lower.substitute_power(k))
        poly = value.to_bilaurent()
        if not poly.is_zero():
            integer_values[gamma] = poly
    return integer_values


@dataclass(frozen=True)
class Decomposition:
    """Multiset of positive classes summing to the target, canonically sorted."""

    parts: tuple

    @property
    def aut_order(self) -> int:
        order = 1
        for count in Counter(self.parts).values():
            order *= math.factorial(count)
        return order


def enumerate_decompositions(gamma, parts=None):
    """Every multiset of positive vectors summing to gamma, exactly once.

    ``parts`` restricts the allowed summands (used to skip classes with a
    vanishing attractor factor before any tree is enumerated).
    """
    gamma = tuple(gamma)
    if not is_positive_dimvec(gamma):
        raise InvalidInput(f"not a positive dimension vector: {gamma}")
    if parts is None:
        candidates = sorted(_iter_box(gamma), reverse=True)
    else:
        candidates = sorted(
            (tuple(p) for p in parts if all(c <= g for c, g in zip(p, gamma))),
            reverse=True,
        )
    zero = (0,) * len(gamma)

    def recurse(remaining, start):
        if remaining == zero:
            yield ()
            return
        for idx in range(start, len(candidates)):
            part = candidates[idx]
            if all(p <= rem for p, rem in zip(part, remaining)):
                rest = tuple(rem - p for rem, p in zip(remaining, part))
                for tail in recurse(rest, idx):
                    yield (part,) + tail

    for parts_tuple in recurse(gamma, 0):
        yield Decomposition(parts=parts_tuple)


class FCache:
    """Cache of universal coefficients keyed by (r, eta, alpha sign pattern).

    The key omits the sampled perturbation and the seed: the flow tree
    formula's value is a theorem-level invariant of the key.  A disk entry
    is one record of three lines, the key, the canonical polynomial text
    and an end marker, moved into place whole.  An entry whose key differs
    or whose record is incomplete or unparseable is recomputed.
    """

    def __init__(self, directory=None):
        self.memory: dict = {}
        self.directory = Path(directory) if directory else None
        if self.directory:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise InvalidInput(f"cannot create the cache directory {directory}: {exc}") from exc

    @staticmethod
    def key_for(aux: AuxLattice) -> str:
        sums = subset_sums(aux.alpha)[1:]
        signs = "".join("+" if s > 0 else ("-" if s < 0 else "0") for s in sums)
        eta_text = ";".join(",".join(str(x) for x in row) for row in aux.eta)
        return f"r={aux.r}|eta={eta_text}|signs={signs}"

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.directory / f"F-{digest}.txt"

    def get(self, key: str):
        if key in self.memory:
            return self.memory[key]
        if self.directory:
            try:
                lines = self._path(key).read_text().split("\n")
            except (OSError, ValueError):
                return None
            complete = len(lines) == 4 and lines[2:] == ["end", ""]
            if not complete or lines[0] != f"key {key}" or not lines[1].startswith("value "):
                return None
            try:
                poly = parse_laurent(lines[1][len("value "):])
            except InvalidInput:
                return None
            self.memory[key] = poly
            return poly
        return None

    def put(self, key: str, poly: LaurentPoly):
        self.memory[key] = poly
        if self.directory:
            fd, temp = tempfile.mkstemp(dir=self.directory, prefix=".F-", suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(f"key {key}\nvalue {poly.render()}\nend\n")
                os.replace(temp, self._path(key))
            except BaseException:
                os.unlink(temp)
                raise


def universal_coefficient(
    aux: AuxLattice,
    mode: str = "omega",
    seed: int = 0,
    budget: int = 1000,
    cache: FCache | None = None,
) -> LaurentPoly:
    """flow_tree_scalar with the theorem-backed cache in front."""
    if cache is None:
        return flow_tree_scalar(aux, mode=mode, seed=seed, budget=budget)
    key = FCache.key_for(aux)
    value = cache.get(key)
    if value is None:
        value = flow_tree_scalar(aux, mode=mode, seed=seed, budget=budget)
        cache.put(key, value)
    return value


def assemble_dt(
    q: Quiver,
    gamma,
    theta,
    table: AttractorTable,
    mode: str = "omega",
    seed: int = 0,
    budget: int = 1000,
    cache: FCache | None = None,
) -> RatFunc:
    """Rational DT invariant of gamma at theta from the attractor table."""
    gamma = tuple(gamma)
    theta = tuple(Fraction(x) for x in theta)
    if not is_positive_dimvec(gamma):
        raise InvalidInput(f"not a positive dimension vector: {gamma}")
    if len(theta) != q.vertex_count or len(gamma) != q.vertex_count:
        raise InvalidInput("gamma/theta length does not match the quiver")
    pullback = Pullback(q, theta)
    if pullback.theta_of(gamma) != 0:
        raise NotOnWall(f"theta(gamma) = {pullback.theta_of(gamma)} != 0")
    if not is_gamma_generic(pullback.numerators, gamma):
        shown = ", ".join(map(str, theta))
        raise NotGenericTheta(f"theta = ({shown}) is not generic for gamma = {gamma}")

    allowed_parts = [p for p in _iter_box(gamma) if not table.rational_value(p).is_zero()]
    numerators: dict = {}  # weight denominator -> sum of F(D) * weight numerator
    for decomp in enumerate_decompositions(gamma, parts=allowed_parts):
        aux = pullback.aux(decomp.parts)
        coeff = universal_coefficient(aux, mode=mode, seed=seed, budget=budget, cache=cache)
        if coeff.is_zero():
            continue
        weight = RatFunc(1, decomp.aut_order)
        for part in decomp.parts:
            weight = weight * table.rational_value(part)
        num, den = weight.pair
        numerators[den] = numerators.get(den, BiLaurent.zero()) + coeff.to_bilaurent() * num
    return sum((RatFunc.from_pair(num, den) for den, num in numerators.items()), RatFunc.zero())


def assemble_divisors(
    q: Quiver,
    gamma,
    theta,
    table: AttractorTable,
    mode: str = "omega",
    seed: int = 0,
    budget: int = 1000,
    cache: FCache | None = None,
) -> dict:
    """assemble_dt of gamma and of every class gamma / k, keyed by class, gamma first.

    The result is divisor-closed, so integer_from_rational inverts it.
    """
    gamma = tuple(gamma)
    if not is_positive_dimvec(gamma):
        raise InvalidInput(f"not a positive dimension vector: {gamma}")
    return {
        base: assemble_dt(q, base, theta, table, mode=mode, seed=seed, budget=budget, cache=cache)
        for _, base in _divisors_of_vector(gamma)
    }


def dt_integer_value(
    q: Quiver,
    gamma,
    theta,
    table: AttractorTable,
    mode: str = "omega",
    seed: int = 0,
    budget: int = 1000,
    cache: FCache | None = None,
) -> BiLaurent:
    """Integer-level DT invariant via multicover inversion over divisors of gamma.

    Raises NotPolynomial when the rational values do not invert to a
    Laurent polynomial.
    """
    gamma = tuple(gamma)
    rational = assemble_divisors(
        q, gamma, theta, table, mode=mode, seed=seed, budget=budget, cache=cache
    )
    return integer_from_rational(rational).get(gamma, BiLaurent.zero())
