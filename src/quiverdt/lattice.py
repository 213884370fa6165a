"""Quivers, dimension vectors, skew forms and exact genericity sampling.

The auxiliary rank-r lattice attached to a decomposition gamma_1..gamma_r
is handled through bitmasks: the subset J of {1..r} is the integer whose
bit i-1 is set iff i is in J, and e_J is the corresponding {0,1}-vector.
All genericity conditions are exact sign tests.  Every pairing of
{0,1}-vectors in the package is read off subset sums, one addition per
mask (``subset_sums``).  For a skew M, M(e_L, e_L) = 0, so
M(e_L, e_{J minus L}) = M(e_L, e_J): the pairings of the splits of J are
the subset sums of the row sums M(e_i, e_J), which is how ``flow`` and
the joint check read them.  The pairings of disjoint masks A, B are
subset sums of the row e_A^T M over the complement of A
(``_disjoint_pairings``, 3^r entries).

The perturbation draws are dyadic, with denominator PERTURBATION_DENOM *
2^k, and exist only as integers: an omega draw eta + 2^-k R is W = d eta
+ R over d = PERTURBATION_DENOM 2^k (``_omega_numerators``), a start point
its numerators over one denominator (``_beta_numerators``).  ``flow``
evaluates these integers as they are, since positive multiples of omega
and of the start point give the same flow.  ``Philox`` draws them, numpy's
Philox ``integers`` stream in pure Python.  ``AuxLattice`` requires an
integral eta, which fixes the shrink exponent of the omega draws in closed
form (k0 = 8 for r <= 27), and makes one table of W-pairings at k0 the
whole U^eta test: W(A, B) is R(A, B) where eta(A, B) = 0 and has eta's
sign elsewhere (see ``_omega_numerators``).  ``flow._first_generic``
certifies a draw by evaluating the flow tree formula on it and moves to
the next one on failure.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import parse_rational
from .errors import InvalidInput, NotGenericAlpha, NotOnWall

PERTURBATION_DENOM = 2 ** 16
MAX_VERTICES = 100  # largest vertex count a quiver file may declare


# ---------------------------------------------------------------------------
# quivers and forms


@dataclass(frozen=True)
class Quiver:
    """Finite directed graph; arrow_counts[i][j] arrows from vertex i to j."""

    arrow_counts: tuple

    def __post_init__(self):
        n = len(self.arrow_counts)
        for row in self.arrow_counts:
            if len(row) != n:
                raise InvalidInput("arrow count matrix must be square")
            if any(a < 0 for a in row):
                raise InvalidInput("arrow counts must be nonnegative")

    @property
    def vertex_count(self) -> int:
        return len(self.arrow_counts)

    @staticmethod
    def from_arrows(vertex_count: int, arrows) -> "Quiver":
        counts = [[0] * vertex_count for _ in range(vertex_count)]
        for i, j, k in arrows:
            counts[i][j] += k
        return Quiver(tuple(tuple(row) for row in counts))

    @staticmethod
    def kronecker(m: int) -> "Quiver":
        """Two vertices, m arrows from the first to the second."""
        return Quiver(((0, m), (0, 0)))


def check_skew(matrix, name: str) -> None:
    """Raise InvalidInput unless the matrix is square and skew-symmetric."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or any(
        matrix[i][j] != -matrix[j][i] for i in range(n) for j in range(i, n)
    ):
        raise InvalidInput(f"{name} is not skew-symmetric")


@dataclass(frozen=True)
class SkewForm:
    """Integer skew-symmetric bilinear form on Z^n."""

    matrix: tuple

    def __post_init__(self):
        check_skew(self.matrix, "matrix")

    def pair(self, g1, g2) -> int:
        return sum(
            self.matrix[i][j] * g1[i] * g2[j]
            for i in range(len(g1))
            for j in range(len(g2))
            if self.matrix[i][j]
        )


def euler_skew(q: Quiver) -> SkewForm:
    """Antisymmetrized arrow-count form <g, g'> = sum (a_ij - a_ji) g_i g'_j."""
    a = q.arrow_counts
    n = q.vertex_count
    return SkewForm(tuple(tuple(a[i][j] - a[j][i] for j in range(n)) for i in range(n)))


# ---------------------------------------------------------------------------
# dimension vectors and covectors


def is_positive_dimvec(gamma) -> bool:
    return all(c >= 0 for c in gamma) and any(c > 0 for c in gamma)


def dot(theta, gamma):
    return sum(t * g for t, g in zip(theta, gamma))


def _collinear(a, b) -> bool:
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))


def _iter_box(gamma):
    """All integer vectors 0 <= v <= gamma componentwise, excluding zero."""
    n = len(gamma)
    v = [0] * n
    while True:
        i = 0
        while i < n and v[i] == gamma[i]:
            v[i] = 0
            i += 1
        if i == n:
            return
        v[i] += 1
        yield tuple(v)


def is_gamma_generic(theta, gamma) -> bool:
    """True iff theta kills no class 0 < gamma' <= gamma not collinear with gamma.

    Only componentwise-dominated classes can occur in decompositions of
    gamma, so this finite box check suffices for everything computed here.
    """
    if dot(theta, gamma) != 0:
        return False
    for gp in _iter_box(gamma):
        if _collinear(gp, gamma):
            continue
        if dot(theta, gp) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# subset sums over the auxiliary lattice


def subset_sums(values, start=0) -> list:
    """sums[m] = start + the sum of values[i] over the bits i of m, for every m < 2^len(values).

    The list doubles once per value, so each entry costs one addition:
    sums[m] = sums[m without its highest bit] + values[that bit].
    """
    sums = [start]
    for v in values:
        sums += [s + v for s in sums]
    return sums


# ---------------------------------------------------------------------------
# the auxiliary lattice


@dataclass(frozen=True)
class AuxLattice:
    """Rank-r lattice with basis mapped to the classes gamma_1..gamma_r.

    eta is the pulled-back integer skew form (int or integral Fraction
    entries), alpha the pulled-back stability point (int or Fraction
    entries); alpha(e_I) = 0 always holds.
    """

    gammas: tuple
    eta: tuple
    alpha: tuple

    def __post_init__(self):
        r = len(self.gammas)
        if r == 0:
            raise InvalidInput("the auxiliary lattice needs at least one class")
        if len(self.eta) != r or len(self.alpha) != r:
            raise InvalidInput("inconsistent auxiliary lattice data")
        check_skew(self.eta, "eta")
        if not all(isinstance(x, int) or isinstance(x, Fraction) and x.denominator == 1
                   for row in self.eta for x in row):
            raise InvalidInput("eta needs integral entries")
        if not all(isinstance(a, (int, Fraction)) for a in self.alpha):
            raise InvalidInput("alpha needs int or Fraction entries")
        if sum(self.alpha) != 0:
            raise NotOnWall("alpha does not annihilate e_I")

    @property
    def r(self) -> int:
        return len(self.gammas)


class Pullback:
    """The Euler form and one stability point, pulled back along e_i -> gamma_i.

    theta is held as integer numerators over one denominator c, so
    alpha_i = theta(gamma_i) is an int dot product, divided by c only when
    c != 1: it equals the Fraction dot product.  The column M gamma and
    the alpha of a class are formed once, however many decompositions use it.
    """

    def __init__(self, q: Quiver, theta):
        theta = tuple(Fraction(x) for x in theta)
        if len(theta) != q.vertex_count:
            raise InvalidInput("stability parameter has wrong length")
        self.denominator = math.lcm(*(t.denominator for t in theta))
        self.numerators = tuple(int(t * self.denominator) for t in theta)
        self.matrix = euler_skew(q).matrix
        self._classes: dict = {}

    def _class(self, g):
        data = self._classes.get(g)
        if data is None:
            a, c = dot(self.numerators, g), self.denominator
            data = self._classes[g] = (tuple(dot(row, g) for row in self.matrix),
                                       a if c == 1 else Fraction(a, c))
        return data

    def theta_of(self, g):
        """theta(g), an int when it is integral."""
        return self._class(g)[1]

    def aux(self, gammas) -> AuxLattice:
        """The auxiliary lattice of classes gamma_i summing to a class on the wall."""
        data = [self._class(g) for g in gammas]
        eta = tuple(tuple(dot(gi, column) for column, _ in data) for gi in gammas)
        return AuxLattice(gammas=tuple(gammas), eta=eta, alpha=tuple(a for _, a in data))


def build_aux(q: Quiver, gammas, theta) -> AuxLattice:
    """Pull back the Euler form and the stability point along e_i -> gamma_i."""
    gammas = tuple(tuple(g) for g in gammas)
    for g in gammas:
        if len(g) != q.vertex_count or not is_positive_dimvec(g):
            raise InvalidInput(f"not a positive dimension vector: {g}")
    pullback = Pullback(q, theta)
    total = tuple(sum(g[i] for g in gammas) for i in range(q.vertex_count))
    if pullback.theta_of(total) != 0:
        raise NotOnWall(f"theta({total}) = {pullback.theta_of(total)} != 0")
    return pullback.aux(gammas)


def integral_multiple(values) -> tuple:
    """(c, c values) for int or Fraction values, c the lcm of their denominators."""
    c = math.lcm(*(x.denominator for x in values))
    return c, [int(x * c) for x in values]


def alpha_is_generic(eta, alpha) -> bool:
    """Finite (I, eta)-genericity test on a point of the wall e_I^perp.

    alpha must not vanish on e_J' for any proper nonempty J' whose pairing
    eta(e_I, e_J') is nonzero.
    """
    r = len(alpha)
    full = (1 << r) - 1
    pairings = subset_sums([sum(column) for column in zip(*eta)])  # eta(e_I, e_m) per mask m
    sums = subset_sums(integral_multiple(alpha)[1])  # zero exactly where alpha's sums are
    return not any(pairings[m] != 0 and sums[m] == 0 for m in range(1, full))


# ---------------------------------------------------------------------------
# seeded exact perturbation sampling


_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1


class Philox:
    """Philox4x64-10 and numpy's bounded-integer path, in Python ints.

    ``Philox(key).integers(low, high)`` returns what numpy's
    ``Generator(Philox(key=key)).integers(low, high)`` returns, call for
    call.  The key is two little-endian 64-bit words; the 256-bit counter
    starts at 0 and is bumped before each four-word block.  A 32-bit draw takes the low half
    of a word and keeps the high half for the next 32-bit draw; 64-bit
    draws in between leave it kept.
    """

    def __init__(self, key: int):
        self._key = (key & _MASK64, key >> 64 & _MASK64)
        self._counter = 0
        self._block = []  # unread words of the current block, last word first
        self._half = None  # high half kept by the last 32-bit draw

    def _next64(self) -> int:
        if not self._block:
            self._counter += 1
            x0, x1, x2, x3 = (self._counter >> s & _MASK64 for s in (0, 64, 128, 192))
            k0, k1 = self._key
            for _ in range(10):
                p0, p1 = 0xD2E7470EE14C6C93 * x0, 0xCA5A826395121157 * x2
                x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ x3 ^ k1, p0 & _MASK64
                k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
            self._block = [x3, x2, x1, x0]
        return self._block.pop()

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high), both within int64."""
        if not -(1 << 63) <= low < high <= 1 << 63:
            raise ValueError(f"integers({low}, {high}): need -2^63 <= low < high <= 2^63")
        rng = high - 1 - low
        if rng == 0:
            return low
        if rng < _MASK32:
            return low + _lemire(self._next32, 32, rng)
        if rng == _MASK32:
            return low + self._next32()
        if rng < _MASK64:
            return low + _lemire(self._next64, 64, rng)
        return low + self._next64()


def _lemire(next_word, bits: int, rng: int) -> int:
    """Lemire's unbiased draw in [0, rng] from ``bits``-bit words, rng < 2^bits - 1.

    It is x (rng + 1) >> bits for the first word x whose x (rng + 1) mod
    2^bits is not below the threshold (2^bits - 1 - rng) mod (rng + 1).
    """
    excl, mask = rng + 1, (1 << bits) - 1
    threshold = (mask - rng) % excl
    m = next_word() * excl
    while m & mask < threshold:
        m = next_word() * excl
    return m >> bits


def _rng(seed: int, *labels) -> Philox:
    """Philox generator keyed by a blake2b tag of (seed, labels): numpy's stream."""
    tag = b"|".join([str(seed).encode()] + [str(x).encode() for x in labels])
    key = int.from_bytes(hashlib.blake2b(tag, digest_size=16).digest(), "big")
    return Philox(key)


def _random_numerator(rng) -> int:
    """Numerator of a dyadic draw in [-1, 1] over PERTURBATION_DENOM."""
    return rng.integers(-PERTURBATION_DENOM, PERTURBATION_DENOM + 1)


def _random_skew(rng, r: int):
    """Skew matrix of draw numerators, filled above the diagonal row by row."""
    m = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            x = _random_numerator(rng)
            m[i][j] = x
            m[j][i] = -x
    return m


def _disjoint_pairings(matrix, r: int) -> list:
    """e_A^T M e_B for every pair of disjoint nonempty masks A, B < 2^r, A first then B ascending.

    The rows e_A^T M are the subset sums of the rows of M, and the pairings
    of one of them are its subset sums over the bits of the complement of
    A: 3^r entries in all, one addition each.
    """
    rows = [[0] * r]
    for mrow in matrix:
        rows += [[x + y for x, y in zip(row, mrow)] for row in rows]
    pairings = []
    for a in range(1, 1 << r):
        pairings += subset_sums([x for j, x in enumerate(rows[a]) if not a >> j & 1])[1:]
    return pairings


def _shrink_exponent(base, pert, start: int = 8) -> int:
    """Smallest k >= start with |p| < |b| 2^k on every pair (b, p) with b != 0.

    |p| < |b| 2^k holds exactly when floor(|p| / |b|) < 2^k, that is when
    the floor has at most k bits.
    """
    worst = max((abs(p) // abs(b) for b, p in zip(base, pert) if b), default=0)
    return max(start, worst.bit_length())


def _omega_numerators(aux: AuxLattice, seed: int, budget: int = 1000):
    """Yield each candidate omega = eta + 2^-k R as (W, d): omega = W / d, all in ints.

    Each of the ``budget`` resamples draws a skew R of numerators in
    [-PERTURBATION_DENOM, PERTURBATION_DENOM], and the draw at shrink
    exponent k is W = d eta + R with d = PERTURBATION_DENOM 2^k, yielded
    for eight successive k from k0.

    k0 keeps the signs of eta on every pair where eta is nonzero (U^eta).
    In e_A^T R e_B the terms R_ij with i and j both in A & B cancel (R is
    skew), which leaves ab + bc + ca <= r^2 / 3 terms of size at most
    PERTURBATION_DENOM, with a = |A - B|, b = |B - A| and c = |A & B|; a
    nonzero integer eta-pairing is at least 1.  So 2^k0 > floor(r^2 / 3)
    suffices, and k0 = 8 for r <= 27.

    omega must not vanish on a disjoint pair where eta does (U_J).  One
    table of the pairings of W at k0 tests that: where eta(A, B) = 0 the
    pairing W(A, B) is R(A, B), and where eta(A, B) != 0 it has the sign
    of eta, since |R(A, B)| < d |eta(A, B)|.  So a resample is skipped
    exactly when some disjoint W-pairing at k0 is zero, and then no k
    would do.  Membership in U_{I,alpha} is left to the caller.
    """
    if not alpha_is_generic(aux.eta, aux.alpha):
        raise NotGenericAlpha(f"alpha = {aux.alpha} fails the finite genericity test")
    r = aux.r
    eta = [[int(x) for x in row] for row in aux.eta]
    k0 = max(8, (r * r // 3).bit_length())
    for attempt in range(budget):
        numer = _random_skew(_rng(seed, "omega", attempt), r)
        for k in range(k0, k0 + 8):
            d = PERTURBATION_DENOM << k
            form = [[d * e + x for e, x in zip(eta_row, row)] for eta_row, row in zip(eta, numer)]
            if k == k0 and 0 in _disjoint_pairings(form, r):
                break
            yield form, d


def _beta_numerators(aux: AuxLattice, seed: int, budget: int = 1000):
    """Yield each candidate start point as (B, d): the point is B / d, all in ints.

    alpha = A / c comes first, with c the lcm of its denominators.  Each
    of the ``budget`` resamples then draws delta, numerators over
    PERTURBATION_DENOM with delta(e_I) = 0, and yields alpha +
    delta / (PERTURBATION_DENOM 2^k) as B = PERTURBATION_DENOM 2^k A +
    c delta over d = c PERTURBATION_DENOM 2^k, for eight successive k from
    the smallest that keeps the signs of alpha on every subset where alpha
    is nonzero.
    """
    if not alpha_is_generic(aux.eta, aux.alpha):
        raise NotGenericAlpha(f"alpha = {aux.alpha} fails the finite genericity test")
    r = aux.r
    c, alpha = integral_multiple(aux.alpha)
    yield alpha, c

    # alpha over the draws' denominator, so that the numerators compare directly
    alpha_base = [a * PERTURBATION_DENOM for a in subset_sums(alpha)]
    for attempt in range(budget):
        rng = _rng(seed, "beta", attempt)
        delta = [c * _random_numerator(rng) for _ in range(r - 1)]
        delta.append(-sum(delta))
        k0 = _shrink_exponent(alpha_base, subset_sums(delta))
        for k in range(k0, k0 + 8):
            scale = PERTURBATION_DENOM << k
            yield [scale * a + x for a, x in zip(alpha, delta)], c * scale


# ---------------------------------------------------------------------------
# text formats


def _int_fields(fields, lineno: int) -> list:
    try:
        return [int(x) for x in fields]
    except ValueError as exc:
        raise InvalidInput(f"line {lineno}: expected integers, got {' '.join(fields)!r}") from exc


def parse_quiver(text: str) -> Quiver:
    """Quiver file format: 'vertices <k>' then 'arrow <i> <j> <count>' lines.

    k is at most MAX_VERTICES, checked before anything of size k is built.
    """
    vertex_count = None
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices" and len(parts) == 2:
            if vertex_count is not None:
                raise InvalidInput(f"line {lineno}: repeated 'vertices' statement")
            (vertex_count,) = _int_fields(parts[1:], lineno)
            if not 1 <= vertex_count <= MAX_VERTICES:
                raise InvalidInput(f"line {lineno}: vertex count must be between 1 and {MAX_VERTICES}")
        elif parts[0] == "arrow" and len(parts) == 4:
            if vertex_count is None:
                raise InvalidInput(f"line {lineno}: 'arrow' before 'vertices'")
            i, j, k = _int_fields(parts[1:], lineno)
            if not (1 <= i <= vertex_count and 1 <= j <= vertex_count) or k < 0:
                raise InvalidInput(f"line {lineno}: arrow out of range")
            arrows.append((i - 1, j - 1, k))
        else:
            raise InvalidInput(f"line {lineno}: unrecognized statement {line!r}")
    if vertex_count is None:
        raise InvalidInput("missing 'vertices' statement")
    return Quiver.from_arrows(vertex_count, arrows)


def parse_dimvec(text: str) -> tuple:
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad dimension vector {text!r}") from exc
    if not vec:
        raise InvalidInput("empty dimension vector")
    return vec


def parse_covector(text: str) -> tuple:
    try:
        return tuple(parse_rational(x) for x in text.split(","))
    except InvalidInput as exc:
        raise InvalidInput(f"bad covector {text!r}") from exc
