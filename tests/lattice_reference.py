"""Pair-by-pair reference for the perturbation draws of ``quiverdt.lattice``.

``quiverdt.lattice`` reads every pairing e_A^T M e_B off subset-sum
tables.  This module keeps the definition it is checked against: each
pairing computed on its own with ``pair_masks`` / ``mask_sum`` over
Fractions, and the shrink exponent found by doubling until every listed
pair keeps its sign.
"""

from fractions import Fraction

from quiverdt.lattice import PERTURBATION_DENOM, _rng


def mask_indices(mask: int):
    """The indices i with bit i of mask set, in increasing order."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_sum(vec, mask: int):
    """The sum of vec over the indices of mask: vec(e_mask)."""
    return sum(vec[i] for i in mask_indices(mask))


def pair_masks(matrix, ma: int, mb: int):
    """Bilinear pairing of the {0,1}-vectors with supports ma and mb."""
    columns = list(mask_indices(mb))
    return sum(matrix[i][j] for i in mask_indices(ma) for j in columns)


def nonempty_masks(r: int):
    return range(1, 1 << r)


def alpha_is_generic(eta, alpha) -> bool:
    """alpha vanishes on no proper nonempty e_J' with eta(e_I, e_J') != 0."""
    r = len(alpha)
    full = (1 << r) - 1
    for m in range(1, full):
        if pair_masks(eta, full, m) != 0 and mask_sum(alpha, m) == 0:
            return False
    return True


def _random_fraction(rng) -> Fraction:
    return Fraction(int(rng.integers(-PERTURBATION_DENOM, PERTURBATION_DENOM + 1)), PERTURBATION_DENOM)


def _random_skew(rng, r: int):
    m = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            x = _random_fraction(rng)
            m[i][j] = x
            m[j][i] = -x
    return tuple(tuple(row) for row in m)


def min_shrink_exponent(base_pairs, perturb_pairs, start: int = 8) -> int:
    """Smallest k >= start with |perturb| / 2^k < |base| on every listed pair."""
    k = start
    for base, pert in zip(base_pairs, perturb_pairs):
        if base == 0:
            continue
        while abs(pert) >= abs(base) * (1 << k):
            k += 1
    return k


def omega_draws(aux, seed: int, budget: int = 1000):
    """eta + 2^-k R per resample, k the smallest that keeps eta's nonzero signs."""
    r = aux.r
    eta = aux.eta
    sign_pairs = []
    for ma in nonempty_masks(r):
        for mb in nonempty_masks(r):
            if mb <= ma:
                continue
            e = pair_masks(eta, ma, mb)
            if e != 0:
                sign_pairs.append((ma, mb, e))

    for attempt in range(budget):
        rng = _rng(seed, "omega", attempt)
        rmat = _random_skew(rng, r)
        k = min_shrink_exponent(
            [e for _, _, e in sign_pairs],
            [pair_masks(rmat, ma, mb) for ma, mb, _ in sign_pairs],
        )
        eps = Fraction(1, 1 << k)
        yield tuple(tuple(eta[i][j] + eps * rmat[i][j] for j in range(r)) for i in range(r))


def beta_draws(aux, seed: int, budget: int = 1000):
    """alpha, then alpha + 2^-k delta per resample, k the smallest that keeps alpha's nonzero signs."""
    r = aux.r
    yield tuple(aux.alpha)

    alpha_values = [(m, mask_sum(aux.alpha, m)) for m in nonempty_masks(r)]
    for attempt in range(budget):
        rng = _rng(seed, "beta", attempt)
        delta = [_random_fraction(rng) for _ in range(r - 1)]
        delta.append(-sum(delta))
        k = min_shrink_exponent(
            [a for _, a in alpha_values],
            [mask_sum(delta, m) for m, _ in alpha_values],
        )
        eps = Fraction(1, 1 << k)
        yield tuple(a + eps * d for a, d in zip(aux.alpha, delta))
