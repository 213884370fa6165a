"""Dynkin-series BCH products: the reference the group model is checked against.

quiverdt.scattering folds path-ordered products in an associative model
of the unipotent group, whose log is ``alg.log(alg.path_product(...))``.
The functions here compute the same logarithms from the Lie bracket
alone, by the Dynkin expansion of log(exp(a) exp(b)), which the finite
grading truncates.
``SquareFreeLie`` is the {0,1}-vector grading of the auxiliary lattice,
where any bracket leaving the square-free region vanishes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from quiverdt.scattering import GradedLie, lie_add, lie_scale


@dataclass(frozen=True)
class SquareFreeLie(GradedLie):
    """GradedLie supported on the nonzero {0,1}-vectors; build with square_free."""

    def in_support(self, n) -> bool:
        return all(c <= 1 for c in n) and super().in_support(n)


def square_free(form) -> SquareFreeLie:
    """The {0,1}-graded algebra of the skew form (total dimension <= rank)."""
    return SquareFreeLie(form=form, degree_bound=len(form))


def _block_sequences(max_total: int):
    """Sequences of (r_i, s_i) blocks, each nonzero, with at most max_total letters."""

    def rec(remaining):
        for r in range(remaining + 1):
            for s in range(remaining - r + 1):
                if r + s == 0:
                    continue
                head = ((r, s),)
                yield head
                for tail in rec(remaining - r - s):
                    yield head + tail

    yield from rec(max_total)


def bch_log_product(alg: GradedLie, a: dict, b: dict) -> dict:
    """log(exp(a) exp(b)) by the Dynkin expansion; finite by the grading bound."""
    a = alg.element(a)
    b = alg.element(b)
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    letters = (a, b)
    word_values: dict = {(0,): a, (1,): b}

    def word_value(word: tuple) -> dict:
        value = word_values.get(word)
        if value is None:
            inner = word_value(word[1:])
            value = alg.bracket(letters[word[0]], inner) if inner else {}
            word_values[word] = value
        return value

    result: dict = {}
    for blocks in _block_sequences(alg.degree_bound):
        word = tuple(
            letter for r, s in blocks for letter in (0,) * r + (1,) * s
        )
        value = word_value(word)
        if not value:
            continue
        n = len(blocks)
        weight = Fraction((-1) ** (n - 1), n * len(word))
        for r, s in blocks:
            weight /= math.factorial(r) * math.factorial(s)
        result = lie_add(result, lie_scale(value, weight))
    return result


def path_ordered_product(alg: GradedLie, crossings) -> dict:
    """log of the ordered product of exp(sign * element) over the crossings.

    Crossings are given in the order they are met; later crossings
    multiply on the left.
    """
    log = {}
    for element, sign in crossings:
        log = bch_log_product(alg, lie_scale(alg.element(element), sign), log)
    return log
