"""The pure-Python Philox generator against numpy's Generator(Philox(key)).integers.

The perturbation draws, ``random_instance`` and so every CLI byte rest on
this stream.  The differential tests need numpy and skip without it; the
pinned vectors and the scripted Lemire tests guard the stream without it.
"""

import random

import pytest

from quiverdt.lattice import PERTURBATION_DENOM, Philox, _lemire, _rng

# The draws' own ranges (lattice, checks), ranges where Lemire's rejection
# step fires often (rng + 1 = 3 * 2^30 rejects a quarter of the words,
# 2^31 + 1 almost half, 2^62 + 2^63 a quarter of the 64-bit words), the
# edges of the 32-bit path and 64-bit ranges up to the full int64 range.
RANGES = [
    (0, 1), (5, 6),
    (-PERTURBATION_DENOM, PERTURBATION_DENOM + 1),
    (-9, 10), (1, 4), (-5, 6), (-4, 5), (-3, 4), (-2, 3), (0, 5),
    (0, 3 << 30), (0, (1 << 31) + 1),
    (0, (1 << 32) - 1), (0, 1 << 32), (0, (1 << 32) + 1),
    (-(1 << 40), 1 << 40),
    (-(1 << 63), 1 << 62), (-(1 << 63), (1 << 63) - 1), (-(1 << 63), 1 << 63),
]

PINNED_RANGES = [
    (-PERTURBATION_DENOM, PERTURBATION_DENOM + 1), (-9, 10), (1, 4), (0, 1), (-5, 6),
    (0, 3 << 30), (0, 3 << 30), (0, 3 << 30), (0, 3 << 30),
    (0, (1 << 31) + 1), (0, (1 << 31) + 1), (0, (1 << 31) + 1),
    (0, (1 << 32) - 1), (0, 1 << 32), (0, (1 << 32) + 1),
    (-(1 << 40), 1 << 40), (-9, 10),
    (-(1 << 63), 1 << 62), (-(1 << 63), 1 << 62), (-(1 << 63), 1 << 62),
    (-(1 << 63), 1 << 63), (-3, 4), (0, 3 << 30), (0, 3 << 30), (0, 3 << 30),
]

# numpy 2.4's draws over PINNED_RANGES for the key of _rng(0, "omega", 0)
# and for a literal key.
PINNED = {
    "omega-0": [
        4784, 0, 3, 0, 3, 1167857525, 647155145, 2594072279, 1639659672, 1713943782,
        1192606071, 445260064, 3048428593, 3298618255, 3100617976, -265604372443, -1,
        -868855495103700741, -1778017027892908385, -4230860467923518080,
        -5635318149149015371, -1, 2541732825, 436922400, 1689051114,
    ],
    "literal": [
        11947, -4, 1, 0, 3, 1517682066, 2159223005, 2046338911, 1525239412, 770728636,
        793888656, 176410725, 2301112090, 400521002, 4294689604, 834171670876, 2,
        -32477635059327005, -6588190659302350969, 2149345421399978169,
        5108664987295513279, 0, 1639306187, 84079237, 1738950926,
    ],
}
LITERAL_KEY = 0x0123456789ABCDEFFEDCBA9876543210


def _numpy_generator(key):
    np = pytest.importorskip("numpy")
    return np.random.Generator(np.random.Philox(key=key))


def test_pinned_streams():
    for name, rng in (("omega-0", _rng(0, "omega", 0)), ("literal", Philox(LITERAL_KEY))):
        assert [rng.integers(low, high) for low, high in PINNED_RANGES] == PINNED[name], name


def test_draws_are_python_ints():
    rng = _rng(3, "instance", 6)
    assert all(type(rng.integers(low, high)) is int for low, high in RANGES)


def test_matches_numpy_over_many_keys():
    keys = random.Random(2021)
    for _ in range(600):
        key = keys.getrandbits(128)
        ours, theirs = Philox(key), _numpy_generator(key)
        for low, high in keys.choices(RANGES, k=40):
            assert ours.integers(low, high) == int(theirs.integers(low, high)), (hex(key), low, high)


@pytest.mark.parametrize("low, high", RANGES)
def test_matches_numpy_on_each_range(low, high):
    for key in (0, 1, (1 << 128) - 1, LITERAL_KEY):
        ours, theirs = Philox(key), _numpy_generator(key)
        assert [ours.integers(low, high) for _ in range(64)] == [
            int(theirs.integers(low, high)) for _ in range(64)
        ]


def test_32_and_64_bit_draws_interleaved():
    # A 64-bit draw takes a whole word and leaves the kept 32-bit half alone.
    pattern = [32, 64, 32, 32, 64, 64, 32, 64, 32, 32, 32, 64] * 6
    ranges = {32: (-9, 10), 64: (-(1 << 40), 1 << 40)}
    for key in range(20):
        ours, theirs = Philox(key), _numpy_generator(key)
        for bits in pattern:
            low, high = ranges[bits]
            assert ours.integers(low, high) == int(theirs.integers(low, high)), (key, bits)


def _word_with_leftover(leftover: int, excl: int, bits: int) -> int:
    """The word x with x * excl = leftover mod 2^bits (excl odd)."""
    return leftover * pow(excl, -1, 1 << bits) % (1 << bits)


@pytest.mark.parametrize("bits, rng", [(32, 1 << 31), (32, 18), (64, 1 << 63), (64, (1 << 40) - 2)])
def test_lemire_threshold_is_exact(bits, rng):
    excl = rng + 1
    threshold = (2 ** bits - excl) % excl
    assert threshold > 1
    accepted = _word_with_leftover(threshold, excl, bits)
    rejected = _word_with_leftover(threshold - 1, excl, bits)
    words = iter([accepted, 7])
    assert _lemire(words.__next__, bits, rng) == accepted * excl >> bits
    assert next(words) == 7  # one word taken
    words = iter([rejected, accepted])
    assert _lemire(words.__next__, bits, rng) == accepted * excl >> bits


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (-(1 << 63) - 1, 0), (0, (1 << 63) + 1)])
def test_empty_or_out_of_int64_ranges_raise(low, high):
    with pytest.raises(ValueError):
        Philox(0).integers(low, high)
