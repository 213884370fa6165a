"""Property-based tests: input boundaries, rendering and the RatFunc canonical form.

The examples are drawn deterministically (``derandomize``) and kept few,
so the suite stays fast and every run checks the same cases.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdt.algebra import BiLaurent, RatFunc, parse_bilaurent
from quiverdt.cli import main

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_NOISE = st.text(alphabet="aegmorstvwy 0123456789-+*/^,;=#.", max_size=24)
_SMALL_INT = st.integers(min_value=-2, max_value=4)

_exponents = st.tuples(st.integers(-3, 3), st.integers(-2, 2))
_coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_bilaurent = st.builds(BiLaurent, st.dictionaries(_exponents, _coefficients, max_size=5))

# One wall point per class, on the wall and generic.
_JOBS = {
    1: [("1", "0"), ("2", "0")],
    2: [("1,1", "1,-1"), ("2,1", "1,-2"), ("1,2", "-2,1")],
    3: [("1,0,1", "1,0,-1"), ("1,1,1", "2,-1,-1")],
}
_ALL_JOBS = [job for jobs in _JOBS.values() for job in jobs]

_bad_quiver_line = st.one_of(
    st.builds("vertices {}".format, st.one_of(_SMALL_INT, _NOISE)),
    st.builds("arrow {} {} {}".format, _SMALL_INT, _SMALL_INT, st.one_of(_SMALL_INT, _NOISE)),
    _NOISE,
)


def _class_text(n):
    vectors = st.one_of(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(_SMALL_INT, max_size=n + 1),
    )
    return vectors.map(lambda v: ",".join(map(str, v)))


@st.composite
def _inputs(draw):
    """(quiver text, attractor text, (gamma, theta)); each file is well formed
    or carries one malformed line, half of the time each."""
    n = draw(st.integers(1, 3))
    arrows = draw(st.lists(st.tuples(*[st.integers(1, n)] * 2, st.integers(0, 3)), max_size=3))
    quiver = [f"vertices {n}"] + ["arrow {} {} {}".format(*a) for a in arrows]
    value = st.one_of(_bilaurent.map(BiLaurent.render), _NOISE)
    entry = st.builds("gamma = {} ; omega_star = {}".format, _class_text(n), value)
    attractor = draw(st.lists(st.one_of(entry, st.just("default acyclic")), max_size=3))
    for lines, bad in ((quiver, _bad_quiver_line), (attractor, _NOISE)):
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    job = draw(st.sampled_from(_JOBS[n] if draw(st.booleans()) else _ALL_JOBS))
    return "\n".join(quiver), "\n".join(attractor), job


@PROPERTY
@given(_inputs())
def test_fuzzed_input_files_never_exit_1(inputs):
    quiver, attractor, (gamma, theta) = inputs
    with tempfile.TemporaryDirectory() as tmp:
        quiver_path, attractor_path = Path(tmp) / "q.quiver", Path(tmp) / "a.attractor"
        quiver_path.write_text(quiver)
        attractor_path.write_text(attractor)
        for extra in ([], ["--attractor", str(attractor_path)]):
            argv = ["dt", "--quiver", str(quiver_path), "--gamma", gamma, "--theta=" + theta]
            assert main(argv + extra) in (0, 2, 3)


@PROPERTY
@given(_bilaurent)
def test_bilaurent_render_parse_round_trip(f):
    assert parse_bilaurent(f.render()) == f


_y_poly = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.just(0)), st.integers(-3, 3), min_size=1, max_size=3
).map(BiLaurent).filter(bool)


@PROPERTY
@given(num=_bilaurent, den=_y_poly, factor=_y_poly)
def test_equal_ratfuncs_hash_and_render_alike(num, den, factor):
    a = RatFunc(num, den)
    b = RatFunc(num * factor, den * factor)
    assert a == b
    assert hash(a) == hash(b)
    assert a.render() == b.render()
    assert b * RatFunc(den) == RatFunc(num)
    assert (a - b).is_zero() and a + b == a * Fraction(2)
