"""Decomposition enumeration, multicover transforms and DT assembly."""

from fractions import Fraction

import dt_reference
import pytest

from quiverdt.algebra import BiLaurent, LaurentPoly, RatFunc, kappa
from quiverdt.checks import random_integer_table
from quiverdt.dt import (
    AttractorTable,
    FCache,
    assemble_dt,
    dt_integer_value,
    enumerate_decompositions,
    integer_from_rational,
    qbracket,
    rational_from_integer,
)
from quiverdt.errors import InvalidInput, NotGenericTheta, NotOnWall, NotPolynomial
from quiverdt import dt
from quiverdt.flow import flow_tree_scalar
from quiverdt.lattice import Pullback, Quiver, _rng, build_aux, dot


def _parts(gamma, **kw):
    return sorted(d.parts for d in enumerate_decompositions(gamma, **kw))


def test_decompositions_one_one():
    assert _parts((1, 1)) == [((1, 0), (0, 1)), ((1, 1),)]


def test_decompositions_two_zero():
    assert _parts((2, 0)) == [((1, 0), (1, 0)), ((2, 0),)]


def test_decompositions_two_one():
    assert _parts((2, 1)) == [
        ((1, 0), (1, 0), (0, 1)),
        ((1, 1), (1, 0)),
        ((2, 0), (0, 1)),
        ((2, 1),),
    ]


def test_decomposition_aut_orders():
    by_parts = {d.parts: d.aut_order for d in enumerate_decompositions((2, 1))}
    assert by_parts[((1, 0), (1, 0), (0, 1))] == 2
    assert by_parts[((2, 1),)] == 1


def test_decomposition_brute_force_count():
    # independent counting oracle: compositions of the box collapsed to multisets
    def brute(gamma):
        from itertools import product

        box = [
            (a, b)
            for a in range(gamma[0] + 1)
            for b in range(gamma[1] + 1)
            if (a, b) != (0, 0)
        ]
        seen = set()

        def rec(remaining, chosen):
            if remaining == (0, 0):
                seen.add(tuple(sorted(chosen)))
                return
            for p in box:
                if p[0] <= remaining[0] and p[1] <= remaining[1]:
                    rec((remaining[0] - p[0], remaining[1] - p[1]), chosen + [p])

        rec(gamma, [])
        return len(seen)

    for gamma in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        assert sum(1 for _ in enumerate_decompositions(gamma)) == brute(gamma)


def test_multicover_primitive_identity():
    table = {(1, 1): BiLaurent({(1, 0): 2})}
    rational = rational_from_integer(table)
    assert rational[(1, 1)] == RatFunc(BiLaurent({(1, 0): 2}))


def test_multicover_two_zero_example():
    # Omega(1,0) = 1 and Omega(2,0) = 0 give 1/(2(y + y^-1)) at (2,0).
    table = {(1, 0): BiLaurent.const(1), (2, 0): BiLaurent.zero()}
    rational = rational_from_integer(table)
    expected = RatFunc(BiLaurent.const(1), BiLaurent({(1, 0): 2, (-1, 0): 2}))
    assert rational[(2, 0)] == expected
    recovered = integer_from_rational(rational)
    assert (1, 0) in recovered and (2, 0) not in recovered


def test_multicover_zero_table():
    assert rational_from_integer({}) == {}
    assert integer_from_rational({}) == {}


def test_inversion_not_polynomial():
    with pytest.raises(NotPolynomial):
        integer_from_rational({(2, 0): RatFunc.one()})


def test_multicover_round_trip_random():
    for trial in range(10):
        table = random_integer_table(trial)
        rational = rational_from_integer(table)
        recovered = integer_from_rational(rational)
        assert recovered == {g: v for g, v in table.items() if not v.is_zero()}


def test_qbracket():
    assert qbracket(1) == LaurentPoly.const(1)
    assert qbracket(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    for k in range(1, 12):
        assert qbracket(k) == LaurentPoly({k - 1 - 2 * j: 1 for j in range(k)})
    for k in (0, -1):
        with pytest.raises(InvalidInput):
            qbracket(k)


def test_attractor_table_defaults():
    table = AttractorTable(acyclic_default=True)
    assert table.omega_star((0, 1, 0)) == RatFunc.one()
    assert table.omega_star((1, 1)) == RatFunc.zero()
    bare = AttractorTable()
    assert bare.omega_star((1, 0)) == RatFunc.zero()


def test_attractor_table_parse():
    table = AttractorTable.parse(
        "# comment\ndefault acyclic\ngamma = 1,1 ; omega_star = -y^-1 - y\n"
    )
    assert table.acyclic_default
    assert table.omega_star((1, 1)) == RatFunc(-kappa(2))
    assert table.omega_star((1, 0)) == RatFunc.one()


@pytest.mark.parametrize("line", ["gamma=1,1;omega_star=2", "gamma =  1,1 ;\tomega_star =2  # two"])
def test_attractor_table_parse_reads_spacing_variants(line):
    assert AttractorTable.parse(line).omega_star((1, 1)) == RatFunc(2)


@pytest.mark.parametrize(
    "line",
    [
        "omega_star = 1 ; gamma = 1,1",
        "gamma = 1,1 ; omega_star = 1 ; omega_star = 1",
        "gamma = 1,1 = 2 ; omega_star = 1",
        "gamma = 1,1 ; omega_star = 1 = 2",
        "gamma = 1,1 , omega_star = 1",
        "gammas = 1,1 ; omega_star = 1",
    ],
)
def test_attractor_table_parse_rejects_other_entry_shapes(line):
    with pytest.raises(InvalidInput, match="line 1: expected 'gamma = ... ; omega_star = ...'"):
        AttractorTable.parse(line)


def test_attractor_table_parse_rejects_a_repeated_class():
    with pytest.raises(InvalidInput, match="line 3: class \\(1, 1\\) is listed twice"):
        AttractorTable.parse("gamma = 1,1 ; omega_star = 1\n\ngamma = 1,1 ; omega_star = 5\n")


def test_assemble_a2_chambers():
    a2 = Quiver.kronecker(1)
    table = AttractorTable(acyclic_default=True)
    assert assemble_dt(a2, (1, 1), (1, -1), table) == RatFunc.one()
    assert assemble_dt(a2, (1, 1), (-1, 1), table) == RatFunc.zero()


def test_assemble_kronecker2():
    k2 = Quiver.kronecker(2)
    table = AttractorTable(acyclic_default=True)
    assert assemble_dt(k2, (1, 1), (1, -1), table) == RatFunc(-kappa(2))


def test_assemble_single_part():
    k2 = Quiver.kronecker(2)
    table = AttractorTable(acyclic_default=True)
    assert assemble_dt(k2, (1, 0), (0, 5), table) == table.rational_value((1, 0))


def test_assemble_errors():
    a2 = Quiver.kronecker(1)
    table = AttractorTable(acyclic_default=True)
    with pytest.raises(NotOnWall):
        assemble_dt(a2, (1, 1), (1, 1), table)
    with pytest.raises(NotGenericTheta):
        assemble_dt(a2, (1, 1), (0, 0), table)


@pytest.mark.parametrize("theta", [("0.5", "-0.5"), ("1e3", "-1_000"), (0.5, -0.5)])
def test_assemble_dt_takes_only_int_or_fraction_theta(theta):
    table = AttractorTable(acyclic_default=True)
    with pytest.raises(InvalidInput, match="theta needs int or Fraction entries"):
        assemble_dt(Quiver.kronecker(1), (1, 1), theta, table)


def test_decompositions_vanishing_at_the_root_build_no_lattice(monkeypatch):
    # Kronecker-2 (2, 2) has four decompositions under the acyclic table, of
    # r = 2, 3, 3 and 4.  At (-1, 1) every one vanishes at the root split.
    k2, table = Quiver.kronecker(2), AttractorTable(acyclic_default=True)
    want = dt_reference.assemble_dt(k2, (2, 2), (1, -1), table)
    flows, lattices = [], []  # the r of each flow evaluation, the parts of each lattice
    flow, aux = dt.flow_tree_scalar, Pullback.aux

    def recording_flow(lattice, **kwargs):
        flows.append(lattice.r)
        return flow(lattice, **kwargs)

    def recording_aux(self, gammas):
        lattices.append(tuple(gammas))
        return aux(self, gammas)

    monkeypatch.setattr(dt, "flow_tree_scalar", recording_flow)
    monkeypatch.setattr(Pullback, "aux", recording_aux)
    assert assemble_dt(k2, (2, 2), (-1, 1), table) == RatFunc.zero()
    assert flows == [] and lattices == []
    assert assemble_dt(k2, (2, 2), (1, -1), table) == want
    assert sorted(flows) == [2, 3, 3, 4] and len(lattices) == 4


def test_skipping_soundness():
    # adding explicit zero entries never changes the result
    k2 = Quiver.kronecker(2)
    plain = AttractorTable(acyclic_default=True)
    padded = AttractorTable(
        {(1, 1): RatFunc.zero(), (2, 1): RatFunc.zero()}, acyclic_default=True
    )
    for gamma, theta in [((2, 1), (1, -2)), ((2, 2), (1, -1))]:
        assert assemble_dt(k2, gamma, theta, plain) == assemble_dt(k2, gamma, theta, padded)


def test_entry_insertion_order_irrelevant():
    k2 = Quiver.kronecker(2)
    entries = {(1, 1): RatFunc(-kappa(2)), (1, 0): RatFunc.one(), (0, 1): RatFunc.one()}
    t1 = AttractorTable(entries)
    t2 = AttractorTable(dict(reversed(list(entries.items()))))
    assert assemble_dt(k2, (2, 2), (1, -1), t1) == assemble_dt(k2, (2, 2), (1, -1), t2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_primitive_wall_crossing_kronecker(m):
    quiver = Quiver.kronecker(m)
    table = AttractorTable(acyclic_default=True)
    plus = assemble_dt(quiver, (1, 1), (1, -1), table)
    minus = assemble_dt(quiver, (1, 1), (-1, 1), table)
    jump = plus - minus
    assert jump == RatFunc(-kappa(m)) or jump == RatFunc(kappa(m))
    assert jump == RatFunc(-kappa(m))  # crossing from theta(gamma_1) > 0


def test_primitive_wall_crossing_three_vertices():
    q = Quiver.from_arrows(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    table = AttractorTable(acyclic_default=True)
    gamma = (1, 1, 0)
    plus = assemble_dt(q, gamma, (1, -1, 5), table)
    minus = assemble_dt(q, gamma, (-1, 1, 5), table)
    # gamma = (1,0,0) + (0,1,0), pairing <g1, g2> = 1, both attractor values 1
    assert plus - minus == RatFunc(-kappa(1))


def test_dt_integer_value():
    a2 = Quiver.kronecker(1)
    table = AttractorTable(acyclic_default=True)
    assert dt_integer_value(a2, (1, 1), (1, -1), table) == BiLaurent.const(1)
    k2 = Quiver.kronecker(2)
    assert dt_integer_value(k2, (2, 2), (1, -1), table) == BiLaurent.zero()
    assert dt_integer_value(k2, (1, 1), (1, -1), table) == BiLaurent(
        {(1, 0): -1, (-1, 0): -1}
    )


def test_f_cache_memory_and_disk(tmp_path):
    k2 = Quiver.kronecker(2)
    table = AttractorTable(acyclic_default=True)
    cache = FCache(tmp_path)
    first = assemble_dt(k2, (2, 1), (1, -2), table, cache=cache)
    files = list(tmp_path.iterdir())
    assert files
    fresh = FCache(tmp_path)  # cold memory, warm disk
    second = assemble_dt(k2, (2, 1), (1, -2), table, cache=fresh)
    assert first == second
    # corrupt every file: results must be unchanged, entries recomputed
    for f in files:
        f.write_text("not a polynomial @@@")
    third = assemble_dt(k2, (2, 1), (1, -2), table, cache=FCache(tmp_path))
    assert first == third


def test_cache_key_ignores_seed_but_keeps_signs():
    k2 = Quiver.kronecker(2)
    aux_plus = build_aux(k2, [(1, 0), (0, 1)], (1, -1))
    aux_minus = build_aux(k2, [(1, 0), (0, 1)], (-1, 1))
    assert FCache.key_for(aux_plus) != FCache.key_for(aux_minus)
    assert FCache.key_for(aux_plus) == FCache.key_for(
        build_aux(k2, [(1, 0), (0, 1)], (2, -2))
    )


def test_cache_key_text_is_stable():
    # On-disk entries are found by this text: changing it orphans every cache.
    k2 = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (1, -2))
    assert FCache.key_for(k2) == "r=3|eta=0,0,2;0,0,2;-2,-2,0|signs=+++---0"
    q3 = Quiver.from_arrows(3, [(0, 1, 2), (1, 2, 2), (0, 2, 1)])
    aux = build_aux(q3, [(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)],
                    (Fraction(1, 2), -1, Fraction(3, 2)))
    assert FCache.key_for(aux) == "r=4|eta=0,2,2,1;-2,0,0,2;-2,0,0,2;-1,-2,-2,0|signs=+------++++++-0"


def test_cache_record_prefixes_never_read_as_another_value(tmp_path):
    key = "r=2|eta=0,3;-3,0|signs=+-0"
    value = LaurentPoly({0: 1, 3: 2})  # 1 + 2*y^3; cut to "1 + 2" it would read as 3
    FCache(tmp_path).put(key, value)
    (path,) = tmp_path.iterdir()
    record = path.read_bytes()
    for cut in range(len(record) + 1):
        path.write_bytes(record[:cut])
        got = FCache(tmp_path).get(key)
        assert got is None or (cut == len(record) and got == value), cut
    assert FCache(tmp_path).get(key) == value


def test_cache_record_under_another_key_is_ignored(tmp_path):
    key, other = "r=2|eta=0,1;-1,0|signs=+-0", "r=2|eta=0,1;-1,0|signs=-+0"
    cache = FCache(tmp_path)
    cache.put(other, LaurentPoly.const(5))
    # Move the record to the file of `key`, as a hash collision or a stray copy would.
    cache._path(other).rename(cache._path(key))
    assert FCache(tmp_path).get(key) is None


@pytest.mark.parametrize(
    "text", ["1/0", "0.5", "1e100000000", "y*t", "9" * 5000],
    ids=["zero-denominator", "decimal-point", "exponent", "t-power", "5000-digits"],
)
def test_cache_record_with_a_malformed_value_is_recomputed(tmp_path, text):
    key = "r=2|eta=0,1;-1,0|signs=+-0"
    cache = FCache(tmp_path)
    cache.put(key, LaurentPoly.const(5))
    cache._path(key).write_text(f"key {key}\nvalue {text}\nend\n")
    assert FCache(tmp_path).get(key) is None


Q3 = Quiver.from_arrows(3, [(0, 1, 2), (1, 2, 2), (0, 2, 1)])  # the benchmark's quiver
CYCLIC = Quiver.from_arrows(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)])
ACYCLIC = AttractorTable(acyclic_default=True)
# Non-unit classes, Fraction coefficients and a t-power: several weight denominators.
NON_ACYCLIC = AttractorTable(
    {
        (1, 0, 0): 1,
        (0, 1, 0): 1,
        (0, 0, 1): 1,
        (2, 0, 0): RatFunc(Fraction(1, 3)),
        (1, 1, 0): RatFunc(BiLaurent({(2, 0): -1})),
        (1, 1, 1): RatFunc(
            BiLaurent({(1, 0): Fraction(1, 2), (-1, 0): Fraction(1, 2), (0, 1): 3}),
            BiLaurent({(0, 0): 1, (2, 0): 1}),
        ),
    }
)
DIFFERENTIAL_CASES = [
    (Quiver.kronecker(1), (2, 2), (1, -1), ACYCLIC),
    (Quiver.kronecker(2), (3, 3), (1, -1), ACYCLIC),
    (Quiver.kronecker(2), (2, 2), (Fraction(1, 2), Fraction(-1, 2)), ACYCLIC),
    (Quiver.kronecker(3), (2, 3), (3, -2), ACYCLIC),
    (Q3, (2, 2, 1), (39, 34, -146), ACYCLIC),
    (Q3, (3, 2, 1), (12, -7, -22), ACYCLIC),
    (Q3, (2, 2, 2), (2, Fraction(7, 2), Fraction(-11, 2)), ACYCLIC),
    (CYCLIC, (2, 2, 1), (-5, -2, 14), NON_ACYCLIC),
    (CYCLIC, (1, 1, 2), (Fraction(-8, 3), Fraction(1, 2), Fraction(13, 12)), NON_ACYCLIC),
    # Nonzero values with decompositions skipped at the root: 3 of 9, 3 of 5 and 1 of 4.
    (CYCLIC, (2, 2, 1), (-64, 106, -84), NON_ACYCLIC),
    (CYCLIC, (1, 1, 2), (-16, 88, -36), NON_ACYCLIC),
    (CYCLIC, (2, 1, 1), (33, -67, 1), NON_ACYCLIC),
]


@pytest.mark.parametrize("mode", ["omega", "beta"])
@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
def test_assemble_dt_matches_the_term_by_term_reference(tmp_path, mode, disk):
    # The reference pulls back with Fraction dot products and normalizes every
    # term; assemble_dt pulls back in ints and normalizes once per denominator.
    for q, gamma, theta, table in DIFFERENTIAL_CASES:
        want = dt_reference.assemble_dt(
            q, gamma, theta, table, mode=mode, seed=3, cache=FCache(tmp_path) if disk else None
        )
        # With a disk, every coefficient is read back from the reference's records.
        got = assemble_dt(
            q, gamma, theta, table, mode=mode, seed=3, cache=FCache(tmp_path) if disk else None
        )
        assert got.render() == want.render(), (gamma, theta)


def test_differential_cases_are_not_trivial():
    # The cases must reach several weight denominators and repeated parts.
    renders = {
        assemble_dt(q, gamma, theta, table).render()
        for q, gamma, theta, table in DIFFERENTIAL_CASES
    }
    assert len(renders) == len(DIFFERENTIAL_CASES)
    assert sum(" / " in text for text in renders) >= 5


def test_differential_cases_skip_decompositions_at_the_root(monkeypatch):
    # The term-by-term reference evaluates every decomposition, so the
    # differential test covers the skip only if it fires in these cases.
    certified = []
    vanishes = dt.vanishes_at_root

    def recording(pairings, alpha):
        certified.append(vanishes(pairings, alpha))
        return certified[-1]

    monkeypatch.setattr(dt, "vanishes_at_root", recording)
    for q, gamma, theta, table in DIFFERENTIAL_CASES[-3:]:
        certified.clear()
        assert not assemble_dt(q, gamma, theta, table).is_zero()
        assert any(certified) and not all(certified), (gamma, theta)


def _random_decomposition(rng, q):
    """Classes gamma_1..gamma_r and a theta with denominators on their sum's wall."""
    n = q.vertex_count
    gammas = []
    for _ in range(int(rng.integers(1, 5))):
        g = [int(rng.integers(0, 3)) for _ in range(n)]
        g[int(rng.integers(0, n))] += 1
        gammas.append(tuple(g))
    total = [sum(col) for col in zip(*gammas)]
    theta = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n - 1)]
    pivot = next(i for i in reversed(range(n)) if total[i])
    theta.insert(pivot, 0)
    theta[pivot] = -dot(theta, total) / total[pivot]
    return gammas, tuple(theta)


def test_build_aux_pulls_back_as_the_fraction_reference():
    rng = _rng(5, "pullback")
    for q in (Q3, CYCLIC, Quiver.kronecker(3)):
        for _ in range(30):
            gammas, theta = _random_decomposition(rng, q)
            got, want = build_aux(q, gammas, theta), dt_reference.build_aux(q, gammas, theta)
            assert got.eta == want.eta and got.alpha == want.alpha
            assert got.alpha == tuple(dot(theta, g) for g in gammas)
            assert FCache.key_for(got) == FCache.key_for(want)
    # Integral theta gives int alphas; any other theta gives Fractions.
    aux = build_aux(Q3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (Fraction(4, 2), 3, -5))
    assert [type(a) for a in aux.alpha] == [int, int, int]
    aux = build_aux(Q3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (Fraction(1, 2), 3, Fraction(-7, 2)))
    assert aux.alpha == (Fraction(1, 2), 3, Fraction(-7, 2))


def test_cache_reads_back_int_coefficients(tmp_path):
    aux = build_aux(Quiver.kronecker(2), [(1, 0), (1, 0), (0, 1)], (Fraction(1, 2), -1))
    value = flow_tree_scalar(aux)
    key = FCache.key_for(aux)
    FCache(tmp_path).put(key, value)
    got = FCache(tmp_path).get(key)
    assert got == value and got.render() == value.render()
    assert got.terms() and all(type(c) is int for c in got.terms().values())
    FCache(tmp_path).put(key, LaurentPoly({0: Fraction(1, 2), 2: 3}))
    assert [type(c) for _, c in sorted(FCache(tmp_path).get(key).terms().items())] == [
        Fraction, int
    ]
