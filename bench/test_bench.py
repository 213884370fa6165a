"""The benchmark's own tests: each output check passes on real values and fails
on a corrupted one, and the tracing wrappers change no result.

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tracing
import verify
import workloads
from workloads import qalg, qdt, qflow, qsc

BENCH = Path(__file__).resolve().parent
Y = qalg.RatFunc(qalg.BiLaurent({(1, 0): 1}))
ONE = qalg.RatFunc(1)


def test_kronecker_check_and_negative_control():
    quiver, table, initial, form = workloads.rank2_initial(2, 3)
    diagram = qsc.reconstruct_rank2(initial, form, 3)
    jobs, pairs = [], []
    for gamma in [(1, 1), (1, 2), (2, 1)]:
        for theta in workloads.kronecker_chambers(2, gamma):
            value = qdt.assemble_dt(quiver, gamma, theta, table)
            jobs.append(("assemble", 2, gamma, theta))
            pairs.append((value, qsc.dt_from_rank2(diagram, gamma, theta)))
    assert verify.check_kronecker(jobs, pairs) == []
    value, oracle = pairs[0]
    corrupted = [(value + ONE, oracle)] + pairs[1:]
    assert len(verify.check_kronecker(jobs, corrupted)) == 1


@pytest.fixture(scope="module")
def flow_values():
    rng = random.Random(0)
    instances = [workloads.random_aux(rng, r) for r in (3, 4)]
    values = [qflow.flow_tree_scalar(aux, mode="omega", seed=5) for aux in instances]
    references = [qflow.flow_tree_scalar(aux, mode="beta", seed=5) for aux in instances]
    return values, references


def test_random_flow_check_passes(flow_values):
    values, references = flow_values
    assert any(not v.is_zero() for v in values)
    assert verify.check_random_flow(values, references) == []


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda v, r: (v + qalg.LaurentPoly({1: 1, -1: 1}), r), "!= beta"),
        (lambda v, r: (v + qalg.LaurentPoly({0: Fraction(1, 2)}),
                       r + qalg.LaurentPoly({0: Fraction(1, 2)})), "non-integer"),
        (lambda v, r: (v + qalg.LaurentPoly({1: 1}), r + qalg.LaurentPoly({1: 1})), "y -> 1/y"),
    ],
)
def test_random_flow_negative_controls(flow_values, corrupt, reason):
    values, references = flow_values
    value, reference = corrupt(values[0], references[0])
    failures = verify.check_random_flow([value] + values[1:], [reference] + references[1:])
    assert len(failures) == 1 and reason in failures[0]


@pytest.fixture(scope="module")
def quiver3_values(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("fcache")
    jobs = [job for job in workloads.quiver3_jobs() if sum(job[0]) == 2]
    quiver, table = workloads.quiver3(), qdt.AttractorTable(acyclic_default=True)
    values = []
    for gamma, theta in jobs:
        cache = qdt.FCache(cache_dir)
        values.append((
            qdt.assemble_dt(quiver, gamma, theta, table, cache=cache),
            qdt.dt_integer_value(quiver, gamma, theta, table, cache=cache),
        ))
    return jobs, values, verify.quiver3_oracles(degree=2)


def _support(gamma):
    return sum(1 for c in gamma if c)


def test_quiver3_check_passes(quiver3_values):
    jobs, values, diagrams = quiver3_values
    assert sum(1 for gamma, _ in jobs if _support(gamma) == 2) == 6
    assert verify.check_quiver3(jobs, values, diagrams, cold_values=values) == []


def _first_job_on(jobs, vertices):
    return next(i for i, (gamma, _) in enumerate(jobs) if _support(gamma) == vertices)


HALF = qalg.BiLaurent.const(Fraction(1, 2))


@pytest.mark.parametrize(
    "vertices, corrupt_warm, corrupt_cold, reason",
    [
        (2, lambda q, z: (q, z + HALF), lambda q, z: (q, z + HALF), "non-integer"),
        (1, lambda q, z: (q + Y, z), lambda q, z: (q + Y, z), "y -> 1/y"),
        (2, lambda q, z: (q + ONE, z), lambda q, z: (q + ONE, z), "rank-2 oracle"),
        (2, None, lambda q, z: (q, z + qalg.BiLaurent.const(1)), "differs from the cold"),
    ],
)
def test_quiver3_negative_controls(quiver3_values, vertices, corrupt_warm, corrupt_cold, reason):
    jobs, values, diagrams = quiver3_values
    index = _first_job_on(jobs, vertices)
    warm, cold = list(values), list(values)
    if corrupt_warm:
        warm[index] = corrupt_warm(*values[index])
    if corrupt_cold:
        cold[index] = corrupt_cold(*values[index])
    failures = verify.check_quiver3(jobs, warm, diagrams, cold_values=cold)
    assert len(failures) == 1 and reason in failures[0]


def test_serialization_round_trip(quiver3_values):
    _, values, _ = quiver3_values
    for rational, _ in values:
        assert workloads.ratfunc_from_text(workloads.ratfunc_text(rational)) == rational


def test_tracing_replaces_every_binding_and_restores_it():
    original = qdt.flow_tree_scalar
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from quiverdt import checks, cli

        assert qflow.flow_tree_scalar is not original
        assert qdt.flow_tree_scalar is checks.flow_tree_scalar is cli.flow_tree_scalar is qflow.flow_tree_scalar
        aux = workloads.random_aux(random.Random(1), 4)
        traced = qdt.universal_coefficient(aux, seed=3, cache=qdt.FCache())
    finally:
        tracer.uninstall()
    assert qdt.flow_tree_scalar is original and qflow.flow_tree_scalar is original
    assert traced == original(aux, seed=3)
    metrics = tracer.metrics()
    assert metrics["flow.flow_tree_scalar.calls"] == 1
    assert metrics["lattice.sample_omega.calls"] == 1
    assert metrics["dt.fcache.misses"] == 1


TRACED_SNIPPET = """
import json, random, sys
sys.path.insert(0, sys.argv[1])
import tracing, workloads
tracer = tracing.Tracer()
tracer.install()
aux = workloads.random_aux(random.Random(2), 5)
value = workloads.qflow.flow_tree_scalar(aux, seed=7)
tracer.uninstall()
print(json.dumps({"value": value.render(), "calls": tracer.calls, "counts": tracer.counts}))
"""


def test_traced_counts_repeat_in_fresh_processes():
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", TRACED_SNIPPET, str(BENCH)],
                                  capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0]["counts"]["trees.trees_enumerated"] > 0
