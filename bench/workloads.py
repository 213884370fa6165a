"""The benchmark's workloads: inputs made from a seed, the timed jobs, and their outputs.

Each workload is a fixed list of jobs.  Its constructor builds the inputs
from the benchmark seed (set-up, not timed); ``run`` executes one job
through the program's public API; ``serialize`` turns a result into
canonical text after the timed part, for ``verify`` to check in the
parent process.

The program is reached through module attributes (``qdt.assemble_dt``
rather than a name imported by value), so the tracing wrappers that
replace those attributes see every call the benchmark makes.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from quiverdt import algebra as qalg  # noqa: E402
from quiverdt import dt as qdt  # noqa: E402
from quiverdt import flow as qflow  # noqa: E402
from quiverdt import lattice as qlat  # noqa: E402
from quiverdt import scattering as qsc  # noqa: E402

# Kronecker oracle: the arrow counts and the degree of `check oracle --max-dim 6`.
KRONECKER_MS = (1, 2, 3)
KRONECKER_DEGREE = 6

# random_flow: how many instances of each rank one round evaluates.  The
# r = 7 instances carry most of the time; the r = 6 ones keep the
# per-job median on a size class of its own.
RANDOM_FLOW_COUNTS = ((6, 12), (7, 2))
RANDOM_MAX_ENTRY = 4
RANDOM_MAX_ALPHA = 9

# quiver3: acyclic, 1->2 twice, 2->3 twice, 1->3 once (0-based below).
QUIVER3_ARROWS = ((0, 1, 2), (1, 2, 2), (0, 2, 1))
QUIVER3_DIMS = range(2, 7)
# Two opposite stability directions.  The wall point of gamma for v is
# theta = |gamma| v - (v . gamma)(1, 1, 1), the King form of the slope
# v . gamma / |gamma|.  With entries (0, 1, 37) no two non-collinear
# classes of total dimension <= 36 share a slope, so every job is generic.
QUIVER3_DIRECTIONS = ((0, 1, 37), (0, -1, -37))

# ---------------------------------------------------------------------------
# text forms of values, shared by the child (writing) and verify (reading)


def ratfunc_text(value):
    return [value.num.render(), value.den.render()]


def ratfunc_from_text(text):
    return qalg.RatFunc(qalg.parse_bilaurent(text[0]), qalg.parse_bilaurent(text[1]))


def perturbation_seed(seed: int) -> int:
    """The --seed handed to the program, derived from the benchmark seed."""
    return random.Random(f"perturbation/{seed}").randrange(1 << 30)


# ---------------------------------------------------------------------------
# inputs


def kronecker_chambers(m: int, gamma):
    """One gamma-generic theta on each side of the wall of gamma (Kronecker m)."""
    # The attractor point of gamma under the form ((0, m), (-m, 0)).
    att = (Fraction(-m * gamma[1]), Fraction(m * gamma[0]))
    out = []
    for sign in (1, -1):
        theta = (sign * att[0], sign * att[1])
        if qlat.is_gamma_generic(theta, gamma):
            out.append(theta)
    return out


def rank2_initial(m: int, degree: int):
    """Kronecker-m quiver, acyclic attractor table and rank-2 initial walls."""
    quiver = qlat.Quiver.kronecker(m)
    table = qdt.AttractorTable(acyclic_default=True)
    initial = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if a or b:
                value = table.rational_value((a, b))
                if not value.is_zero():
                    initial[(a, b)] = value
    form = qlat.euler_skew(quiver).matrix
    return quiver, table, initial, form


def random_aux(rng: random.Random, r: int):
    """Random integer skew form with a generic integer stability point.

    The basis doubles as the classes: the quiver with a_ij = max(eta_ij, 0)
    pulls back to exactly this eta.
    """
    while True:
        eta = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                x = rng.randint(-RANDOM_MAX_ENTRY, RANDOM_MAX_ENTRY)
                eta[i][j], eta[j][i] = x, -x
        eta = tuple(tuple(row) for row in eta)
        alpha = [Fraction(rng.randint(-RANDOM_MAX_ALPHA, RANDOM_MAX_ALPHA)) for _ in range(r - 1)]
        alpha.append(-sum(alpha))
        if qlat.alpha_is_generic(eta, alpha):
            gammas = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
            return qlat.AuxLattice(gammas=gammas, eta=eta, alpha=tuple(alpha))


def random_flow_instances(seed: int):
    """The seeded draws, r = 6 first, in the order a round runs them.

    The r = 7 instances are spread evenly between the r = 6 ones, so the
    small jobs that set the per-job median run at several times in the
    round rather than in one stretch of a few seconds at its start: the
    machine's speed drifts within a round, and one stretch samples it once.
    """
    rng = random.Random(f"random_flow/{seed}")
    small, large = ([random_aux(rng, r) for _ in range(count)] for r, count in RANDOM_FLOW_COUNTS)
    order, step = [], len(small) // (len(large) + 1)
    for i, aux in enumerate(large):
        order += small[i * step:(i + 1) * step] + [aux]
    return order + small[len(large) * step:]


def quiver3():
    return qlat.Quiver.from_arrows(3, QUIVER3_ARROWS)


def quiver3_jobs():
    """(gamma, theta) for every class of total dimension 2..6, both directions."""
    jobs = []
    for d in QUIVER3_DIMS:
        for a in range(d + 1):
            for b in range(d + 1 - a):
                gamma = (a, b, d - a - b)
                for v in QUIVER3_DIRECTIONS:
                    vg = sum(x * g for x, g in zip(v, gamma))
                    jobs.append((gamma, tuple(Fraction(d * x - vg) for x in v)))
    return jobs


# ---------------------------------------------------------------------------
# workloads


class KroneckerOracle:
    """reconstruct_rank2, then assemble_dt on every (class, chamber), per m."""

    def __init__(self, seed: int, cache_dir=None):
        self.pseed = perturbation_seed(seed)
        self.data = {m: rank2_initial(m, KRONECKER_DEGREE) for m in KRONECKER_MS}
        self.caches = {m: qdt.FCache() for m in KRONECKER_MS}
        self.diagrams = {}
        self.jobs = []
        for m in KRONECKER_MS:
            self.jobs.append(("reconstruct", m, None, None))
            for total in range(1, KRONECKER_DEGREE + 1):
                for a in range(total + 1):
                    gamma = (a, total - a)
                    for theta in kronecker_chambers(m, gamma):
                        self.jobs.append(("assemble", m, gamma, theta))

    def run(self, job):
        kind, m, gamma, theta = job
        quiver, table, initial, form = self.data[m]
        if kind == "reconstruct":
            self.diagrams[m] = qsc.reconstruct_rank2(initial, form, KRONECKER_DEGREE)
            return self.diagrams[m]
        return qdt.assemble_dt(quiver, gamma, theta, table, seed=self.pseed, cache=self.caches[m])

    def serialize(self, job, result):
        kind, m, gamma, theta = job
        if kind == "reconstruct":
            return len(result.scattered)
        diagram = self.diagrams.get(m)
        oracle = None if diagram is None else ratfunc_text(qsc.dt_from_rank2(diagram, gamma, theta))
        return {"value": ratfunc_text(result), "oracle": oracle}


class RandomFlow:
    """flow_tree_scalar in omega mode, no cache, on seeded random instances."""

    def __init__(self, seed: int, cache_dir=None):
        self.pseed = perturbation_seed(seed)
        self.jobs = random_flow_instances(seed)

    def run(self, aux):
        return qflow.flow_tree_scalar(aux, mode="omega", seed=self.pseed)

    def serialize(self, job, result):
        return result.render()


class Quiver3:
    """assemble_dt and dt_integer_value per (class, wall point), fresh FCache per job."""

    def __init__(self, seed: int, cache_dir=None):
        if cache_dir is None:
            raise ValueError("quiver3 workloads need a cache directory")
        self.pseed = perturbation_seed(seed)
        self.quiver = quiver3()
        self.table = qdt.AttractorTable(acyclic_default=True)
        self.cache_dir = cache_dir
        self.jobs = quiver3_jobs()

    def run(self, job):
        gamma, theta = job
        cache = qdt.FCache(self.cache_dir)
        args = (self.quiver, gamma, theta, self.table)
        options = dict(seed=self.pseed, cache=cache)
        return qdt.assemble_dt(*args, **options), qdt.dt_integer_value(*args, **options)

    def serialize(self, job, result):
        rational, integral = result
        return {"rational": ratfunc_text(rational), "integral": integral.render()}


WORKLOADS = {
    "kronecker_oracle": KroneckerOracle,
    "random_flow": RandomFlow,
    "quiver3_cold": Quiver3,
    "quiver3_warm": Quiver3,
}
