"""Command-line surface.

Commands: trees, F, dt, oracle rank2, check {perturbation|joints|
multicover|oracle}.  Output is deterministic byte-for-byte for a fixed
command line; exit codes are 0 (pass), 1 (internal failure), 2 (invalid
input), 3 (genericity or sampling failure), 141 (stdout closed early).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from . import checks
from .algebra import BiLaurent
from .dt import AttractorTable, FCache, assemble_divisors, integer_from_rational
from .errors import (
    ConsistencyFailure,
    GenericityError,
    InvalidInput,
    NotPolynomial,
)
from .flow import flow_tree_scalar
from .lattice import Quiver, build_aux, euler_skew, parse_covector, parse_dimvec, parse_quiver
from .scattering import reconstruct_rank2
from .trees import enumerate_trees, render_tree, tree_count

MAX_R = 10  # largest r of `trees` and `check perturbation|joints`: their work grows at least as 3^r
# MAX_DEGREE bounds --degree of `oracle rank2`, MAX_CHECK_DIM --max-dim of `check oracle`.
# On one 2-vCPU machine, `oracle rank2 --m 3` took 1.9, 4.4, 5.1 and 11.3 s CPU at
# degree 11 to 14; `check oracle --m 3`, whose time goes to the flow side, took 3.9,
# 16.6 and 111 s at max-dim 9 to 11, and over 300 s at 12.
MAX_DEGREE = 13
MAX_CHECK_DIM = 10
# MAX_ARROWS bounds |form[0][1]| of both rank-2 commands (`--m`, or a `--quiver` of
# `oracle rank2`): `oracle rank2 --degree 13` took 7.2, 13.1 and 54 s at m = 3, 10 and 30.
MAX_ARROWS = 10
# MAX_CLASSES bounds the class count r of `F`: on Kronecker-1, r = 10, 12 and 14 took 0.7, 25 and >600 s.
MAX_CLASSES = 12


def _check_r(r: int) -> None:
    if not 1 <= r <= MAX_R:
        raise InvalidInput(f"r must be between 1 and {MAX_R}, got {r}")


def _check_at_most(flag: str, value: int, bound: int) -> None:
    if value > bound:
        raise InvalidInput(f"{flag} must be at most {bound}, got {value}")


def _check_count(flag: str, value: int) -> None:
    if value < 1:
        raise InvalidInput(f"{flag} must be at least 1, got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverdt",
        description="Refined DT invariants of quivers via the flow tree formula.",
    )
    parser.add_argument("--seed", type=int, default=0, help="perturbation seed")
    parser.add_argument("--budget", type=int, default=1000, help="resample budget")
    parser.add_argument("--cache", default=None, help="directory for the on-disk F-cache")
    parser.add_argument(
        "--format", choices=["text", "machine"], default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="enumerate decorated binary trees")
    p_trees.add_argument("r", type=int)

    p_f = sub.add_parser("F", help="universal flow tree coefficient")
    p_f.add_argument("--quiver", required=True, help="quiver file")
    p_f.add_argument("--gammas", required=True, nargs="+", help="classes, e.g. 1,0 0,1")
    p_f.add_argument("--theta", required=True, help="stability covector, e.g. 1,-1")
    p_f.add_argument("--mode", choices=["omega", "beta"], default="omega")

    p_dt = sub.add_parser("dt", help="rational DT invariant from attractor data")
    p_dt.add_argument("--quiver", required=True)
    p_dt.add_argument("--gamma", required=True)
    p_dt.add_argument("--theta", required=True)
    p_dt.add_argument("--attractor", default=None, help="attractor table file (default: acyclic)")
    p_dt.add_argument("--mode", choices=["omega", "beta"], default="omega")

    p_oracle = sub.add_parser("oracle", help="rank-2 scattering oracle")
    p_oracle.add_argument("kind", choices=["rank2"])
    p_oracle.add_argument("--quiver", default=None, help="rank-2 quiver file")
    p_oracle.add_argument("--m", type=int, default=None, help="Kronecker arrow count")
    p_oracle.add_argument("--degree", type=int, required=True, help="degree bound")
    p_oracle.add_argument("--attractor", default=None, help="attractor table file (default: acyclic)")

    p_check = sub.add_parser("check", help="theorem-backed verification drivers")
    p_check.add_argument("kind", choices=["perturbation", "joints", "multicover", "oracle"])
    p_check.add_argument("--r", type=int, default=3)
    p_check.add_argument("--trials", type=int, default=5)
    p_check.add_argument("--m", type=int, default=2)
    p_check.add_argument("--max-dim", type=int, default=4)
    return parser


def _read_input(path) -> str:
    """The text of an input file; a file that cannot be read as UTF-8 is invalid input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _load_attractor(path, vertex_count: int) -> AttractorTable:
    if path is None:
        return AttractorTable(acyclic_default=True)
    table = AttractorTable.parse(_read_input(path))
    for gamma in table.entries:
        if len(gamma) != vertex_count:
            raise InvalidInput(
                f"attractor class {gamma} does not fit a {vertex_count}-vertex quiver"
            )
    return table


def _cmd_trees(args, out) -> int:
    _check_r(args.r)
    machine = args.format == "machine"
    count = tree_count(args.r)
    out.write(f"count={count}\n" if machine else f"count {count}\n")
    for tree in enumerate_trees(range(1, args.r + 1)):
        text = render_tree(tree)
        out.write(f"tree={text}\n" if machine else f"{text}\n")
    return 0


def _cmd_f(args, out) -> int:
    _check_at_most("the class count of --gammas", len(args.gammas), MAX_CLASSES)
    quiver = parse_quiver(_read_input(args.quiver))
    gammas = [parse_dimvec(g) for g in args.gammas]
    theta = parse_covector(args.theta)
    aux = build_aux(quiver, gammas, theta)
    poly = flow_tree_scalar(aux, mode=args.mode, seed=args.seed, budget=args.budget)
    if args.format == "machine":
        out.write(f"F={poly.render()}\n")
    else:
        out.write(poly.render() + "\n")
    return 0


def _cmd_dt(args, out) -> int:
    quiver = parse_quiver(_read_input(args.quiver))
    gamma = parse_dimvec(args.gamma)
    theta = parse_covector(args.theta)
    table = _load_attractor(args.attractor, quiver.vertex_count)
    cache = FCache(args.cache)
    machine = args.format == "machine"
    rational = assemble_divisors(
        quiver, gamma, theta, table, mode=args.mode, seed=args.seed, budget=args.budget, cache=cache
    )
    value = rational[gamma].render()
    out.write(f"omega_bar={value}\n" if machine else f"Omega_bar = {value}\n")
    try:
        integral = integer_from_rational(rational).get(gamma, BiLaurent.zero())
    except NotPolynomial as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return 0
    out.write(f"omega={integral.render()}\n" if machine else f"Omega = {integral.render()}\n")
    return 0


def _cmd_oracle(args, out) -> int:
    _check_at_most("--degree", args.degree, MAX_DEGREE)
    if (args.quiver is None) == (args.m is None):
        raise InvalidInput("give exactly one of --quiver or --m")
    if args.quiver is not None:
        quiver = parse_quiver(_read_input(args.quiver))
        if quiver.vertex_count != 2:
            raise InvalidInput("the rank-2 oracle needs a 2-vertex quiver")
    else:
        quiver = Quiver.kronecker(args.m)
    form = euler_skew(quiver).matrix
    if form[0][1] == 0:
        raise InvalidInput("the skew form is zero, so its rays have no direction")
    _check_at_most("the arrow count |form[0][1]|", abs(form[0][1]), MAX_ARROWS)
    table = _load_attractor(args.attractor, quiver.vertex_count)
    initial = checks.rank2_initial_data(table, args.degree)
    diagram = reconstruct_rank2(initial, form, args.degree)
    for _, (class_vec, coeff) in diagram.ray_entries():
        out.write(f"ray {class_vec[0]},{class_vec[1]} : {coeff.render()}\n")
    return 0


def _cmd_check(args, out) -> int:
    _check_count("--trials", args.trials)
    if args.kind in ("perturbation", "joints"):
        _check_r(args.r)
    if args.kind == "oracle":
        _check_at_most("--max-dim", args.max_dim, MAX_CHECK_DIM)
        _check_at_most("--m", args.m, MAX_ARROWS)
    if args.kind == "perturbation":
        result = checks.check_perturbation(args.r, args.trials, seed=args.seed)
    elif args.kind == "joints":
        result = checks.check_joints(args.r, args.trials, seed=args.seed)
    elif args.kind == "multicover":
        result = checks.check_multicover(args.trials, seed=args.seed)
    else:
        result = checks.check_oracle(args.m, args.max_dim, seed=args.seed)
    machine = args.format == "machine"
    if not machine:
        for line in result.lines:
            out.write(line + "\n")
    if result.passed:
        out.write("result=pass\n" if machine else "PASS\n")
        return 0
    out.write(f"result=fail locus={result.locus}\n" if machine else f"FAIL {result.locus}\n")
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    out = sys.stdout
    try:
        _check_count("--budget", args.budget)
        commands = {"trees": _cmd_trees, "F": _cmd_f, "dt": _cmd_dt, "oracle": _cmd_oracle}
        code = commands.get(args.command, _cmd_check)(args, out)
        out.flush()  # a reader gone early shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: send what is still buffered to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141  # what a shell reports for a process ended by SIGPIPE
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GenericityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyFailure as exc:
        print(f"error: consistency failure at joint {exc.joint}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure surface
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
