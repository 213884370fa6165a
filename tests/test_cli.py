"""Command-line surface: outputs, exit codes, determinism, cache transparency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quiverdt.cli import main

TREES_3 = "count 3\n{{{1,2},3}}\n{{{1,3},2}}\n{{1,{2,3}}}\n"


@pytest.fixture
def kronecker1(tmp_path):
    path = tmp_path / "a2.quiver"
    path.write_text("vertices 2\narrow 1 2 1\n")
    return str(path)


@pytest.fixture
def kronecker2(tmp_path):
    path = tmp_path / "k2.quiver"
    path.write_text("vertices 2\narrow 1 2 2\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_trees_command(capsys):
    code, out = _run(capsys, ["trees", "3"])
    assert code == 0
    assert out == TREES_3


def test_trees_command_r1_and_r5(capsys):
    code, out = _run(capsys, ["trees", "1"])
    assert code == 0 and out.startswith("count 1\n")
    code, out = _run(capsys, ["trees", "5"])
    assert code == 0 and out.startswith("count 105\n")
    assert len(out.strip().splitlines()) == 106


def test_trees_out_of_range(capsys):
    code, _ = _run(capsys, ["trees", "11"])
    assert code == 2


def test_trees_machine_format(capsys):
    code, out = _run(capsys, ["--format", "machine", "trees", "1"])
    assert code == 0 and out == "count=1\ntree={1}\n"


def test_f_command_chambers(capsys, kronecker1):
    code, out = _run(
        capsys, ["F", "--quiver", kronecker1, "--gammas", "1,0", "0,1", "--theta", "1,-1"]
    )
    assert code == 0 and out == "1\n"
    code, out = _run(
        capsys, ["F", "--quiver", kronecker1, "--gammas", "1,0", "0,1", "--theta=-1,1"]
    )
    assert code == 0 and out == "0\n"


def test_f_command_seed_independent_bytes(capsys, kronecker2):
    argv = ["F", "--quiver", kronecker2, "--gammas", "1,0", "1,0", "0,1", "--theta", "1,-2"]
    outs = set()
    for seed in ("0", "7"):
        code, out = _run(capsys, ["--seed", seed] + argv)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_f_command_beta_mode_same_bytes(capsys, kronecker2):
    argv = ["F", "--quiver", kronecker2, "--gammas", "1,0", "1,0", "0,1", "--theta", "1,-2"]
    _, out_omega = _run(capsys, argv + ["--mode", "omega"])
    _, out_beta = _run(capsys, argv + ["--mode", "beta"])
    assert out_omega == out_beta


def test_dt_command_a2(capsys, kronecker1):
    code, out = _run(
        capsys, ["dt", "--quiver", kronecker1, "--gamma", "1,1", "--theta", "1,-1"]
    )
    assert code == 0
    assert out == "Omega_bar = 1\nOmega = 1\n"


def test_dt_command_single_vertex_class(capsys, kronecker1):
    code, out = _run(
        capsys, ["dt", "--quiver", kronecker1, "--gamma", "1,0", "--theta", "0,3"]
    )
    assert code == 0
    assert out == "Omega_bar = 1\nOmega = 1\n"


def test_dt_command_attractor_file(capsys, kronecker2, tmp_path):
    table = tmp_path / "attractor.txt"
    table.write_text("default acyclic\ngamma = 1,1 ; omega_star = -y^-1 - y\n")
    code, out = _run(
        capsys,
        ["dt", "--quiver", kronecker2, "--gamma", "1,1", "--theta=-1,1",
         "--attractor", str(table)],
    )
    assert code == 0
    assert out == "Omega_bar = -y^-1 - y\nOmega = -y^-1 - y\n"


def test_f_exit_code_on_degenerate_alpha(capsys, kronecker1):
    # theta = 0 pulls back to a non-generic alpha: sampler failure, exit 3
    code, _ = _run(
        capsys, ["F", "--quiver", kronecker1, "--gammas", "1,0", "0,1", "--theta", "0,0"]
    )
    assert code == 3


def test_dt_exit_codes(capsys, kronecker1):
    code, _ = _run(
        capsys, ["dt", "--quiver", kronecker1, "--gamma", "1,1", "--theta", "1,1"]
    )
    assert code == 2  # theta off the wall: invalid input
    code, _ = _run(
        capsys, ["dt", "--quiver", kronecker1, "--gamma", "1,1", "--theta", "0,0"]
    )
    assert code == 3  # non-generic theta: genericity failure


def test_dt_non_generic_theta_message_prints_plain_rationals(capsys, tmp_path):
    path = tmp_path / "q3.quiver"
    path.write_text("vertices 3\narrow 1 2 2\narrow 2 3 2\narrow 1 3 1\n")
    for theta, shown in (("0,0,0", "(0, 0, 0)"), ("1/2,-1/2,0", "(1/2, -1/2, 0)")):
        code = main(["dt", "--quiver", str(path), "--gamma", "1,1,1", "--theta", theta])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: theta = {shown} is not generic for gamma = (1, 1, 1)\n"


def test_dt_missing_file(capsys):
    code, _ = _run(capsys, ["dt", "--quiver", "/nonexistent", "--gamma", "1,1", "--theta", "1,-1"])
    assert code == 2


def test_unreadable_input_files_exit_2(capsys, tmp_path, kronecker1):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"vertices 2 # caf\xe9\n")
    for bad in (tmp_path, latin1, tmp_path / "missing"):
        for argv in (
            ["F", "--quiver", str(bad), "--gammas", "1,0", "0,1", "--theta", "1,-1"],
            ["dt", "--quiver", str(bad), "--gamma", "1,1", "--theta", "1,-1"],
            ["dt", "--quiver", kronecker1, "--gamma", "1,1", "--theta", "1,-1", "--attractor", str(bad)],
            ["oracle", "rank2", "--quiver", str(bad), "--degree", "2"],
            ["oracle", "rank2", "--m", "1", "--degree", "2", "--attractor", str(bad)],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: cannot read"), argv


def test_oracle_command(capsys):
    code, out = _run(capsys, ["oracle", "rank2", "--m", "1", "--degree", "2"])
    assert code == 0
    assert "ray 1,1 : 1" in out
    for line in out.splitlines():
        assert line.startswith("ray ")


def test_oracle_argument_validation(capsys, kronecker1):
    code, _ = _run(capsys, ["oracle", "rank2", "--degree", "2"])
    assert code == 2
    code, _ = _run(capsys, ["oracle", "rank2", "--m", "1", "--quiver", kronecker1, "--degree", "2"])
    assert code == 2


def test_oracle_on_a_zero_form_exits_2(capsys, tmp_path):
    cancelling = tmp_path / "cancelling.quiver"
    cancelling.write_text("vertices 2\narrow 1 2 1\narrow 2 1 1\n")
    for source in (["--m", "0"], ["--quiver", str(cancelling)]):
        code = main(["oracle", "rank2", *source, "--degree", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", captured.out
        assert captured.err == "error: the skew form is zero, so its rays have no direction\n"
    code, out = _run(capsys, ["check", "oracle", "--m", "0", "--max-dim", "3"])
    assert code == 0 and out.endswith("PASS\n")


def test_check_commands(capsys):
    code, out = _run(capsys, ["check", "multicover", "--trials", "3"])
    assert code == 0 and out.endswith("PASS\n")
    code, out = _run(capsys, ["check", "perturbation", "--r", "2", "--trials", "2"])
    assert code == 0 and out.endswith("PASS\n")
    code, out = _run(capsys, ["check", "joints", "--r", "3", "--trials", "2"])
    assert code == 0 and out.endswith("PASS\n")
    code, out = _run(capsys, ["--format", "machine", "check", "multicover", "--trials", "2"])
    assert code == 0 and out == "result=pass\n"


@pytest.mark.parametrize("kind", ["perturbation", "joints"])
@pytest.mark.parametrize("r", ["0", "11"])
def test_check_r_out_of_range_exits_2(capsys, monkeypatch, kind, r):
    from quiverdt import checks

    # the bound is checked before any instance is built
    monkeypatch.setattr(checks, "random_instance", None)
    code = main(["check", kind, "--r", r, "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: r must be between 1 and 10, got {r}\n", err


# the options each check kind reads; every other (kind, option) pair is refused
CHECK_OPTIONS = {
    "perturbation": ("--r", "--trials"),
    "joints": ("--r", "--trials"),
    "multicover": ("--trials",),
    "oracle": ("--m", "--max-dim"),
}
FOREIGN_OPTIONS = [
    (kind, flag)
    for kind in CHECK_OPTIONS
    for flag in ("--r", "--trials", "--m", "--max-dim")
    if flag not in CHECK_OPTIONS[kind]
]


@pytest.mark.parametrize("kind", sorted(CHECK_OPTIONS))
def test_each_check_kind_takes_the_options_it_reads(kind):
    from quiverdt.cli import build_parser

    argv = ["check", kind]
    for flag in CHECK_OPTIONS[kind]:
        argv += [flag, "2"]
    args = vars(build_parser().parse_args(argv))
    for key in ("seed", "budget", "cache", "format", "command", "kind"):
        del args[key]
    assert args == {flag[2:].replace("-", "_"): 2 for flag in CHECK_OPTIONS[kind]}
    assert sum(map(len, CHECK_OPTIONS.values())) == 7 and len(FOREIGN_OPTIONS) == 9


@pytest.mark.parametrize("kind, flag", FOREIGN_OPTIONS)
def test_option_a_check_kind_does_not_read_exits_2(capsys, monkeypatch, kind, flag):
    from quiverdt import checks

    monkeypatch.setattr(checks, f"check_{kind}", None)  # refused before any work
    code = main(["check", kind, flag, "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert f"unrecognized arguments: {flag} 2" in captured.err, captured.err


# each command's argv, and the commands that read each global flag (the README's
# "read by" column); every other (flag, command) pair is refused
COMMAND_ARGV = {
    "trees": ["trees", "2"],
    "F": ["F", "--quiver", "q", "--gammas", "1,0", "0,1", "--theta", "1,-1"],
    "dt": ["dt", "--quiver", "q", "--gamma", "1,1", "--theta", "1,-1"],
    "oracle rank2": ["oracle", "rank2", "--m", "1", "--degree", "2"],
    **{f"check {kind}": ["check", kind] for kind in CHECK_OPTIONS},
}
CHECKS = [f"check {kind}" for kind in CHECK_OPTIONS]
GLOBAL_READERS = {
    "--seed": ["F", "dt", *CHECKS],
    "--budget": ["F", "dt", "check perturbation", "check joints", "check oracle"],
    "--cache": ["dt"],
    "--format": ["trees", "F", "dt", *CHECKS],
}
FOREIGN_GLOBALS = [
    (flag, command) for flag, readers in GLOBAL_READERS.items() for command in COMMAND_ARGV if command not in readers
]


@pytest.mark.parametrize("flag, command", FOREIGN_GLOBALS)
def test_a_global_flag_a_command_does_not_read_exits_2(capsys, monkeypatch, tmp_path, flag, command):
    from quiverdt import checks, cli

    for module, name in [(cli, "enumerate_trees"), (cli, "flow_tree_scalar"), (cli, "assemble_divisors"),
                         (cli, "reconstruct_rank2"), *((checks, f"check_{kind}") for kind in CHECK_OPTIONS)]:
        monkeypatch.setattr(module, name, None)  # refused before any work
    value = {"--seed": "1", "--budget": "5", "--cache": str(tmp_path / "cache"), "--format": "machine"}[flag]
    code = main([flag, value, *COMMAND_ARGV[command]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert f"{flag} is not read by {command}" in captured.err, captured.err
    assert not (tmp_path / "cache").exists()
    assert len(FOREIGN_GLOBALS) == 13


@pytest.mark.parametrize("flag, command", [(f, c) for f, readers in GLOBAL_READERS.items() for c in readers])
def test_a_global_flag_a_command_reads_is_taken(flag, command):
    from quiverdt.cli import _read_global_flags, build_parser

    value = "machine" if flag == "--format" else "5"
    parser = build_parser()
    args = parser.parse_args([flag, value, *COMMAND_ARGV[command]])
    _read_global_flags(parser, args)
    assert str(vars(args)[flag[2:]]) == value


@pytest.mark.parametrize("text", ["1_0", "\u0663", "1e3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "{v}", "check", "multicover", "--trials", "1"],
        ["--budget", "{v}", "trees", "1"],
        ["trees", "{v}"],
        ["oracle", "rank2", "--m", "{v}", "--degree", "2"],
        ["oracle", "rank2", "--m", "1", "--degree", "{v}"],
        *(["check", kind, flag, "{v}"] for kind, flags in CHECK_OPTIONS.items() for flag in flags),
    ],
    ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "{v}"),
)
def test_integer_options_take_only_the_input_grammar(capsys, monkeypatch, argv, text):
    from quiverdt import checks, cli

    # int() reads '1_0' as 10 and the Arabic-Indic digit as 3; the grammar refuses both before any work
    for name in ("check_perturbation", "check_joints", "check_multicover", "check_oracle"):
        monkeypatch.setattr(checks, name, None)
    monkeypatch.setattr(cli, "enumerate_trees", None)
    monkeypatch.setattr(cli, "reconstruct_rank2", None)
    code = main([a.format(v=text) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert f"bad integer {text!r}" in captured.err, captured.err


def test_integer_options_keep_their_sign(capsys):
    from quiverdt.cli import _integer

    assert (_integer("-3"), _integer("+3")) == (-3, 3)
    runs = [_run(capsys, ["--seed", seed, "check", "perturbation", "--trials", "1"]) for seed in ("3", "+3", "-3")]
    assert [code for code, _ in runs] == [0, 0, 0] and runs[0] == runs[1], runs


def test_budget_reaches_every_check_that_samples(capsys, monkeypatch):
    from quiverdt import checks

    seen = []
    for name in ("flow_tree_scalar", "check_joint_consistency", "assemble_dt"):
        def recording(*args, _name=name, _original=getattr(checks, name), **kwargs):
            seen.append((_name, kwargs.get("budget")))
            return _original(*args, **kwargs)

        monkeypatch.setattr(checks, name, recording)
    for argv in (["perturbation", "--r", "2", "--trials", "2"], ["joints", "--trials", "2"], ["oracle", "--m", "1"]):
        code, out = _run(capsys, ["--budget", "7", "check", *argv])
        assert code == 0 and out.endswith("PASS\n"), out
    assert {name for name, _ in seen} == {"flow_tree_scalar", "check_joint_consistency", "assemble_dt"}
    assert {budget for _, budget in seen} == {7}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["oracle", "rank2", "--m", "2", "--degree"], "--degree"),
        (["check", "oracle", "--m", "2", "--max-dim"], "--max-dim"),
    ],
)
def test_degree_above_its_bound_exits_2(capsys, monkeypatch, argv, flag):
    from quiverdt import checks, cli

    # the bound is checked before any work, and the bound itself passes it
    bound = {"--degree": cli.MAX_DEGREE, "--max-dim": cli.MAX_CHECK_DIM}[flag]
    monkeypatch.setattr(checks, "check_oracle", None)
    monkeypatch.setattr(checks, "rank2_initial_data", None)
    for value in (bound + 1, 10 ** 20):
        code = main([*argv, str(value)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", captured.out
        assert captured.err == f"error: {flag} must be at most {bound}, got {value}\n", captured.err
    # every degree and max-dim that CI and the tests run
    assert cli.MAX_DEGREE >= 13 and cli.MAX_CHECK_DIM >= 8
    cli._check_at_most(flag, bound, bound)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "rank2", "--m", "{n}", "--degree", "3"],
        ["oracle", "rank2", "--quiver", "{q}", "--degree", "3"],
        ["check", "oracle", "--m", "{n}", "--max-dim", "3"],
    ],
    ids=["oracle-m", "oracle-quiver", "check-m"],
)
def test_arrow_count_above_its_bound_exits_2(capsys, monkeypatch, tmp_path, argv):
    from quiverdt import checks, cli

    bound = cli.MAX_ARROWS
    quiver = tmp_path / "reversed.quiver"
    quiver.write_text(f"vertices 2\narrow 2 1 {bound + 1}\n")
    with monkeypatch.context() as patch:  # the bound is checked before any work
        patch.setattr(checks, "check_oracle", None)
        patch.setattr(checks, "rank2_initial_data", None)
        code = main([a.format(n=bound + 1, q=quiver) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert captured.err.startswith("error: "), captured.err
    assert captured.err.endswith(f" must be at most {bound}, got {bound + 1}\n"), captured.err
    # the bound itself runs
    quiver.write_text(f"vertices 2\narrow 2 1 {bound}\n")
    code, out = _run(capsys, [a.format(n=bound, q=quiver) for a in argv])
    assert code == 0 and out, out


@pytest.mark.parametrize("exponent", [101, -101, 100, -100])
def test_attractor_exponent_above_its_bound_exits_2(capsys, kronecker1, tmp_path, exponent):
    from quiverdt.dt import MAX_EXPONENT

    table = tmp_path / "attractor.txt"
    table.write_text(f"gamma = 0,1 ; omega_star = 1\ngamma = 1,0 ; omega_star = 1 + y^{exponent}*t\n")
    code = main(["dt", "--quiver", kronecker1, "--gamma", "2,2", "--theta", "1,-1", "--attractor", str(table)])
    captured = capsys.readouterr()
    if abs(exponent) > MAX_EXPONENT:
        assert code == 2 and captured.out == "", captured.out
        assert captured.err == f"error: line 2: |y-exponent| {abs(exponent)} is above {MAX_EXPONENT}\n"
    else:
        assert code == 0 and captured.out.startswith("Omega_bar = "), captured


@pytest.mark.parametrize("digits", [100, 101])
@pytest.mark.parametrize("place", ["numerator", "denominator"])
def test_attractor_digits_above_their_bound_exit_2(capsys, kronecker1, tmp_path, place, digits):
    from quiverdt.dt import MAX_DIGITS

    big = "9" * digits
    coeff = big if place == "numerator" else f"-1/{big}"
    table = tmp_path / "attractor.txt"
    table.write_text(f"gamma = 0,1 ; omega_star = {coeff}\ngamma = 1,0 ; omega_star = {coeff}*y\n")
    code = main(["dt", "--quiver", kronecker1, "--gamma", "1,1", "--theta", "1,-1", "--attractor", str(table)])
    captured = capsys.readouterr()
    if digits > MAX_DIGITS:
        assert code == 2 and captured.out == "", captured.out
        assert captured.err == f"error: line 1: a coefficient has more than {MAX_DIGITS} digits\n"
    else:
        assert code == 0 and captured.out.startswith("Omega_bar = "), captured


@pytest.mark.parametrize("theta, code", [("1.5,-1.5", 2), ("1e0,-1e0", 2), ("1_0,-1_0", 2), ("3/2,-3/2", 0)])
def test_theta_takes_only_integers_and_fractions(capsys, kronecker1, theta, code):
    assert main(["dt", "--quiver", kronecker1, "--gamma", "1,1", f"--theta={theta}"]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err == f"error: bad covector {theta!r}\n", captured.err
    else:
        assert captured.out == "Omega_bar = 1\nOmega = 1\n"


@pytest.mark.parametrize(
    "where, text",
    [
        ("gamma", "1_0,1"),
        ("gammas", "\u0663,0"),
        ("attractor", "gamma = \u0663,0 ; omega_star = 1\n"),
        ("quiver", "vertices \u0662\narrow 1 2 1\n"),
        ("quiver", "vertices 2\narrow 1 2 1_0\n"),
    ],
)
def test_integers_take_only_ascii_digits(capsys, kronecker1, tmp_path, where, text):
    # int() alone reads '1_0' as 10 and the Arabic-Indic digits as 3 and 2
    path = tmp_path / f"input.{where}"
    path.write_text(text, encoding="utf-8")
    quiver = str(path) if where == "quiver" else kronecker1
    if where == "gammas":
        argv = ["F", "--quiver", quiver, "--gammas", text, "0,3", "--theta", "1,-1"]
    elif where == "gamma":  # read as (10, 1), it lies on the wall of theta
        argv = ["dt", "--quiver", quiver, "--gamma", text, "--theta=1,-10"]
    else:
        argv = ["dt", "--quiver", quiver, "--gamma", "1,1", "--theta", "1,-1"]
        argv += ["--attractor", str(path)] if where == "attractor" else []
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert captured.err.startswith("error: "), captured.err


@pytest.mark.parametrize("where", ["theta", "attractor"])
def test_huge_exponent_literals_exit_2_at_once(kronecker1, tmp_path, where):
    # Fraction("1e100000000") builds a 10^8-digit integer: the grammar has no exponent
    table = tmp_path / "attractor.txt"
    table.write_text("gamma = 1,0 ; omega_star = 1e100000000\n")
    argv = ["dt", "--quiver", kronecker1, "--gamma", "1,1"]
    if where == "theta":
        argv.append("--theta=1e100000000,-1e100000000")
    else:
        argv += ["--theta=1,-1", "--attractor", str(table)]
    done = subprocess.run(
        [sys.executable, "-m", "quiverdt", *argv], capture_output=True, text=True, env=_child_env(), timeout=20
    )
    assert done.returncode == 2 and done.stdout == "", done
    assert done.stderr.startswith("error: "), done.stderr


def test_class_count_above_its_bound_exits_2(capsys, monkeypatch, kronecker1):
    from quiverdt import cli
    from quiverdt.algebra import LaurentPoly

    bound = cli.MAX_CLASSES
    gammas = ["1,0", "0,1"] * (bound // 2) + ["1,0"]
    with monkeypatch.context() as patch:  # the bound is checked before any work
        patch.setattr(cli, "parse_quiver", None)
        patch.setattr(cli, "flow_tree_scalar", None)
        code = main(["F", "--quiver", kronecker1, "--gammas", *gammas, "--theta", "1,-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert captured.err == f"error: the class count of --gammas must be at most {bound}, got {bound + 1}\n"
    # the bound itself runs, here with a stub in place of the flow tree sum
    monkeypatch.setattr(cli, "flow_tree_scalar", lambda aux, **_: LaurentPoly.const(len(aux.gammas)))
    code, out = _run(capsys, ["F", "--quiver", kronecker1, "--gammas", *gammas[:bound], "--theta", "1,-1"])
    assert code == 0 and out == f"{bound}\n", out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "multicover", "--trials", "-1"],
        ["check", "multicover", "--trials", "0"],
        ["check", "perturbation", "--r", "2", "--trials", "0"],
        ["--budget", "-5", "F", "--quiver", "{q}", "--gammas", "1,0", "0,1", "--theta", "1,-1"],
        ["--budget", "0", "dt", "--quiver", "{q}", "--gamma", "1,1", "--theta", "1,-1"],
    ],
)
def test_counts_below_one_exit_2(capsys, kronecker1, argv):
    code = main([a.format(q=kronecker1) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert captured.err.startswith("error: ") and "must be at least 1" in captured.err, captured.err


def test_check_oracle_small(capsys):
    code, out = _run(capsys, ["check", "oracle", "--m", "1", "--max-dim", "3"])
    assert code == 0 and out.endswith("PASS\n")


def test_cache_transparency(capsys, kronecker2, tmp_path):
    argv = ["dt", "--quiver", kronecker2, "--gamma", "2,1", "--theta", "1,-2"]
    _, plain = _run(capsys, argv)
    cache_dir = tmp_path / "fcache"
    _, cached_cold = _run(capsys, ["--cache", str(cache_dir)] + argv)
    _, cached_warm = _run(capsys, ["--cache", str(cache_dir)] + argv)
    assert plain == cached_cold == cached_warm
    files = list(cache_dir.iterdir())
    assert files
    for f in files:
        f.write_text("garbage ]][[")
    _, cached_corrupt = _run(capsys, ["--cache", str(cache_dir)] + argv)
    assert cached_corrupt == plain


def test_f_and_dt_machine_format(capsys, kronecker1):
    code, out = _run(
        capsys,
        ["--format", "machine", "F", "--quiver", kronecker1,
         "--gammas", "1,0", "0,1", "--theta", "1,-1"],
    )
    assert code == 0 and out == "F=1\n"
    code, out = _run(
        capsys,
        ["--format", "machine", "dt", "--quiver", kronecker1,
         "--gamma", "1,1", "--theta", "1,-1"],
    )
    assert code == 0 and out == "omega_bar=1\nomega=1\n"


def test_dt_non_integral_warning(capsys, kronecker1, monkeypatch):
    # when inversion cannot produce a polynomial, the rational value is
    # still printed and the integer line is replaced by a warning
    from quiverdt import cli
    from quiverdt.errors import NotPolynomial

    def boom(*args, **kwargs):
        raise NotPolynomial("injected")

    monkeypatch.setattr(cli, "integer_from_rational", boom)
    code = main(["dt", "--quiver", kronecker1, "--gamma", "1,1", "--theta", "1,-1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "Omega_bar = 1\n"
    assert "warning" in captured.err


@pytest.mark.parametrize(
    "kind, text",
    [
        ("quiver", "vertices x\n"),
        ("quiver", "vertices 2\narrow 1 2 two\n"),
        ("quiver", "vertices 2\narrow 1 2 1\nvertices 1\n"),
        ("attractor", "gamma = 1,1 ; omega_star = y^\n"),
        ("attractor", "gamma = 1,1 ; omega_star = 1/0\n"),
        ("attractor", "gamma = 0,0 ; omega_star = 1\n"),
        ("attractor", "gamma = -1,2 ; omega_star = 1\n"),
        ("attractor", "gamma = 1,2,3 ; omega_star = 1\n"),
        ("attractor", "gamma = 1,1 ; omega_star = 1\ngamma = 1,1 ; omega_star = 5\n"),
        ("attractor", "gamma = 1,1 ; omega_star = 0.5\n"),
        ("attractor", "gamma = 1,1 ; omega_star = 1e3\n"),
        ("attractor", "gamma = 1,1 ; omega_star = 1_0\n"),
        pytest.param("attractor", f"gamma = 1,0 ; omega_star = {'7' * 3000}\n"
                     f"gamma = 0,1 ; omega_star = {'7' * 3000}\n", id="attractor-3000-digits"),
        pytest.param("attractor", f"gamma = 1,1 ; omega_star = 1/{'1' * 101}*y\n", id="attractor-101-digits"),
    ],
)
def test_malformed_files_exit_2(capsys, kronecker1, tmp_path, kind, text):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text)
    quiver = str(bad) if kind == "quiver" else kronecker1
    argv = ["dt", "--quiver", quiver, "--gamma", "1,1", "--theta", "1,-1"]
    if kind == "attractor":
        argv += ["--attractor", str(bad)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: "), err


def test_quiver_with_too_many_vertices_exits_2(capsys, tmp_path):
    big = tmp_path / "big.quiver"
    big.write_text("vertices 3000\n")
    code = main(["dt", "--quiver", str(big), "--gamma", "1,1", "--theta", "1,-1"])
    err = capsys.readouterr().err
    assert code == 2 and "vertex count must be between 1 and" in err, err


@pytest.mark.parametrize("arrows", ["1 2 1001", "1 2 600\narrow 1 2 600", f"1 2 {10 ** 20}"])
@pytest.mark.parametrize("argv", [["dt", "--gamma", "1,1"], ["F", "--gammas", "1,0", "0,1"]])
def test_quiver_with_too_many_arrows_exits_2(capsys, tmp_path, arrows, argv):
    big = tmp_path / "big.quiver"
    big.write_text(f"vertices 2\narrow {arrows}\n")
    code = main([*argv, "--quiver", str(big), "--theta=1,-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert "more than 1000 arrows from 1 to 2" in captured.err and "Traceback" not in captured.err, captured.err


def test_oracle_rejects_attractor_of_wrong_length(capsys, tmp_path):
    bad = tmp_path / "bad.attractor"
    bad.write_text("default acyclic\ngamma = 1,2,3 ; omega_star = 1\n")
    code = main(["oracle", "rank2", "--m", "2", "--degree", "3", "--attractor", str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: "), err


def test_uncreatable_cache_directory_exits_2(capsys, kronecker1, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = ["--cache", str(afile / "sub"), "dt", "--quiver", kronecker1, "--gamma", "1,1",
            "--theta", "1,-1"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: "), err


def test_dt_assembles_each_divisor_class_once(capsys, tmp_path, monkeypatch):
    from quiverdt import cli, dt

    path = tmp_path / "q3.quiver"
    path.write_text("vertices 3\narrow 1 2 2\narrow 2 3 2\narrow 1 3 1\n")
    calls = []
    original = dt.assemble_dt

    def recording(q, gamma, *args, **kwargs):
        calls.append(tuple(gamma))
        return original(q, gamma, *args, **kwargs)

    for module in (cli, dt):
        if getattr(module, "assemble_dt", None) is original:
            monkeypatch.setattr(module, "assemble_dt", recording)
    code, out = _run(
        capsys, ["dt", "--quiver", str(path), "--gamma", "2,2,2", "--theta=-76,-70,146"]
    )
    assert code == 0 and out.startswith("Omega_bar = ") and "\nOmega = " in out
    assert calls == [(2, 2, 2), (1, 1, 1)]


def _child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_command():
    done = subprocess.run(
        [sys.executable, "-m", "quiverdt", "trees", "3"], capture_output=True, env=_child_env(), timeout=60
    )
    assert done.returncode == 0 and done.stdout == TREES_3.encode(), done.stderr


@pytest.mark.parametrize(
    "argv, lines",
    [(["trees", "8"], 1), (["oracle", "rank2", "--m", "2", "--degree", "4"], 0)],
    ids=["trees-after-one-line", "oracle-before-start"],
)
def test_stdout_closed_early_exits_141_quietly(argv, lines):
    # the reader takes `lines` lines and closes its end, as `| head -n lines` does; with 0
    # it closes before the child starts, so even an output short enough to sit in the
    # buffer until the end meets a closed pipe
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end, "rb")
    if not lines:
        reader.close()
    child = subprocess.Popen(
        [sys.executable, "-m", "quiverdt", *argv], stdout=write_end, stderr=subprocess.PIPE, env=_child_env()
    )
    os.close(write_end)
    for _ in range(lines):
        assert reader.readline()
    reader.close()
    _, err = child.communicate(timeout=120)
    assert child.returncode == 141 and err == b"", err


def test_internal_failure_prints_traceback(capsys, monkeypatch):
    from quiverdt import cli

    def boom(args, out):
        out.write("partial\n")
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "_cmd_trees", boom)
    code = main(["trees", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "partial\n"
    assert captured.err.startswith("internal error: injected\nTraceback (most recent call last)")
    assert captured.err.endswith("RuntimeError: injected\n")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM, a Linux procfs field")
def test_f_at_the_largest_rank_peaks_under_60_mb(tmp_path):
    # The omega draws must hold nothing of size 4^r: at r = 10, tables over
    # all mask pairs take the peak resident set of `F` to about 138 MB.  The
    # child reports VmHWM, the peak of its own address space: ru_maxrss
    # would also count the address space of the test process that spawned it.
    from quiverdt.checks import random_instance

    aux = random_instance(10, 0)
    arrows = "".join(
        f"arrow {i + 1} {j + 1} {x}\n" for i, row in enumerate(aux.eta) for j, x in enumerate(row) if x > 0
    )
    path = tmp_path / "r10.quiver"
    path.write_text(f"vertices 10\n{arrows}")
    gammas = [",".join(map(str, g)) for g in aux.gammas]
    theta = ",".join(map(str, aux.alpha))
    child = (
        "import re, sys\n"
        "from pathlib import Path\n"
        "from quiverdt.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "status = Path('/proc/self/status').read_text()\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", child, "F", "--quiver", str(path), "--gammas", *gammas, f"--theta={theta}"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0 and done.stdout.strip(), done.stderr
    assert int(done.stderr.split()[-1]) < 60 * 1024  # kB
