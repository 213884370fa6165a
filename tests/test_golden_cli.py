"""CLI output bytes and exit codes pinned against recorded runs.

``golden_cli.json`` holds, for each case below, the exit code and stdout
of every command line of the case, in order.  A case runs in a fresh
directory that holds the quiver files and an empty cache directory, and
must reproduce the recorded bytes.  Two cases also run as ``python -m
quiverdt`` in a child that cannot import numpy: the program has no
runtime dependency, and its draws must not need one.  A difference is a change of the CLI contract.  Record
the file anew (only for an intended change) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quiverdt.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

FILES = {
    "k2": "vertices 2\narrow 1 2 2\n",
    "k2r": "vertices 2\narrow 2 1 2\n",
    "q3": "vertices 3\narrow 1 2 2\narrow 2 3 2\narrow 1 3 1\n",
}

F_K2 = ["F", "--quiver", "{k2}", "--gammas", "1,0", "1,0", "0,1", "--theta", "1,-2"]
DT_Q3 = ["--cache", "{cache}", "dt", "--quiver", "{q3}", "--gamma", "2,2,1",
         "--theta", "39,34,-146"]

CASES = {
    "trees_4": [["trees", "4"]],
    "f_omega_k2": [F_K2 + ["--mode", "omega"]],
    "f_beta_k2": [F_K2 + ["--mode", "beta"]],
    "f_q3_r5": [["F", "--quiver", "{q3}", "--gammas", "1,0,0", "1,0,0", "0,1,0", "0,1,0",
                 "0,0,1", "--theta", "39,34,-146"]],
    "dt_cache_cold_then_warm": [DT_Q3, DT_Q3],
    "oracle_rank2": [["oracle", "rank2", "--m", "2", "--degree", "4"]],
    "oracle_rank2_reversed": [["oracle", "rank2", "--quiver", "{k2r}", "--degree", "5"]],
    "check_perturbation": [["check", "perturbation", "--r", "4"]],
    "check_joints": [["check", "joints", "--r", "3"]],
    "check_oracle": [["check", "oracle", "--m", "2", "--max-dim", "4"]],
}


def write_files(directory: Path) -> dict:
    """Write the quiver files into directory; their paths and the cache path by key."""
    paths = {"cache": str(directory / "cache")}
    for key, text in FILES.items():
        path = directory / f"{key}.quiver"
        path.write_text(text)
        paths[key] = str(path)
    return paths


def run_case(name, directory: Path, extra, capture):
    """(exit code, stdout) of each command line of the case, run in directory."""
    paths = write_files(directory)
    runs = []
    for argv in CASES[name]:
        code = main(extra + [arg.format(**paths) for arg in argv])
        runs.append([code, capture()])
    return runs


@pytest.mark.parametrize("extra", [[]], ids=["plain"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_bytes(name, extra, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path, extra, lambda: capsys.readouterr().out) == expected


def _run_child(code: str, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env, timeout=120)


WITHOUT_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "runpy.run_module('quiverdt', run_name='__main__')\n"
)


@pytest.mark.parametrize("name", ["check_perturbation", "f_q3_r5"])
def test_golden_cli_bytes_without_numpy(name, tmp_path):
    expected = [[code, out.encode()] for code, out in json.loads(GOLDEN.read_text())[name]]
    paths = write_files(tmp_path)
    runs = []
    for argv in CASES[name]:
        done = _run_child(WITHOUT_NUMPY, *[arg.format(**paths) for arg in argv])
        runs.append([done.returncode, done.stdout])
    assert runs == expected, done.stderr


def test_cli_import_loads_no_numpy():
    done = _run_child("import sys, quiverdt.cli\nprint('numpy' in sys.modules)\n")
    assert done.returncode == 0 and done.stdout == b"False\n", done.stderr


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    recorded = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            buffer = io.StringIO()

            def drain():
                text = buffer.getvalue()
                buffer.seek(0)
                buffer.truncate()
                return text

            with contextlib.redirect_stdout(buffer):
                recorded[case] = run_case(case, Path(tmp), [], drain)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
