"""Smoke tests of the scripts in ``scripts/``: each runs with small
arguments, exits 0 and ends with the line it promises, and ends a refused
input with argparse's one-line error.  They call the library directly, so a
change to its API shows up here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(name: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120, cwd=cwd)


def run_script(name: str, *args: str) -> list[str]:
    done = _run(name, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_run_certifications():
    lines = run_script("run_certifications.py")
    assert lines[0].split() == ["model", "candidate", "c_es", "c_ds", "verdict"]
    assert re.fullmatch(r"two_qubit\s+W2\s+-\s+-\s+not certified", lines[-1])


def test_adiabatic_sweep():
    lines = run_script("adiabatic_sweep.py", "--k", "2", "4", "--t-final", "1")
    assert [line.split()[0] for line in lines[1:-1]] == ["2", "4"]
    assert lines[-1] == "monotone over the upper half: True"


def test_cluster_convergence(tmp_path):
    lines = run_script("cluster_convergence.py", "--out-dir", str(tmp_path), "--states", "1")
    csv = tmp_path / "cluster_4q_state0.csv"
    assert lines[-1].startswith(f"state 0: wrote {csv}  final terms W2=")
    assert csv.read_text().splitlines()[0] == "t,W,W2,W3,trace,purity"


@pytest.mark.parametrize("name, args", [
    ("adiabatic_sweep.py", ["--gamma", "0"]),
    ("adiabatic_sweep.py", ["--omega", "inf"]),
    ("adiabatic_sweep.py", ["--t-final", "-1"]),
    ("cluster_convergence.py", ["--qubits", "2"]),
    ("cluster_convergence.py", ["--qubits", "13"]),  # above the construction cap
    ("cluster_convergence.py", ["--t-final", "0"]),
    ("cluster_convergence.py", ["--seed", "-1"]),
    ("run_certifications.py", ["--seed", "-1", "--simulate"]),
])
def test_refused_input_is_a_usage_error(name, args, tmp_path):
    done = _run(name, *args, cwd=tmp_path)  # cluster_convergence writes to ./cluster_runs
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert re.fullmatch(rf"{re.escape(name)}: error: .+", done.stderr.splitlines()[-1])
    assert done.stdout == ""
