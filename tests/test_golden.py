"""Golden CLI outputs: exit code, stdout and stderr of `dissipctl.cli.main`,
compared byte for byte.

The set is every registry model at default arguments except
``toric_patch(extended)`` (about 10 s per call), run through ``check`` and
through ``scale`` with every theorem, plus ``d-free --mode ds``.  Calls on
models without an aggregate are kept: they pin the exit-1 error paths.
``check --simulate`` is pinned on the models of dimension 2 to 4, whose
ensembles are stepped exactly.

Regenerate the files after an intended output change with

    python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from dissipctl.cli import main
from dissipctl.models import REGISTRY

GOLDEN_DIR = Path(__file__).with_name("golden")

THEOREMS = ("es", "ds", "commuting", "d-free", "inc-es", "inc-ds")
SIMULATED = ("complementary_witnesses", "three_level", "two_level", "two_qubit")


def golden_calls() -> list[list[str]]:
    calls = []
    for name in sorted(REGISTRY):
        calls.append(["check", "--name", name])
        for theorem in THEOREMS:
            calls.append(["scale", "--name", name, "--theorem", theorem])
        calls.append(["scale", "--name", name, "--theorem", "d-free", "--mode", "ds"])
    calls += [["check", "--name", name, "--simulate"] for name in SIMULATED]
    return calls


def golden_path(argv: list[str]) -> Path:
    stem = "_".join(a.lstrip("-") for a in argv if a != "--name")
    return GOLDEN_DIR / f"{stem}.txt"


def run_cli(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one in-process CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("argv", golden_calls(), ids=" ".join)
def test_golden_output(argv):
    expected = golden_path(argv).read_text()
    assert run_cli(argv) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in golden_calls():
        golden_path(argv).write_text(run_cli(argv))
