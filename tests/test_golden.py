"""Golden CLI outputs: exit code, stdout and stderr of `dissipctl.cli.main`,
compared byte for byte.

The set is every registry model at default arguments, and
``toric_patch(extended)``, run through ``check`` and through ``scale`` with
every theorem, plus ``d-free --mode ds``.  ``toric_patch(extended)`` is the
one aggregate that ``es`` and ``ds`` refuse on a scalability margin and
whose ``commuting`` report names a failing clause.  Calls on
models without an aggregate are kept: they pin the exit-1 error paths.
``check --simulate`` is pinned on the models of dimension 2 to 4, whose
Heisenberg series take the Krylov steps of every other dimension.
``synthesize`` is pinned on the candidate files in ``golden/inputs``:
dilations, a two-channel split, a non-projection with V^2 >= V, the rank
obstruction with and without ``--c`` (the latter tries c = 1, then 1/2), the
norm obstruction and a non-projection coupling below its target constant
(exit 3), and malformed numbers in the file (exit 1).

Regenerate the files after an intended output change with

    python tests/test_golden.py

which, like pytest, pins one BLAS thread through ``conftest`` before numpy
loads.
"""

import conftest  # noqa: F401  (first: pins one BLAS thread before numpy loads)

import contextlib
import io
from pathlib import Path

import pytest

from dissipctl.cli import main
from dissipctl.models import REGISTRY

GOLDEN_DIR = Path(__file__).with_name("golden")
INPUT_DIR = GOLDEN_DIR / "inputs"

NAMES = (*sorted(REGISTRY), "toric_patch(extended)")
THEOREMS = ("es", "ds", "commuting", "d-free", "inc-es", "inc-ds")
SIMULATED = ("complementary_witnesses", "three_level", "two_level", "two_qubit")
SYNTHESIZED = (
    ("projection_rank1", "--c", "1"),
    ("projection_rank1", "--c", "0.64"),
    ("projection_rank1", "--c", "1", "--channels", "2"),
    ("projection_rank3", "--c", "0.5"),
    ("projection_rank3",),
    ("nonprojection_rank2", "--c", "0.5"),
    ("nonprojection_es", "--c", "0.5"),
    ("nonprojection_dominated", "--c", "0.5"),
    ("malformed_c_nan",),
    ("malformed_c_word",),
    ("malformed_channels_bool", "--c", "1"),
    ("malformed_channels_fraction", "--c", "1"),
    ("malformed_channels_word", "--c", "1"),
)


def golden_calls() -> list[list[str]]:
    calls = []
    for name in NAMES:
        calls.append(["check", "--name", name])
        for theorem in THEOREMS:
            calls.append(["scale", "--name", name, "--theorem", theorem])
        calls.append(["scale", "--name", name, "--theorem", "d-free", "--mode", "ds"])
    calls += [["check", "--name", name, "--simulate"] for name in SIMULATED]
    calls += [["synthesize", "--v", str(INPUT_DIR / f"{stem}.json"), *rest]
              for stem, *rest in SYNTHESIZED]
    return calls


def _shown(arg: str) -> str:
    """An input file by its name alone, so ids and file names do not depend
    on where the tests live."""
    return Path(arg).name if arg.endswith(".json") else arg


def golden_path(argv: list[str]) -> Path:
    stem = "_".join(_shown(a).removesuffix(".json").lstrip("-")
                    for a in argv if a not in ("--name", "--v"))
    return GOLDEN_DIR / f"{stem}.txt"


def run_cli(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one in-process CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("argv", golden_calls(), ids=lambda argv: " ".join(map(_shown, argv)))
def test_golden_output(argv):
    expected = golden_path(argv).read_text()
    assert run_cli(argv) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in golden_calls():
        golden_path(argv).write_text(run_cli(argv))
