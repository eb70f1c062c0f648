"""The script in ``scripts/``: it runs with small arguments, exits 0 and ends
with the line it promises, and ends a refused input with argparse's
one-line error.  The fast-ancilla (adiabatic elimination) check it runs is
defined in the script, loaded here from its file and tested as a library."""

import importlib.util
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dissipctl import lindblad
from dissipctl.errors import DimensionCapError, PreconditionError
from dissipctl.lindblad import LindbladModel, evolve, generator_single_channel
from dissipctl.linalg import TensorStructure
from dissipctl.models import three_level_example, two_level_example
from oracles import random_density, random_hermitian

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    """The script `name` as a module, registered as the dataclasses need."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load("adiabatic_sweep")


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


def test_adiabatic_sweep():
    lines = run_script("adiabatic_sweep.py", "--k", "2", "4", "--t-final", "1")
    assert [line.split()[0] for line in lines[1:-1]] == ["2", "4"]
    assert lines[-1] == "monotone over the upper half: True"


@pytest.mark.parametrize("args", [
    ["--gamma", "0"],
    ["--omega", "inf"],
    ["--t-final", "-1"],
    ["--t-final", "nan"],  # NaN passed a test of t_final <= 0
])
def test_refused_input_is_a_usage_error(args, tmp_path):
    done = _run("adiabatic_sweep.py", *args, cwd=tmp_path)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert re.fullmatch(r"adiabatic_sweep\.py: error: .+", done.stderr.splitlines()[-1])
    assert done.stdout == ""
    assert not any(tmp_path.iterdir())


class TestAdiabaticLimit:
    def test_decoupled_system_has_zero_error(self):
        m = LindbladModel(TensorStructure((2,)), np.zeros((2, 2), dtype=complex),
                          [np.zeros((2, 2), dtype=complex)])
        rep = sweep.adiabatic_limit_check(m, 1.0, 1.0, [2, 4], 2.0)
        assert max(rep.errors) < 1e-10

    def test_two_level_error_shrinks_with_k(self):
        m = two_level_example()
        rep = sweep.adiabatic_limit_check(m.model, 1.0, 1.0, [2, 4, 8, 16], 8.0)
        assert rep.errors[-1] < rep.errors[0]
        assert rep.monotone_tail

    def test_generator_invariances_behind_the_limit_model(self):
        # phase invariance and quadratic rate scaling of the dissipator
        rng = np.random.default_rng(10)
        x = random_hermitian(rng, 3)
        l = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        phase = np.exp(1j * 0.7)
        assert np.allclose(generator_single_channel(x, phase * l),
                           generator_single_channel(x, l), atol=1e-12)
        s = 1.7
        assert np.allclose(generator_single_channel(x, s * l),
                           s**2 * generator_single_channel(x, l), atol=1e-12)

    def test_limit_model_is_a_rate_rescaling_of_the_bare_coupling(self):
        # scaling L -> sL compresses time by s^2 (checked dynamically)
        rng = np.random.default_rng(11)
        l = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s = 2.0 / np.sqrt(1.0)  # the limit prefactor magnitude at omega=gamma=1
        structure = TensorStructure((2,))
        h0 = np.zeros((2, 2), dtype=complex)
        bare = LindbladModel(structure, h0, [l])
        scaled = LindbladModel(structure, h0, [s * l])
        rho0 = np.diag([0.75, 0.25]).astype(complex)
        slow = evolve(bare, rho0, 4.0, n_samples=9)
        fast = evolve(scaled, rho0, 4.0 / s**2, n_samples=9)
        for a, b in zip(slow.states, fast.states):
            assert np.linalg.norm(a - b) < 1e-7

    def test_error_shrinks_for_generic_parameters(self):
        m = two_level_example()
        rep = sweep.adiabatic_limit_check(m.model, omega=0.7, gamma=2.3, k_list=[4, 16],
                                          t_final=10.0)
        assert rep.errors[1] < rep.errors[0] / 2

    def test_requires_single_channel(self):
        m = three_level_example()
        with pytest.raises(PreconditionError):
            sweep.adiabatic_limit_check(m.model, 1.0, 1.0, [2, 4], 1.0)

    def test_joint_dimension_cap(self):
        n = lindblad._SIM_MAX_DIM // 2 + 1  # the joint system has dimension 2n
        big = LindbladModel(TensorStructure((n,)), np.zeros((n, n)), [np.zeros((n, n))])
        with pytest.raises(DimensionCapError, match=f"^dimension {2 * n} exceeds"):
            sweep.adiabatic_limit_check(big, 1.0, 1.0, [2, 4], 1.0)

    def test_k_list_must_ascend(self):
        m = two_level_example()
        with pytest.raises(PreconditionError):
            sweep.adiabatic_limit_check(m.model, 1.0, 1.0, [4, 2], 1.0)

    @pytest.mark.parametrize("omega, gamma, bad", [
        (1.0, 0.0, "gamma"), (1.0, -1.0, "gamma"), (1.0, np.inf, "gamma"), (1.0, np.nan, "gamma"),
        (np.nan, 1.0, "omega"), (-np.inf, 1.0, "omega"),
    ], ids=["gamma-zero", "gamma-negative", "gamma-inf", "gamma-nan", "omega-nan", "omega-inf"])
    def test_refuses_a_bad_rate(self, monkeypatch, omega, gamma, bad):
        # gamma = 0 ended in expm's NaN traceback, gamma < 0 in a RuntimeWarning
        # of np.sqrt; each is refused by name before any propagation
        monkeypatch.setattr(sweep, "evolve", None)
        with pytest.raises(PreconditionError, match=f"^{bad} must be finite"):
            sweep.adiabatic_limit_check(two_level_example().model, omega, gamma, [2, 4], 1.0)

    def test_refuses_above_the_cap(self):
        # the simulation cap's one message, before any state of the joint space is built
        cap = lindblad._SIM_MAX_DIM
        n = cap // 2 + 1
        model = LindbladModel(TensorStructure((n,)), np.zeros((n, n)), [np.zeros((n, n))])
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapError) as err:
                sweep.adiabatic_limit_check(model, 1.0, 1.0, [2, 4], 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"dimension {2 * n} exceeds the simulation cap {cap}"
        assert peak < 1e6

    @pytest.mark.parametrize("t_final", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_refuses_a_horizon_that_is_not_finite_and_positive(self, t_final, monkeypatch):
        # the message of every simulation entry point, before any propagation
        reached = []
        monkeypatch.setattr(lindblad, "_samples", lambda *args: reached.append("_samples"))
        with pytest.raises(PreconditionError,
                           match=f"^t-final: must be finite and positive, got {t_final}$"):
            sweep.adiabatic_limit_check(two_level_example().model, 1.0, 1.0, [2, 4], t_final)
        assert reached == []


def test_acceptance_9_adiabatic_elimination():
    # criterion 9 of tests/test_acceptance.py, which runs criteria 1-8
    t0 = time.perf_counter()
    m = two_level_example()
    report = sweep.adiabatic_limit_check(m.model, omega=1.0, gamma=1.0,
                                         k_list=[4, 8, 16], t_final=8.0)
    assert all(b <= a for a, b in zip(report.errors, report.errors[1:]))
    assert report.errors[-1] < 0.05
    runtime = time.perf_counter() - t0
    assert runtime < 30.0
    print(f"\nACCEPTANCE 9: PASS ({runtime:.2f}s) - "
          "fast-ancilla reduction converges to the limit coupling")


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert sweep.trace_distance(a, b) == pytest.approx(1.0)
    assert sweep.trace_distance(a, a) == pytest.approx(0.0)


def test_trace_distance_of_stacks_is_taken_pairwise():
    rng = np.random.default_rng(5)
    a = np.array([random_density(rng, 3) for _ in range(4)])
    b = np.array([random_density(rng, 3) for _ in range(4)])
    stacked = sweep.trace_distance(a, b)
    assert stacked.shape == (4,)
    assert np.array_equal(stacked, [sweep.trace_distance(x, y) for x, y in zip(a, b)])


def test_partial_trace_last_of_a_product_stack():
    # tr_2(a (x) b) = a tr(b), for every member of a stack
    rng = np.random.default_rng(9)
    a = np.array([random_hermitian(rng, 3) for _ in range(5)])
    b = np.array([random_hermitian(rng, 2) + 1j * np.eye(2) for _ in range(5)])
    products = np.array([np.kron(x, y) for x, y in zip(a, b)])
    reduced = sweep.partial_trace_last(products, 3, 2)
    assert reduced.shape == (5, 3, 3)
    assert np.allclose(reduced, a * np.trace(b, axis1=-2, axis2=-1)[:, None, None],
                       rtol=0, atol=1e-13)
    assert np.allclose(sweep.partial_trace_last(products[0], 3, 2), a[0] * np.trace(b[0]),
                       rtol=0, atol=1e-13)
