"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
Criterion 9, the fast-ancilla reduction, is in ``test_scripts.py``, beside
the script that holds it."""

import time

import numpy as np
import pytest

from dissipctl.lindblad import (
    dissipation_functional,
    evolve,
    generator,
    LindbladModel,
)
from dissipctl.linalg import TensorStructure, commutator, haar_pure_state, hermitian_part
from dissipctl.models import (
    cluster_chain,
    three_level_example,
    toric_patch,
    two_level_example,
    two_qubit_aggregation_example,
)
from dissipctl.scalability import (
    check_corollary_commuting,
    check_incremental,
    simulate_aggregate,
)
from dissipctl.stability import check_condition_ds, check_condition_es
from oracles import (
    check_factorizable,
    check_scalability_condition,
    dense_view,
    expectation,
    ground_space,
    haar_unitary,
    kron,
    pinv,
    random_hermitian,
    random_projection,
    synthesize_pinv,
)


def _announce(number: int, runtime: float, summary: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS ({runtime:.2f}s) - {summary}")


def test_acceptance_1_three_level_exact_algebra():
    t0 = time.perf_counter()
    m = three_level_example()
    v = m.candidates["V"]
    assert np.max(np.abs(generator(v, m.model) - np.diag([0, 0, -1.0]))) <= 1e-12
    assert np.max(np.abs(dissipation_functional(v, m.model) - np.diag([0, 2.0, 1.0]))) <= 1e-12
    assert check_condition_ds(v, m.model) == pytest.approx(0.5, abs=1e-6)
    assert check_condition_es(v, m.model) is None
    runtime = time.perf_counter() - t0
    assert runtime < 1.0
    _announce(1, runtime, "ladder-system drift/dissipation algebra and constants")


def test_acceptance_2_two_level_dynamics():
    t0 = time.perf_counter()
    m = two_level_example(l00=0.0, l10=1.0)
    v = m.candidates["V"]
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = evolve(m.model, rho0, 20.0, observables={"V": v})
    assert np.linalg.norm(traj.final_state() - np.diag([0.0, 1.0]), 2) < 1e-6
    ev = traj.observables["V"]
    assert np.all(ev <= np.exp(-traj.times) * ev[0] + 1e-6)
    runtime = time.perf_counter() - t0
    assert runtime < 1.0
    _announce(2, runtime, "relaxation to the pure lower level at unit rate")


def test_acceptance_3_projection_synthesis():
    t0 = time.perf_counter()
    v = np.diag([1.0, 0.0]).astype(complex)
    assert np.array_equal(pinv(kron(v.T, v)), np.diag([1.0, 0, 0, 0]))
    full = synthesize_pinv(v, c=1.0, seed=0)
    assert abs(full.coupling[0, 0]) <= 1e-9
    assert abs(full.coupling[1, 0]) == pytest.approx(1.0, abs=1e-9)
    partial = synthesize_pinv(v, c=0.64, seed=0)
    assert partial.coupling[0, 0].real == pytest.approx(0.6, abs=1e-9)
    assert abs(partial.coupling[0, 0].imag) <= 1e-9
    assert abs(partial.coupling[1, 0]) ** 2 == pytest.approx(0.64, abs=1e-9)
    runtime = time.perf_counter() - t0
    assert runtime < 1.0
    _announce(3, runtime, "coupling synthesis via pseudoinverse + bilinear system")


def test_acceptance_4_two_qubit_aggregation():
    t0 = time.perf_counter()
    m = two_qubit_aggregation_example()
    total = m.aggregate.total()
    assert np.array_equal(total, np.diag([2.0, 1.0, 0.0, 1.0]))
    holds, info = check_incremental(m.aggregate, 1, 1.0, d_free=True)
    assert holds
    assert info["margin"] >= -1e-9
    runtime = time.perf_counter() - t0
    assert runtime < 1.0
    _announce(4, runtime, "ground-energy-free aggregation certificate at c = 1")


def test_acceptance_5_cluster_chain():
    t0 = time.perf_counter()
    m = cluster_chain(4)
    view = dense_view(m.aggregate)
    terms, unitaries = view.terms, view.unitaries
    for a in range(len(terms)):
        for b in range(a + 1, len(terms)):
            assert np.linalg.norm(commutator(terms[a], terms[b])) <= 1e-12
    for t_idx, w in enumerate(terms):
        for u_idx, u in enumerate(unitaries):
            if u_idx != t_idx:
                assert np.linalg.norm(commutator(u, w)) <= 1e-12
    report = check_corollary_commuting(m.aggregate)
    assert report.overall

    gs = ground_space(sum(terms))
    rng = np.random.default_rng(2024)
    for _ in range(5):
        psi = haar_pure_state(rng, 16)
        traj = simulate_aggregate(m.aggregate, 30.0, rho0=np.outer(psi, psi.conj()),
                                  n_samples=61)
        for name in m.aggregate.names():
            assert traj.observables[name][-1] < 1e-4
        assert expectation(gs.projector, traj.final_state()) > 0.999
    runtime = time.perf_counter() - t0
    assert runtime < 60.0
    _announce(5, runtime, "cluster chain certified and driven into its ground space")


def test_acceptance_6_toric_patch():
    t0 = time.perf_counter()
    base = toric_patch()
    gs = ground_space(base.aggregate.total())
    assert gs.dimension == 16

    ext = toric_patch(extended=True)
    view = dense_view(ext.aggregate)
    z1, v3 = view.unitaries[0], view.terms[2]
    assert np.linalg.norm(commutator(z1, v3)) > 1.0
    ok, margin = check_scalability_condition(ext.aggregate, 2, 0)
    assert ok
    assert margin >= -1e-9
    runtime = time.perf_counter() - t0
    assert runtime < 30.0
    _announce(6, runtime, "stabilizer-patch commutators, cross condition, ground space")


def test_acceptance_7_factorizability():
    t0 = time.perf_counter()
    m = three_level_example()
    v = m.candidates["V"]
    l2 = m.model.couplings[1].matrix  # on the one site
    chk = check_factorizable(l2, v)
    assert not chk.factorizable
    delta = l2.conj().T @ l2 - v @ v
    assert abs(chk.witness.conj() @ delta @ chk.witness) > 0.5

    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        u = haar_unitary(rng, n)
        proj = random_projection(rng, n, int(rng.integers(1, n + 1)))
        got = check_factorizable(u @ proj, proj)
        assert got.factorizable
        assert np.linalg.norm(got.unitary @ proj - u @ proj) <= 1e-9
    runtime = time.perf_counter() - t0
    _announce(7, runtime, "factorization is decided with witnesses both ways")


def test_acceptance_8_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)

    # trace preservation along a trajectory
    m3 = three_level_example()
    traj = evolve(m3.model, np.eye(3, dtype=complex) / 3, 10.0)
    assert np.all(np.abs(traj.traces() - 1.0) <= 1e-8)

    # dissipation operator PSD on 200 random (observable, coupling) pairs
    for _ in range(200):
        n = int(rng.integers(2, 5))
        x = random_hermitian(rng, n)
        ls = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
        model = LindbladModel(TensorStructure((n,)), np.zeros((n, n), dtype=complex), ls)
        w = np.linalg.eigvalsh(hermitian_part(dissipation_functional(x, model)))
        assert w[0] >= -1e-10 * max(1.0, np.abs(w).max())

    # exact square expansion of the shifted drift on 100 random instances
    for _ in range(100):
        n = int(rng.integers(2, 5))
        ls = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
        model = LindbladModel(TensorStructure((n,)), random_hermitian(rng, n), ls)
        x = random_hermitian(rng, n)
        g = generator(x, model)
        c = float(rng.uniform(0.2, 5.0))
        lhs = (x @ g + g @ x) / c + x @ x + g @ g / c**2
        rhs = (x + g / c) @ (x + g / c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.abs(rhs).max())

    # Ehrenfest consistency of sampled means against the drift
    mdl = LindbladModel(TensorStructure((3,)), random_hermitian(rng, 3),
                        [0.7 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))])
    x = random_hermitian(rng, 3)
    psi = haar_pure_state(rng, 3)
    traj = evolve(mdl, np.outer(psi, psi.conj()), 2.0, n_samples=401, observables={"x": x})
    ev = traj.observables["x"]
    dt = traj.times[1] - traj.times[0]
    deriv = (-ev[4:] + 8 * ev[3:-1] - 8 * ev[1:-3] + ev[:-4]) / (12 * dt)
    drift = np.array([expectation(generator(x, mdl), s) for s in traj.states[2:-2]])
    assert np.max(np.abs(deriv - drift)) < 1e-5

    # exponential-certificate constant bounds 20 sampled trajectories
    m2 = two_level_example()
    v = m2.candidates["V"]
    c_es = check_condition_es(v, m2.model)
    for _ in range(20):
        psi = haar_pure_state(rng, 2)
        traj = evolve(m2.model, np.outer(psi, psi.conj()), 10.0, observables={"V": v})
        ev = traj.observables["V"]
        assert np.all(ev <= np.exp(-c_es * traj.times) * ev[0] + 1e-6)

    runtime = time.perf_counter() - t0
    _announce(8, runtime, "trace/positivity/drift identities and envelope properties")
