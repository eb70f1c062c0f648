import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dissipctl import cli, lindblad
from dissipctl.errors import (
    DimensionMismatchError,
    IntegrationError,
    NonHermitianError,
    PreconditionError,
    StateValidityError,
)
from dissipctl.lindblad import (
    LindbladModel,
    adiabatic_limit_check,
    dissipation_functional,
    dissipation_single_channel,
    evolve,
    generator,
    generator_single_channel,
    liouvillian,
    maximally_mixed,
    partial_trace_last,
    trace_distance,
    validate_density_state,
)
from dissipctl.linalg import (
    PAULI_Z, SIGMA_MINUS, LocalOperator, TensorStructure, dagger, expm, hermitian_part,
)
from dissipctl.models import REGISTRY, build, three_level_example, two_level_example
from oracles import (
    DenseModel,
    dense_view,
    expectation,
    is_stationary,
    random_density,
    random_hermitian,
    rk45_samples,
    stationary_state,
    vec,
)


def random_model(rng, n, k=2):
    h = random_hermitian(rng, n)
    ls = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(k)]
    return LindbladModel(TensorStructure((n,)), h, ls)


class TestGenerator:
    def test_three_level_exact(self):
        m = three_level_example()
        v = m.candidates["V"]
        g = generator(v, m.model)
        assert np.allclose(g, np.diag([0, 0, -1.0]), atol=1e-12)

    def test_identity_is_conserved(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, 4)
        assert np.linalg.norm(generator(np.eye(4, dtype=complex), m)) < 1e-12

    def test_two_level_witness_decays_at_unit_rate(self):
        w1 = np.diag([1.0, 0.0]).astype(complex)
        g = generator_single_channel(w1, SIGMA_MINUS)
        assert np.allclose(g, -w1, atol=1e-14)

    def test_single_channel_conserves_identity(self):
        rng = np.random.default_rng(14)
        l = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.linalg.norm(generator_single_channel(np.eye(3, dtype=complex), l)) < 1e-12

    def test_single_channel_additivity(self):
        m = three_level_example()
        v = m.candidates["V"]
        per_channel = [generator_single_channel(v, l.matrix) for l in m.model.couplings]
        # hand-computed per-channel contributions
        assert np.allclose(per_channel[0], np.diag([0, -1.0, 0]), atol=1e-14)
        assert np.allclose(per_channel[1], np.diag([0, 1.0, -1.0]), atol=1e-14)
        assert np.allclose(sum(per_channel), generator(v, m.model), atol=1e-14)

    def test_drift_sums_the_channels_in_list_order(self):
        # the Hamiltonian term first, then one channel at a time: bit for bit
        rng = np.random.default_rng(3)
        m = random_model(rng, 4, k=3)
        x = random_hermitian(rng, 4)
        h = m.hamiltonian.matrix  # a matrix is held on every site
        g = -1j * (x @ h - h @ x)
        d = np.zeros_like(x)
        for l in m.couplings:
            g = g + generator_single_channel(x, l.matrix)
            d = d + dissipation_single_channel(x, l.matrix)
        assert np.array_equal(generator(x, m), g)
        assert np.array_equal(dissipation_functional(x, m), d)

    def test_rejects_non_hermitian(self):
        m = two_level_example()
        with pytest.raises(NonHermitianError):
            generator(SIGMA_MINUS, m.model)


class TestDissipationFunctional:
    def test_three_level_exact(self):
        m = three_level_example()
        d = dissipation_functional(m.candidates["V"], m.model)
        assert np.allclose(d, np.diag([0, 2.0, 1.0]), atol=1e-12)

    def test_identity_vanishes(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 3)
        assert np.linalg.norm(dissipation_functional(np.eye(3, dtype=complex), m)) < 1e-12

    def test_general_qubit_coupling_formula(self):
        # single channel against diag(1, 0): diag(|l10|^2, |l01|^2)
        rng = np.random.default_rng(2)
        v = np.diag([1.0, 0.0]).astype(complex)
        for _ in range(10):
            l = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            d = dissipation_single_channel(v, l)
            expected = np.diag([abs(l[1, 0]) ** 2, abs(l[0, 1]) ** 2])
            assert np.allclose(d, expected, atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_psd_and_matches_defining_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = random_model(rng, n)
        x = random_hermitian(rng, n)
        d = dissipation_functional(x, m)
        w = np.linalg.eigvalsh(hermitian_part(d))
        assert w[0] >= -1e-10 * max(1.0, np.abs(w).max())
        # defining form G(x^2) - G(x) x - x G(x); Hamiltonian part cancels
        alt = generator(x @ x, m) - generator(x, m) @ x - x @ generator(x, m)
        assert np.allclose(d, alt, atol=1e-9 * max(1.0, np.linalg.norm(d)))


class TestOneKernelPath:
    """`generator` and `dissipation_functional` add each kernel on the sites
    of its own operators; `oracles` keeps the dense kernel, every product on
    the whole space."""

    @pytest.mark.parametrize("name", [*sorted(REGISTRY), "toric_patch(extended)",
                                      "cluster_chain(8)"])
    def test_registry_bitwise(self, name):
        named = build(name)
        model = named.model
        dense = oracles.DenseModel.of(model)
        for key, v in named.candidates.items():
            x = oracles.dense_candidate(v, model.structure)
            for new, old in ((generator(v, model), oracles.generator(x, dense)),
                             (dissipation_functional(v, model),
                              oracles.dissipation_functional(x, dense))):
                assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), key

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_models_agree(self, data):
        dims = data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3), label="dims")
        structure = TensorStructure(dims)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))

        def operator(hermitian: bool, local: bool):
            """A random operator: on a random set of sites, or a matrix."""
            sites = structure.sites
            if local:
                sites = tuple(sorted(data.draw(st.sets(st.sampled_from(structure.sites)),
                                               label="sites")))
            n = int(np.prod([dims[s - 1] for s in sites]))
            a = (random_hermitian(rng, n) if hermitian
                 else rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            return LocalOperator(sites, a) if local else a

        h = operator(True, data.draw(st.booleans(), label="local H"))
        couplings = [operator(False, data.draw(st.booleans(), label="local L"))
                     for _ in range(data.draw(st.integers(0, 3), label="channels"))]
        model = LindbladModel(structure, h, couplings)
        if data.draw(st.booleans(), label="x as terms"):
            x = [operator(True, True) for _ in range(data.draw(st.integers(1, 3), label="terms"))]
        else:
            x = operator(True, False)
        dense, x_dense = oracles.DenseModel.of(model), oracles.dense_candidate(x, structure)
        for new, old in ((generator(x, model), oracles.generator(x_dense, dense)),
                         (dissipation_functional(x, model),
                          oracles.dissipation_functional(x_dense, dense))):
            assert np.linalg.norm(new - old) <= 1e-12 * max(1.0, np.linalg.norm(old))

    def test_a_dense_matrix_is_held_on_every_site(self):
        model = LindbladModel(TensorStructure((2, 3)), np.zeros((6, 6)), [np.eye(6)])
        assert model.hamiltonian.sites == model.couplings[0].sites == (1, 2)
        with pytest.raises(DimensionMismatchError, match="coupling 0 dim 4 != 6"):
            LindbladModel(TensorStructure((2, 3)), np.zeros((6, 6)), [np.eye(4)])
        with pytest.raises(DimensionMismatchError, match="observable dim 2 != 6"):
            generator(np.eye(2), model)


class TestLiouvillian:
    def test_trivial_model(self):
        m = LindbladModel(TensorStructure((2,)), np.zeros((2, 2), dtype=complex), [])
        assert np.linalg.norm(liouvillian(m)) == 0.0

    def test_trace_preservation(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 3)
        lam = liouvillian(m)
        assert np.linalg.norm(vec(np.eye(3, dtype=complex)).conj() @ lam) < 1e-10

    def test_two_level_equilibrium_in_kernel(self):
        m = two_level_example()
        lam = liouvillian(m.model)
        assert np.linalg.norm(lam @ vec(np.diag([0.0, 1.0]))) < 1e-12

    def test_exponential_matches_rk(self):
        # the RK45 oracle of evolve above dim 16, driven at dim 3, where
        # evolve itself steps with expm
        rng = np.random.default_rng(4)
        m = random_model(rng, 3)
        rho0 = random_density(rng, 3)
        times = np.linspace(0.0, 1.5, 4)
        lam = liouvillian(m)
        states = list(rk45_samples(m, rho0[None], times, 0.015, 1e-9, 1e-9))
        assert len(states) == len(times)
        for t, state in zip(times, states):
            direct = (expm(lam, t) @ vec(rho0)).reshape(3, 3, order="F")
            assert np.linalg.norm(direct - state[0]) < 1e-8

    def test_stationary_state(self):
        m = two_level_example()
        rho = stationary_state(m.model)
        assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-10)
        assert is_stationary(m.model, rho)
        assert not is_stationary(m.model, np.diag([1.0, 0.0]).astype(complex))

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_adjoint_of_heisenberg_drift(self, seed):
        # tr(X * unvec(Lambda vec(rho))) == tr(G(X) rho): the state map is the
        # adjoint of the observable drift
        rng = np.random.default_rng(seed)
        m = random_model(rng, 3)
        lam = liouvillian(m)
        x = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        lhs = np.trace(x @ (lam @ vec(rho)).reshape(3, 3, order="F"))
        rhs = np.trace(generator(x, m) @ rho)
        assert abs(lhs - rhs) < 1e-10

    def test_invariant_state_annihilates_generator_means(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 3)
        rho = stationary_state(m)
        for _ in range(10):
            x = random_hermitian(rng, 3)
            assert abs(expectation(generator(x, m), rho)) < 1e-8


class TestEvolve:
    def test_two_level_relaxation(self):
        m = two_level_example()
        v = m.candidates["V"]
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        traj = evolve(m.model, rho0, 20.0, observables={"V": v})
        assert np.linalg.norm(traj.final_state() - np.diag([0.0, 1.0]), 2) < 1e-6
        # population decays at rate |l10|^2 = 1
        ev = traj.observables["V"]
        assert np.allclose(ev, np.exp(-traj.times), atol=1e-7)

    def test_equilibrium_stays_put(self):
        m = two_level_example()
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        traj = evolve(m.model, rho0, 5.0, n_samples=21)
        for state in traj.states:
            assert np.linalg.norm(state - rho0) < 1e-10

    def test_three_level_mean_decreases_to_zero(self):
        m = three_level_example()
        v = m.candidates["V"]
        traj = evolve(m.model, maximally_mixed(3), 40.0, observables={"V": v})
        ev = traj.observables["V"]
        assert np.all(np.diff(ev) <= 1e-9)
        assert ev[-1] < 1e-6

    def test_trajectory_invariants(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 4)
        traj = evolve(m, random_density(rng, 4), 3.0)
        assert np.all(np.abs(traj.traces() - 1.0) <= 1e-8)
        for state in traj.states:
            assert np.linalg.eigvalsh(state)[0] >= -1e-8

    def test_rejects_bad_inputs(self):
        m = two_level_example()
        with pytest.raises(PreconditionError):
            evolve(m.model, maximally_mixed(2), -1.0)
        with pytest.raises(StateValidityError):
            evolve(m.model, np.diag([2.0, 0.0]).astype(complex), 1.0)

    def test_ehrenfest_consistency(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 3, k=1)
        x = random_hermitian(rng, 3)
        traj = evolve(m, random_density(rng, 3), 2.0, n_samples=401, observables={"x": x})
        ev = traj.observables["x"]
        dt = traj.times[1] - traj.times[0]
        # fourth-order central difference keeps truncation error below the bound
        deriv = (-ev[4:] + 8 * ev[3:-1] - 8 * ev[1:-3] + ev[:-4]) / (12 * dt)
        drift = np.array([expectation(generator(x, m), s) for s in traj.states[2:-2]])
        assert np.max(np.abs(deriv - drift)) < 1e-5


class TestEnsemble:
    """A stack (S, n, n) evolves as S separate states, on both branches."""

    @pytest.mark.parametrize("n, t_final", [(3, 2.0), (18, 0.5)], ids=["exact", "krylov"])
    def test_stack_matches_single_runs(self, n, t_final):
        rng = np.random.default_rng(20)
        m = random_model(rng, n)
        m = LindbladModel(m.structure, m.hamiltonian, [l.matrix / np.sqrt(n) for l in m.couplings])
        stack = np.array([maximally_mixed(n)] + [random_density(rng, n) for _ in range(2)])
        x = random_hermitian(rng, n)
        batch = evolve(m, stack, t_final, n_samples=6, observables={"x": x})
        assert batch.states.shape == (3, 6, n, n)
        assert batch.observables["x"].shape == (3, 6)
        assert batch.traces().shape == batch.purities().shape == (3, 6)
        for s, rho0 in enumerate(stack):
            single = evolve(m, rho0, t_final, n_samples=6, observables={"x": x})
            assert np.abs(batch.states[s] - single.states).max() < 1e-8
            assert np.abs(batch.observables["x"][s] - single.observables["x"]).max() < 1e-8
            assert np.allclose(batch.final_state()[s], single.final_state(), atol=1e-8)

    def test_exact_branch_matches_rk45_oracle(self):
        rng = np.random.default_rng(21)
        m = random_model(rng, 4)
        stack = np.array([random_density(rng, 4) for _ in range(3)])
        times = np.linspace(0.0, 1.0, 5)
        exact = evolve(m, stack, 1.0, n_samples=5).states
        for i, rho in enumerate(rk45_samples(m, stack, times, 0.01, 1e-10, 1e-10)):
            assert np.abs(exact[:, i] - rho).max() < 1e-8

    def test_one_invalid_state_names_time_and_state(self, monkeypatch):
        # a leak that adds trace to states populating level 2 only: state 1
        # breaks at the first sample, states 0 and 2 stay valid
        m = three_level_example().model
        leak = np.zeros((9, 9), dtype=complex)
        leak[0, 8] = 1.0  # d rho_00 / dt += rho_22
        monkeypatch.setattr(lindblad, "liouvillian", lambda model: liouvillian(model) + leak)
        stack = np.array([np.diag(d).astype(complex) for d in
                          ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0])])
        with pytest.raises(StateValidityError, match=r"at t=0\.5: state 1: trace"):
            evolve(m, stack, 1.0, n_samples=3)

    def test_invalid_initial_state_in_stack(self):
        m = two_level_example().model
        stack = np.array([maximally_mixed(2), np.diag([1.5, -0.5]).astype(complex)])
        with pytest.raises(StateValidityError, match="state 1: smallest eigenvalue"):
            evolve(m, stack, 1.0)

    def test_rejects_wrong_shapes(self):
        m = two_level_example().model
        with pytest.raises(DimensionMismatchError):
            evolve(m, maximally_mixed(3), 1.0)
        with pytest.raises(DimensionMismatchError):
            evolve(m, np.ones((1, 1, 2, 2)) / 2, 1.0)


def _twisted(seed: int, n: int):
    """X -> D X D' for a random diagonal phase unitary D, as an entrywise factor."""
    theta = 2 * np.pi * np.random.default_rng(seed).random(n)
    twist = np.exp(1j * (theta[:, None] - theta))
    return lambda a: twist * a


def _real_density(rng, n):
    g = rng.standard_normal((n, 3))
    rho = g @ g.T
    return rho / np.trace(rho)


class TestRealPropagation:
    """A real model (H = 0, real couplings) from a real state propagates in
    float64; its phase-conjugated twin D X D' is complex and must give the
    same expectation series, traces and purities."""

    @pytest.mark.parametrize("name, t_final", [("toric_patch", 1.0), ("cluster_chain(4)", 3.0)],
                             ids=["krylov", "exact"])
    def test_matches_the_complex_twin(self, name, t_final, monkeypatch):
        named = build(name)
        model, n = named.model, named.model.dim
        conj = _twisted(30, n)
        dense = DenseModel.of(model)
        twin = LindbladModel(model.structure, conj(dense.hamiltonian),
                             [conj(l) for l in dense.couplings])
        rho0 = _real_density(np.random.default_rng(31), n)
        terms = dict(zip(named.aggregate.term_names, dense_view(named.aggregate).terms))

        rhs_dtypes = []
        factory = lindblad._rhs_factory

        def recording_factory(m):
            rhs = factory(m)
            return lambda rho: rhs_dtypes.append(rho.dtype) or rhs(rho)

        monkeypatch.setattr(lindblad, "_rhs_factory", recording_factory)
        real = evolve(model, rho0, t_final, n_samples=11, observables=terms)
        real_dtypes, rhs_dtypes[:] = rhs_dtypes[:], []
        complex_ = evolve(twin, conj(rho0), t_final, n_samples=11,
                          observables={k: conj(w) for k, w in terms.items()})

        assert real.states.dtype == np.float64 and complex_.states.dtype == np.complex128
        if n > 16:
            assert set(real_dtypes) == {np.dtype(np.float64)}
            assert set(rhs_dtypes) == {np.dtype(np.complex128)}
        else:
            assert real_dtypes == rhs_dtypes == []
        for key in terms:
            assert np.abs(real.observables[key] - complex_.observables[key]).max() < 1e-12
        assert np.abs(real.traces() - complex_.traces()).max() < 1e-12
        assert np.abs(real.purities() - complex_.purities()).max() < 1e-12
        # the readout contractions against their defining traces
        direct = [np.trace(r @ r) for r in complex_.states]
        assert np.abs(complex_.purities() - np.real(direct)).max() < 1e-14
        for key, w in terms.items():
            direct = [np.trace(w @ r) for r in real.states]
            assert np.abs(real.observables[key] - np.real(direct)).max() < 1e-14

    def test_complex_state_of_a_real_model_propagates_complex(self):
        model = build("cluster_chain(5)").model
        rho0 = _twisted(32, 32)(_real_density(np.random.default_rng(33), 32))
        traj = evolve(model, rho0, 0.5, n_samples=3)
        assert traj.states.dtype == np.complex128
        assert np.abs(traj.states[-1].imag).max() > 1e-6

    def test_rk45_evaluates_each_stage_once(self, monkeypatch):
        # the event log of one run of the RK45 oracle: the initial slope, then
        # per attempted step six stage calls, and per accepted step the
        # hermitization of the new state, whose slope is the last stage's
        # (first same as last); nothing at sample boundaries
        log = []
        factory, herm = lindblad._rhs_factory, oracles.hermitian_part

        def logging_factory(m):
            rhs = factory(m)
            return lambda rho: log.append("R") or rhs(rho)

        def logging_herm(a):
            if sys._getframe(1).f_code.co_name == "rk45_samples":
                log.append("H")
            return herm(a)

        monkeypatch.setattr(lindblad, "_rhs_factory", logging_factory)
        monkeypatch.setattr(oracles, "hermitian_part", logging_herm)
        rng = np.random.default_rng(34)
        m = random_model(rng, 17)
        m = LindbladModel(m.structure, m.hamiltonian, [l.matrix / 4 for l in m.couplings])
        list(rk45_samples(m, random_density(rng, 17)[None], np.linspace(0.0, 2.0, 5), 0.02,
                          1e-9, 1e-9))
        events = "".join(log)
        assert re.fullmatch(r"R(R{6}H?)+", events), events
        accepted = events.count("H")
        attempted = (events.count("R") - 1) // 6
        assert attempted > accepted > 0  # some steps were rejected
        assert events.count("R") == 1 + 6 * attempted

    def test_rk45_reuses_the_last_stage_as_the_next_slope(self, monkeypatch):
        # the RK45 oracle on simulate --name toric_patch --t-final 5: 200
        # accepted steps, no rejected one; seven calls a step without the
        # reuse (1401)
        calls = []
        factory = lindblad._rhs_factory

        def counting_factory(m):
            rhs = factory(m)
            return lambda rho: calls.append(None) or rhs(rho)

        monkeypatch.setattr(lindblad, "_rhs_factory", counting_factory)
        model = build("toric_patch").model
        list(rk45_samples(model, (np.eye(model.dim) / model.dim)[None], np.linspace(0.0, 5.0, 201),
                          0.05, 1e-9, 1e-9))
        assert len(calls) == 1201


def _random_open_system(seed: int):
    """A model at a dim of 17-64 with a complex H and 1-3 dense channels, and
    a stack of 1-3 random states."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(17, 65))
    ls = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
          for _ in range(int(rng.integers(1, 4)))]
    stack = np.array([random_density(rng, n) for _ in range(int(rng.integers(1, 4)))])
    return LindbladModel(TensorStructure((n,)), random_hermitian(rng, n), ls), stack


def _rhs_arguments(monkeypatch) -> list:
    """The arguments of every RHS call of `evolve`, through `_rhs_factory`."""
    args = []
    factory = lindblad._rhs_factory

    def recording_factory(m):
        rhs = factory(m)
        return lambda rho: args.append(rho.copy()) or rhs(rho)

    monkeypatch.setattr(lindblad, "_rhs_factory", recording_factory)
    return args


class TestKrylov:
    """Above dim 16 evolve takes Krylov steps; oracles: exp(t Lambda) applied
    by scipy, and RK45."""

    def test_the_propagator_oracle_is_the_liouvillian_exponential(self):
        rng = np.random.default_rng(37)
        m, rho0 = random_model(rng, 5), random_density(rng, 5)
        times = np.linspace(0.0, 1.0, 3)
        for t, state in zip(times, oracles.propagate(m, rho0, times)):
            direct = (expm(liouvillian(m), t) @ vec(rho0)).reshape(5, 5, order="F")
            assert np.abs(direct - state).max() < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_matches_the_liouvillian_propagator(self, seed):
        model, stack = _random_open_system(seed)
        traj = evolve(model, stack, 2.0, n_samples=11)
        for s, rho0 in enumerate(stack):
            exact = oracles.propagate(model, rho0, traj.times)
            assert np.abs(traj.states[s] - exact).max() <= 10 * 1e-9

    @pytest.mark.parametrize("name", ["toric_patch", "cluster_chain(5)", "cluster_chain(6)"])
    def test_matches_the_rk45_oracle(self, name):
        model = build(name).model
        n = model.dim
        stack = np.array([maximally_mixed(n), _real_density(np.random.default_rng(38), n)])
        traj = evolve(model, stack, 5.0, n_samples=21)
        for i, rho in enumerate(rk45_samples(model, stack, traj.times, 0.05, 1e-9, 1e-9)):
            assert np.abs(traj.states[:, i] - rho).max() <= 10 * 1e-9

    def test_simulate_toric_patch_in_a_few_rhs_calls(self, monkeypatch, capsys):
        # the Krylov space of the maximally mixed state closes at dimension 3
        args = _rhs_arguments(monkeypatch)
        assert cli.main(["simulate", "--name", "toric_patch", "--t-final", "5"]) == 0
        assert 0 < len(args) <= 10

    def test_hermitian_basis_and_kept_trace(self, monkeypatch):
        args = _rhs_arguments(monkeypatch)
        model, stack = _random_open_system(39)
        traj = evolve(model, stack, 2.0, n_samples=11)
        assert len(args) > lindblad._KRYLOV_DIM  # more than one step
        assert all(np.array_equal(v, dagger(v)) for v in args)
        assert np.abs(traj.traces() - 1.0).max() <= 1e-12

    def test_refuses_a_horizon_lost_to_rounding(self):
        model = build("toric_patch").model
        with pytest.raises(IntegrationError, match="t-final 1e.300 too large"):
            evolve(model, maximally_mixed(model.dim), 1e300)

    def test_an_invalid_sample_is_named_before_a_later_failure(self, monkeypatch):
        # sample 2 has a negative eigenvalue, sample 3 a wrong trace: one
        # validation block, whose batched check meets the trace first
        bad_psd = np.diag([1.5, -0.5] + [0.0] * 15)
        bad_trace = maximally_mixed(17) * 2

        def samples(rhs, rho, times, rtol, atol):
            yield from (rho, rho, bad_psd, bad_trace)
            raise IntegrationError("step size underflow at t=0.6")

        monkeypatch.setattr(lindblad, "_krylov_samples", samples)
        model = random_model(np.random.default_rng(40), 17)
        with pytest.raises(StateValidityError, match=r"at t=0\.4: state 0: smallest eigenvalue"):
            evolve(model, maximally_mixed(17), 1.0, n_samples=6)
        bad_psd[:] = maximally_mixed(17)
        bad_trace[:] = maximally_mixed(17)
        with pytest.raises(IntegrationError, match="underflow"):
            evolve(model, maximally_mixed(17), 1.0, n_samples=6)


class TestExpectation:
    def test_identity(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 4)
        assert expectation(np.eye(4, dtype=complex), rho) == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_value(self):
        assert expectation(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0)

    def test_symmetry(self):
        assert expectation(PAULI_Z, maximally_mixed(2)) == pytest.approx(0.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        a, b = rng.uniform(-2, 2, 2)
        assert expectation(a * x + b * y, rho) == pytest.approx(
            a * expectation(x, rho) + b * expectation(y, rho), abs=1e-10)


class TestQuadraticDriftIdentity:
    def test_exact_square_expansion(self):
        # (1/c) V G + (1/c) G V + V^2 + (1/c^2) G^2 == (V + G/c)^2
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = random_model(rng, n)
            v = random_hermitian(rng, n)
            g = generator(v, m)
            c = float(rng.uniform(0.1, 10))
            lhs = (v @ g + g @ v) / c + v @ v + g @ g / c**2
            rhs = (v + g / c) @ (v + g / c)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


class TestDensityValidation:
    def test_accepts_valid(self):
        validate_density_state(maximally_mixed(3))

    def test_rejects_bad_trace(self):
        with pytest.raises(StateValidityError):
            validate_density_state(np.diag([1.0, 1.0]).astype(complex))

    def test_rejects_negative(self):
        with pytest.raises(StateValidityError):
            validate_density_state(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("low, ok", [(-0.4e-8, True), (-0.9e-8, True), (-1.1e-8, False)],
                             ids=["cholesky", "eigvalsh", "rejected"])
    def test_negative_eigenvalue_within_tol(self, low, ok):
        # the Cholesky accept of rho + (tol / 2) I takes the first; the second
        # falls through to the eigenvalue test, which the third fails in a stack
        rho = np.array([maximally_mixed(2), np.diag([1.0 - low, low])])
        if ok:
            validate_density_state(rho, 1e-8)
        else:
            with pytest.raises(StateValidityError,
                               match=r"^state 1: smallest eigenvalue -1\.100e-08 below -tol$"):
                validate_density_state(rho, 1e-8)


class TestAdiabaticLimit:
    def test_decoupled_system_has_zero_error(self):
        m = LindbladModel(TensorStructure((2,)), np.zeros((2, 2), dtype=complex),
                          [np.zeros((2, 2), dtype=complex)])
        rep = adiabatic_limit_check(m, 1.0, 1.0, [2, 4], 2.0)
        assert max(rep.errors) < 1e-10

    def test_two_level_error_shrinks_with_k(self):
        m = two_level_example()
        rep = adiabatic_limit_check(m.model, 1.0, 1.0, [2, 4, 8, 16], 8.0)
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
        rep = adiabatic_limit_check(m.model, omega=0.7, gamma=2.3, k_list=[4, 16], t_final=10.0)
        assert rep.errors[1] < rep.errors[0] / 2

    def test_requires_single_channel(self):
        m = three_level_example()
        with pytest.raises(PreconditionError):
            adiabatic_limit_check(m.model, 1.0, 1.0, [2, 4], 1.0)

    def test_joint_dimension_cap(self):
        from dissipctl.errors import DimensionCapError
        big = LindbladModel(TensorStructure((40,)), np.zeros((40, 40), dtype=complex),
                            [np.zeros((40, 40), dtype=complex)])
        with pytest.raises(DimensionCapError):
            adiabatic_limit_check(big, 1.0, 1.0, [2, 4], 1.0)

    def test_k_list_must_ascend(self):
        m = two_level_example()
        with pytest.raises(PreconditionError):
            adiabatic_limit_check(m.model, 1.0, 1.0, [4, 2], 1.0)


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0)


def test_trace_distance_of_stacks_is_taken_pairwise():
    rng = np.random.default_rng(5)
    a = np.array([random_density(rng, 3) for _ in range(4)])
    b = np.array([random_density(rng, 3) for _ in range(4)])
    stacked = trace_distance(a, b)
    assert stacked.shape == (4,)
    assert np.array_equal(stacked, [trace_distance(x, y) for x, y in zip(a, b)])


def test_partial_trace_last_of_a_product_stack():
    # tr_2(a (x) b) = a tr(b), for every member of a stack
    rng = np.random.default_rng(9)
    a = np.array([random_hermitian(rng, 3) for _ in range(5)])
    b = np.array([random_hermitian(rng, 2) + 1j * np.eye(2) for _ in range(5)])
    products = np.array([np.kron(x, y) for x, y in zip(a, b)])
    reduced = partial_trace_last(products, 3, 2)
    assert reduced.shape == (5, 3, 3)
    assert np.allclose(reduced, a * np.trace(b, axis1=-2, axis2=-1)[:, None, None],
                       rtol=0, atol=1e-13)
    assert np.allclose(partial_trace_last(products[0], 3, 2), a[0] * np.trace(b[0]),
                       rtol=0, atol=1e-13)
