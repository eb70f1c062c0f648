import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipctl import lindblad, stability
from dissipctl.errors import (
    DimensionCapError, IntegrationError, NonHermitianError, PreconditionError,
    StateValidityError,
)
from dissipctl.lindblad import (
    LindbladModel,
    dissipation_functional,
    evolve,
    generator,
)
from dissipctl.linalg import (
    DEFAULT_TOL,
    TensorStructure,
    dagger,
    haar_pure_state,
    hermitian_part,
    is_psd,
)
from dissipctl.models import (
    REGISTRY,
    build,
    cluster_chain,
    three_level_example,
    toric_patch,
    two_level_example,
    two_qubit_aggregation_example,
)
from dissipctl.stability import (
    _C_MIN,
    certify_ground_state_stability,
    check_condition_ds,
    check_condition_es,
    largest_constant,
)
from oracles import (
    dense_candidate, dense_view, frustration_free_check, ground_space, haar_unitary,
    random_density, random_hermitian, schrodinger_ensemble,
)


# -- bisection oracle for largest_constant ------------------------------------


def _smallest_positive_eig(v: np.ndarray, tol: float) -> float | None:
    w = np.linalg.eigvalsh(hermitian_part(v))
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    positive = w[w > tol * scale]
    return float(positive[0]) if positive.size else None


def bisection_constant(m: np.ndarray, w: np.ndarray, tol: float = DEFAULT_TOL, *,
                       norm: float | None = None, lam: float | None = None) -> float | None:
    """Largest c with m - c w >= 0 (bisection on [_C_MIN, 2 norm / lam]), or None.

    The solver `largest_constant` replaced; kept as an independent oracle.
    It lands up to tol * ||m - c w||_2 / (v' w v) above the true constant,
    with v the null vector of m - c w.
    """
    if lam is None:
        lam = _smallest_positive_eig(w, tol)
    if norm is None:
        norm = float(np.linalg.norm(m, 2))
    if lam is None or norm == 0.0:
        return None

    def holds(c: float) -> bool:
        return is_psd(m - c * w, tol)

    if not holds(_C_MIN):
        return None
    c_max = 2.0 * norm / lam
    for _ in range(8):  # c_max is a strict bound in theory; widen defensively
        if not holds(c_max):
            break
        c_max *= 2
    else:
        return c_max
    lo, hi = _C_MIN, c_max
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _constant_problem(seed: int):
    """(m, w) with n <= 5, w >= 0 of any rank (zero included), and m built in
    the eigenbasis of w as [[C, B'], [B, A]] over ker(w) and range(w).

    C is PSD of any rank; B' lies in range(C), except that a quarter of the
    draws add a component outside it and another quarter make C indefinite.
    A = B C^+ B' + Lam^1/2 (H + t) Lam^1/2, so the true constant is
    lambda_min(H) + t whenever one exists.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(0, n + 1))
    r = n - k
    kind = int(rng.integers(0, 4))
    lam = rng.uniform(0.5, 2.0, r)
    j = int(rng.integers(0, k + 1))
    u = haar_unitary(rng, k) if k else np.zeros((0, 0), dtype=complex)
    y = u[:, :j] * rng.uniform(1.0, 2.0, j)
    c = y @ dagger(y)
    b = 0.5 * (rng.standard_normal((r, j)) + 1j * rng.standard_normal((r, j))) @ dagger(y)
    a = b @ np.linalg.pinv(c) @ dagger(b)
    if kind == 1 and j < k:
        b = b + (rng.standard_normal((r, k - j)) + 1j * rng.standard_normal((r, k - j))) \
            @ dagger(u[:, j:])
    if kind == 2 and k:
        c = c - 0.5 * np.outer(u[:, -1], u[:, -1].conj())
    root = np.sqrt(lam)
    a = a + (random_hermitian(rng, r, 0.5) + rng.uniform(-1.0, 3.0) * np.eye(r)) \
        * np.outer(root, root)
    q = haar_unitary(rng, n)
    m = hermitian_part(q @ np.block([[c, dagger(b)], [b, a]]) @ dagger(q))
    w = hermitian_part(q @ np.diag(np.concatenate([np.zeros(k), lam])) @ dagger(q))
    return m, w


def _oracle_band(m: np.ndarray, w: np.ndarray, c: float, tol: float) -> float:
    """tol * max(1, ||m||_2) / (v' w v), v the bottom eigenvector of m - c w:
    how far above the true constant the bisection oracle may land.  With w
    of full rank v' w v >= lambda_+(w); a v leaning into ker(w) lowers it."""
    v = np.linalg.eigh(m - c * w)[1][:, 0]
    return tol * max(1.0, float(np.linalg.norm(m, 2))) / float(np.real(v.conj() @ w @ v))


class TestLargestConstant:
    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_bisection(self, seed):
        tol = DEFAULT_TOL
        m, w = _constant_problem(seed)
        closed = largest_constant(m, w, tol)
        oracle = bisection_constant(m, w, tol)
        if closed is None or oracle is None:
            # the oracle may pass _C_MIN by its own overshoot alone
            assert closed is None
            assert oracle is None or oracle - _C_MIN <= _oracle_band(m, w, oracle, tol)
            return
        assert is_psd(m - closed * w, tol)
        resolution = 4.0 * np.linalg.norm(m, 2) / 2.0**40  # bisection step
        assert -resolution <= oracle - closed <= _oracle_band(m, w, closed, tol) + resolution

    def test_zero_weight_has_no_constant(self):
        assert largest_constant(np.eye(3), np.zeros((3, 3))) is None

    def test_kernel_coupling_outside_range_of_c(self):
        # [[a - c, b], [b, 0]] has determinant -b^2 < 0 for every c
        w = np.diag([1.0, 0.0])
        assert largest_constant(np.array([[5.0, 1.0], [1.0, 0.0]]), w) is None
        assert largest_constant(np.array([[5.0, 0.0], [0.0, 0.0]]), w) == 5.0

    def test_schur_complement_lowers_the_constant(self):
        # m - c w >= 0 iff 2 - c - 1/1 >= 0: c* = 1 exactly
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert largest_constant(m, np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("build", [two_level_example, three_level_example,
                                       two_qubit_aggregation_example,
                                       lambda: cluster_chain(4)])
    def test_registry_constants_match_bisection(self, build):
        named = build()
        for v in named.candidates.values():
            g = generator(v, named.model)
            v = dense_candidate(v, named.model.structure)
            for m, w in ((-g, v), (dissipation_functional(v, named.model), v)):
                closed = largest_constant(m, w)
                oracle = bisection_constant(m, w)
                assert (closed is None) == (oracle is None)
                if closed is not None:
                    assert closed <= oracle + 1e-12
                    assert oracle - closed <= 1e-8


class TestIsLyapunov:
    # the Lyapunov test is the is_lyapunov/diagnostics part of the full certification
    def test_two_level_witness(self):
        m = two_level_example()
        report = certify_ground_state_stability(m.candidates["V"], m.model)
        ok, diag = report.is_lyapunov, report.diagnostics
        assert ok and not any(k in diag for k in ("psd", "ground_energy", "generator"))

    def test_identity_fails_zero_ground(self):
        m = two_level_example()
        report = certify_ground_state_stability(np.eye(2, dtype=complex), m.model)
        ok, diag = report.is_lyapunov, report.diagnostics
        assert not ok
        assert "ground_energy" in diag

    def test_three_level_witness(self):
        m = three_level_example()
        ok = certify_ground_state_stability(m.candidates["V"], m.model).is_lyapunov
        assert ok

    def test_rejects_non_hermitian(self):
        m = two_level_example()
        with pytest.raises(NonHermitianError):
            certify_ground_state_stability(np.array([[0, 1], [0, 0]], dtype=complex), m.model)


class TestConditionES:
    def test_two_level_unit_constant(self):
        m = two_level_example()
        c = check_condition_es(m.candidates["V"], m.model)
        assert c == pytest.approx(1.0, abs=1e-6)

    def test_three_level_has_none(self):
        m = three_level_example()
        assert check_condition_es(m.candidates["V"], m.model) is None

    def test_no_coupling_gives_none(self):
        m = LindbladModel(TensorStructure((2,)), np.zeros((2, 2), dtype=complex), [])
        assert check_condition_es(np.diag([1.0, 0.0]).astype(complex), m) is None

    def test_non_psd_candidate_names_v(self):
        with pytest.raises(PreconditionError, match="^V: candidate must be positive") as err:
            check_condition_es(np.diag([1.0, -1.0]), two_level_example().model)
        assert err.value.field == "V"

    def test_tol_reaches_the_generator(self):
        # a V Hermitian within tol: the generator re-tested it at the default
        # 1e-9 and raised NonHermitianError
        m = two_level_example()
        v = np.array([[1.0, 0.0], [1e-7, 0.0]])
        assert check_condition_es(v, m.model, tol=1e-6) == pytest.approx(1.0, abs=1e-6)
        assert check_condition_ds(v, m.model, tol=1e-6) == pytest.approx(1.0, abs=1e-6)


class TestConditionDS:
    def test_three_level_half(self):
        m = three_level_example()
        c = check_condition_ds(m.candidates["V"], m.model)
        assert c == pytest.approx(0.5, abs=1e-6)

    def test_two_level_unit(self):
        m = two_level_example()
        c = check_condition_ds(m.candidates["V"], m.model)
        assert c == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_candidate_returns_none(self):
        m = two_level_example()
        assert check_condition_ds(np.zeros((2, 2), dtype=complex), m.model) is None


def _dissipation_square(v, model):
    """Largest c with D(v) >= c v^2, or None."""
    return largest_constant(dissipation_functional(v, model), v @ v)


class TestDissipationSquare:
    def test_three_level_quarter(self):
        # D - c V^2 = diag(0, 2-c, 1-4c) forces c <= 1/4
        m = three_level_example()
        c = _dissipation_square(m.candidates["V"], m.model)
        assert c == pytest.approx(0.25, abs=1e-6)

    def test_projection_matches_ds(self):
        m = two_level_example()
        v = m.candidates["V"]
        c_sq = _dissipation_square(v, m.model)
        c_ds = check_condition_ds(v, m.model)
        assert c_sq == pytest.approx(c_ds, abs=1e-6)

    def test_vanishing_dissipation_gives_none(self):
        # coupling = identity commutes with everything
        m = LindbladModel(TensorStructure((2,)), np.zeros((2, 2), dtype=complex),
                          [np.eye(2, dtype=complex)])
        assert _dissipation_square(np.diag([1.0, 0.0]).astype(complex), m) is None

    def test_ds_constant_implies_square_constant(self):
        # D >= c V forces D >= (c / ||V||) V^2
        m = three_level_example()
        v = m.candidates["V"]
        c_ds = check_condition_ds(v, m.model)
        c_sq = _dissipation_square(v, m.model)
        assert c_sq >= c_ds / np.linalg.norm(v, 2) - 1e-6


class TestGroundSpace:
    def test_two_level(self):
        gs = ground_space(np.diag([1.0, 0.0]))
        assert gs.energy == pytest.approx(0.0)
        assert gs.dimension == 1
        assert np.allclose(gs.projector, np.diag([0.0, 1.0]))

    def test_two_qubit_sum(self):
        m = two_qubit_aggregation_example()
        gs = ground_space(m.aggregate.total())
        assert gs.energy == pytest.approx(0.0)
        assert gs.dimension == 1

    def test_toric_sum_is_sixteen_dimensional(self):
        m = toric_patch()
        total = m.aggregate.total()
        gs = ground_space(total)
        assert gs.energy == pytest.approx(0.0, abs=1e-12)
        assert gs.dimension == 16
        # projector invariants: idempotent and V P = d P on the ground space
        assert np.linalg.norm(gs.projector @ gs.projector - gs.projector) < 1e-10
        assert np.linalg.norm(total @ gs.projector - gs.energy * gs.projector) < 1e-10


class TestFrustrationFree:
    def test_cluster_terms(self):
        from dissipctl.models import cluster_chain
        m = cluster_chain(4)
        assert frustration_free_check(dense_view(m.aggregate).terms)

    def test_complementary_projectors_fail(self):
        w1 = np.diag([1.0, 0.0]).astype(complex)
        w2 = np.diag([0.0, 1.0]).astype(complex)
        assert not frustration_free_check([w1, w2])

    def test_single_term(self):
        assert frustration_free_check([np.diag([1.0, 0.0]).astype(complex)])

    def test_rejects_non_psd_terms(self):
        with pytest.raises(PreconditionError):
            frustration_free_check([np.diag([1.0, -1.0]).astype(complex)])


class TestCertify:
    def test_one_local_operator_is_the_candidate_of_its_list(self):
        # two_qubit's W1 is held on its own site; given alone, it ended in
        # numpy's matmul ValueError
        m = build("two_qubit")
        w1 = m.aggregate.terms[0]
        assert w1.sites != m.model.structure.sites
        assert certify_ground_state_stability(w1, m.model) == \
            certify_ground_state_stability([w1], m.model)
        assert check_condition_es(w1, m.model) == check_condition_es([w1], m.model) is not None

    def test_two_level_exponential(self):
        m = two_level_example()
        report = certify_ground_state_stability(m.candidates["V"], m.model,
                                                simulate=True, t_final=20.0)
        assert report.certified
        assert report.convergence == "exponential"
        assert report.c_es == pytest.approx(1.0, abs=1e-6)
        assert report.simulation["exponential_envelope_ok"]
        assert report.simulation["converged_below_1e-6"]

    def test_three_level_asymptotic_only(self):
        m = three_level_example()
        report = certify_ground_state_stability(m.candidates["V"], m.model,
                                                simulate=True, t_final=45.0)
        assert report.convergence == "asymptotic only"
        assert report.c_es is None and report.c_ds == pytest.approx(0.5, abs=1e-6)
        assert report.simulation["monotone"]
        assert report.simulation["converged_below_1e-6"]
        assert report.diagnostics == {}  # a certified report has nothing to diagnose

    def test_three_level_violates_exponential_envelope_early(self):
        # from the first excited level the mean starts flat, so no exponential
        # envelope with the dissipative constant can hold
        m = three_level_example()
        v = m.candidates["V"]
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        traj = evolve(m.model, rho0, 0.5, observables={"V": v})
        ev = traj.observables["V"]
        assert ev[-1] > np.exp(-0.5 * 0.5) * ev[0]

    def test_zero_candidate_trivially_stable(self):
        m = two_level_example()
        report = certify_ground_state_stability(np.zeros((2, 2), dtype=complex), m.model)
        assert report.certified
        assert report.convergence == "trivial"

    def test_non_witness_not_certified(self):
        m = LindbladModel(TensorStructure((2,)), np.zeros((2, 2), dtype=complex),
                          [np.eye(2, dtype=complex)])
        report = certify_ground_state_stability(np.diag([1.0, 0.0]).astype(complex), m)
        assert not report.certified

    def test_generator_is_decomposed_twice(self, monkeypatch):
        # V = |1><1| grows under the decay to |0>, so G(V) has the eigenvalue 1:
        # one decomposition for the verdict (is_psd), one for the diagnostic
        m = two_level_example()
        v = np.diag([0.0, 1.0])
        g = generator(v, m.model)
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            seen.append(np.shape(a) == g.shape and min(np.abs(a - g).max(),
                                                       np.abs(a + g).max()) < 1e-12)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = certify_ground_state_stability(v, m.model)
        assert report.diagnostics["generator"] == "G(V) has positive eigenvalue 1"
        assert sum(seen) == 2

    @pytest.mark.parametrize("name", ["cluster_chain", "toric_patch"])
    def test_certified_check_decomposes_four_times(self, name, monkeypatch):
        # one eigh of V, one eigvalsh of G(V) for the verdict and one Schur
        # complement per constant; the kernel blocks of the Schur step are
        # no larger than the ground space, at most half the space here
        named = build(name)
        n = named.model.dim
        sizes = []
        for fn in ("eigh", "eigvalsh"):
            def counting(a, *args, _fn=getattr(np.linalg, fn), **kwargs):
                sizes.append(np.shape(a)[-1])
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, fn, counting)
        report = certify_ground_state_stability(next(iter(named.candidates.values())),
                                                named.model)
        assert report.convergence == "exponential"
        assert sum(size > n / 2 for size in sizes) == 4

    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_generator_is_not_negative_on_a_ground_vector(self, n, channels, seed):
        # <psi|G(V)|psi> = sum_k <L_k psi|(V - d)|L_k psi> >= 0 for a ground
        # vector psi of V: lambda_max(G(V)) >= 0, so -lambda_max(G(V)) reports
        # nothing beyond the verdict of the generator test
        rng = np.random.default_rng(seed)
        couplings = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                     for _ in range(channels)]
        model = LindbladModel(TensorStructure((n,)), random_hermitian(rng, n), couplings)
        v = random_hermitian(rng, n)
        g = generator(v, model)
        psi = np.linalg.eigh(v)[1][:, 0]
        assert (psi.conj() @ g @ psi).real >= -1e-12 * max(1.0, np.linalg.norm(g, 2))

    def test_negative_seed_refused_before_any_work(self, monkeypatch):
        m = two_level_example()
        monkeypatch.setattr("dissipctl.stability._candidate", None)  # any work would fail
        with pytest.raises(PreconditionError, match="^seed must be a non-negative integer, got -1$"):
            certify_ground_state_stability(m.candidates["V"], m.model, simulate=True, seed=-1)


def _registry_candidates(max_dim: int) -> list:
    return [(name, key) for name in REGISTRY if build(name).model.dim <= max_dim
            for key in build(name).candidates]


def _matrix(v, model):
    """V as a matrix of the whole space and its smallest eigenvalue."""
    _, v, lam, _ = stability._candidate(v, model, DEFAULT_TOL)
    return v, lam[0]


def _series(v, d, model, t_final: float, seed: int = 0):
    """The grid of check --simulate to t_final and `stability._expectations` on it."""
    times = lindblad._grid(model.dim, t_final, stability._N_SAMPLES)
    return times, stability._expectations(v, d, model, times, seed, DEFAULT_TOL)


def _random_system(seed: int, low: int, high: int):
    """A model at a dim of low-high with a complex H and 1-3 dense channels,
    and a PSD V of spectral norm 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(low, high + 1))
    ls = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
          for _ in range(int(rng.integers(1, 4)))]
    v = random_density(rng, n)
    model = LindbladModel(TensorStructure((n,)), random_hermitian(rng, n), ls)
    return model, v / np.linalg.eigvalsh(v)[-1]


class TestHeisenbergSimulation:
    """check --simulate reads tr(V rho_s(t)) as tr(V(t) rho_s), V(t) = exp(tG)(V)
    propagated once; oracle: the Schrodinger ensemble, each state evolved
    on its own."""

    @pytest.mark.parametrize("name, key", _registry_candidates(64))
    def test_registry_series_match_the_schrodinger_ensemble(self, name, key):
        named = build(name)
        model, (v, d) = named.model, _matrix(named.candidates[key], named.model)
        times, ev = _series(v, d, model, 20.0)
        oracle = schrodinger_ensemble(model, {"v": v}, 20.0, 0)["v"]
        assert ev.shape == oracle.shape == (20, len(times))
        assert np.abs(ev - oracle).max() <= 10 * 1e-9

    @pytest.mark.parametrize("low, high", [(2, 16), (17, 64)], ids=["exact", "krylov"])
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=4, deadline=None)
    def test_random_series_match_the_schrodinger_ensemble(self, low, high, seed):
        model, v = _random_system(seed, low, high)
        _, ev = _series(v, np.linalg.eigvalsh(v)[0], model, 3.0, seed)
        oracle = schrodinger_ensemble(model, {"v": v}, 3.0, seed, n_states=4)["v"]
        assert np.abs(ev[:4] - oracle).max() <= 10 * 1e-9

    @pytest.mark.parametrize("name", [n for n in REGISTRY if build(n).model.dim <= 16])
    def test_verdicts_match_the_schrodinger_ensemble(self, name, monkeypatch):
        # every field of the report, from V(t) and from the ensemble, on seeds
        # 0-9 up to dim 4 and 0-1 at dim 16 (the ensemble costs 20 evolves there)
        named = build(name)
        model = named.model
        vs = {key: _matrix(v, model)[0] for key, v in named.candidates.items()}
        expectations = stability._expectations
        for seed in range(10 if model.dim <= 4 else 2):
            oracle = schrodinger_ensemble(model, vs, 20.0, seed)
            for key, v in vs.items():
                report = certify_ground_state_stability(v, model, simulate=True, seed=seed)
                monkeypatch.setattr(stability, "_expectations", lambda *_: oracle[key])
                ensemble = certify_ground_state_stability(v, model, simulate=True, seed=seed)
                monkeypatch.setattr(stability, "_expectations", expectations)
                final = report.simulation.pop("max_final_expectation")
                assert final == pytest.approx(ensemble.simulation.pop("max_final_expectation"),
                                              rel=0, abs=1e-12)
                assert report.simulation == ensemble.simulation

    def test_a_leak_is_named_at_its_first_sample(self, monkeypatch):
        # the adjoint of a trace-keeping fault d rho_22 / dt -= rho_00,
        # d rho_00 / dt += rho_00 is unital and drains V_00 by V_22 - V_00:
        # V(t) leaves the PSD cone at the first sample after 0
        m = three_level_example()
        factory = lindblad._adjoint_rhs_factory

        def leaking_factory(model):
            rhs = factory(model)

            def leaking(x):
                out = rhs(x)
                out[0, 0] += x[0, 0] - x[2, 2]
                return out

            return leaking

        monkeypatch.setattr(lindblad, "_adjoint_rhs_factory", leaking_factory)
        with pytest.raises(StateValidityError, match=r"^at t=0\.1: V\(t\) has eigenvalue -.*, "
                                                     r"below the smallest of V, 0\.000e\+00$"):
            certify_ground_state_stability(m.candidates["V"], m.model, simulate=True)

    def test_an_invalid_v_is_named_before_a_later_failure(self, monkeypatch):
        # the adjoint Krylov stream emits V(t) below the smallest eigenvalue of V
        # at its third sample and then fails: the invalid V(t) is named
        model, v = _random_system(41, 17, 17)
        d, bad = np.linalg.eigvalsh(v)[0], v - np.eye(17)

        def samples(rhs, x, times):
            yield from (x, x, bad)
            raise IntegrationError("step size underflow at t=0.015")

        monkeypatch.setattr(lindblad, "_krylov_samples", samples)
        with pytest.raises(StateValidityError, match=r"^at t=0\.01: V\(t\) has eigenvalue -"):
            _series(v, d, model, 1.0)
        bad[:] = v
        with pytest.raises(IntegrationError, match="underflow"):
            _series(v, d, model, 1.0)

    def test_keeps_no_stack_of_v(self):
        # each V(t) is read and checked a chunk at a time: the peak stays below
        # what the (201, 64, 64) stack of every V(t) alone takes
        named = build("toric_patch")
        model, (v, d) = named.model, _matrix(named.candidates["V"], named.model)
        tracemalloc.start()
        try:
            _series(v, d, model, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stability._N_SAMPLES * v.nbytes

    def test_a_candidate_below_zero_is_simulated(self):
        # exp(tG) is unital: V(t) stays above the smallest eigenvalue of V, not above 0
        m = two_level_example()
        v = np.diag([1.0, -1.0])
        _, ev = _series(v, -1.0, m.model, 20.0)
        oracle = schrodinger_ensemble(m.model, {"v": v}, 20.0, 0)["v"]
        assert np.abs(ev - oracle).max() <= 10 * 1e-9
        report = certify_ground_state_stability(v, m.model, simulate=True)
        assert report.convergence == "not certified" and "psd" in report.diagnostics
        assert report.simulation["max_final_expectation"] == ev[:, -1].max()

    def test_refused_above_the_cap_before_any_work(self, monkeypatch):
        n = lindblad._SIM_MAX_DIM + 1
        model = LindbladModel(TensorStructure((n,)), np.zeros((n, n)), [np.zeros((n, n))])
        zero = np.zeros((n, n))
        assert certify_ground_state_stability(zero, model).convergence == "trivial"
        monkeypatch.setattr(stability, "_candidate", None)  # any work would fail
        with pytest.raises(DimensionCapError, match=f"^dimension {n} exceeds"):
            certify_ground_state_stability(zero, model, simulate=True)

    def test_one_propagation_of_v(self, monkeypatch):
        calls = []
        samples = lindblad._samples

        def counting(model, x, times, tol, floor=None):
            calls.append((x.shape, floor))  # a floor selects the Heisenberg picture
            return samples(model, x, times, tol, floor)

        monkeypatch.setattr(stability, "_samples", counting)
        m = two_level_example()
        report = certify_ground_state_stability(m.candidates["V"], m.model, simulate=True)
        assert report.simulation["n_states"] == 20
        assert calls == [((2, 2), report.d)]


class TestSimulationInvariants:
    def test_es_constant_bounds_sampled_trajectories(self):
        m = two_level_example()
        v = m.candidates["V"]
        c = check_condition_es(v, m.model)
        rng = np.random.default_rng(12)
        for _ in range(20):
            psi = haar_pure_state(rng, 2)
            traj = evolve(m.model, np.outer(psi, psi.conj()), 10.0, observables={"V": v})
            ev = traj.observables["V"]
            assert np.all(ev <= np.exp(-c * traj.times) * ev[0] + 1e-6)

    def test_monotone_when_generator_nonpositive(self):
        m = three_level_example()
        v = m.candidates["V"]
        rng = np.random.default_rng(13)
        psi = haar_pure_state(rng, 3)
        traj = evolve(m.model, np.outer(psi, psi.conj()), 10.0, observables={"V": v})
        assert np.all(np.diff(traj.observables["V"]) <= 1e-8)

    def test_sublevel_sets_are_forward_invariant(self):
        # once the mean falls below a threshold it stays there
        m = three_level_example()
        v = m.candidates["V"]
        traj = evolve(m.model, None, 30.0, observables={"V": v})
        ev = traj.observables["V"]
        eps = 1e-3
        crossed = np.argmax(ev < eps)
        assert crossed > 0
        assert np.all(ev[crossed:] < eps + 1e-9)
