import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dissipctl import synthesis
from dissipctl.errors import InfeasibleError, PreconditionError
from dissipctl.lindblad import LindbladModel, generator_single_channel
from dissipctl.linalg import TensorStructure, dagger, is_psd
from dissipctl.models import three_level_example
from dissipctl.stability import check_condition_es
from dissipctl.synthesis import synthesize, synthesize_closed_form
from oracles import (
    SolverBudgetError,
    assemble_bilinear_system,
    check_factorizable,
    haar_unitary,
    is_unitary,
    random_projection,
    solve_bilinear,
    sqrtm_psd,
    synthesize_pinv,
    verify_v2_dominated,
)

V2 = np.diag([1.0, 0.0]).astype(complex)


class TestSynthesizeProjection:
    def test_full_rotation(self):
        res = synthesize(V2, 1.0)
        assert np.allclose(res.coupling, np.array([[0, 0], [1.0, 0]]), atol=1e-12)
        assert res.residuals["unitarity"] < 1e-12
        assert res.residuals["es_margin"] >= -1e-9

    def test_partial_rotation(self):
        c = 0.19
        res = synthesize(V2, c)
        assert res.coupling[0, 0] == pytest.approx(np.sqrt(1 - c), abs=1e-12)
        assert abs(res.coupling[1, 0]) ** 2 == pytest.approx(c, abs=1e-12)

    def test_zero_candidate(self):
        res = synthesize(np.zeros((3, 3), dtype=complex), 1.0)
        assert np.allclose(res.unitary, np.eye(3))
        assert np.linalg.norm(res.coupling) == 0.0

    def test_rank_obstruction(self):
        with pytest.raises(InfeasibleError):
            synthesize(np.eye(2, dtype=complex), 1.0)

    def test_larger_projection(self):
        rng = np.random.default_rng(21)
        v = random_projection(rng, 6, 2)
        res = synthesize(v, 0.8)
        assert res.residuals["unitarity"] < 1e-10
        assert res.residuals["es_margin"] >= -1e-9

    def test_rejects_non_projection(self):
        # a channel split needs a projection; one channel takes any PSD V
        with pytest.raises(PreconditionError, match="assumes a projection"):
            synthesize(np.diag([2.0, 0.0]).astype(complex), 1.0, channels=2)

    def test_block_dilation_convention(self):
        # [[sqrt(1-c) I, sqrt(c) I], [sqrt(c) I, -sqrt(1-c) I]] on range(V) and r
        # kernel directions, the identity elsewhere: a Hermitian involution
        rng = np.random.default_rng(23)
        v = random_projection(rng, 5, 2)
        u = synthesize(v, 0.36).unitary
        assert np.allclose(u, dagger(u), atol=1e-12)
        assert np.allclose(v @ u @ v, 0.8 * v, atol=1e-12)
        off = np.linalg.svd((np.eye(5) - v) @ u @ v, compute_uv=False)
        assert np.allclose(off, [0.6, 0.6, 0, 0, 0], atol=1e-12)
        assert np.trace(u) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 0.01])
    def test_rank_obstruction_below_one(self, c):
        # the defect rank of a projection is r for every c, so rank 3 of 4 has
        # no coupling at any constant
        rng = np.random.default_rng(25)
        with pytest.raises(InfeasibleError, match=r"rank\(I - A'A\) = 3 exceeds .* 1") as err:
            synthesize(random_projection(rng, 4, 3), c)
        assert err.value.reason == "rank"


class TestClosedForm:
    def test_norm_obstruction(self):
        # a_i = sqrt(1-c) lambda_i^-3/2: 0.2 < (1-c)^(1/3) is too small
        with pytest.raises(InfeasibleError, match=r"\|\|A\|\|_2 = 7\.90569 > 1") as err:
            synthesize_closed_form(np.diag([1.0, 0.2, 0.0, 0.0]), 0.5)
        assert err.value.reason == "norm"

    def test_unit_singular_value_uses_fewer_kernel_directions(self):
        # a = 1 on the eigenvalue 1/2 at c = 7/8: rank(I - A'A) = 1 < r = 2,
        # so one kernel direction completes U although n - r < r
        v = np.diag([0.5, 2.0, 0.0]).astype(complex)
        res = synthesize_closed_form(v, 0.875)
        assert res.residuals["unitarity"] < 1e-12
        assert res.residuals["constraint"] < 1e-12

    def test_rejects_constant_outside_unit_interval(self):
        for c in (0.0, 1.5):
            with pytest.raises(PreconditionError):
                synthesize_closed_form(np.diag([2.0, 0.0]), c)

    def test_rejects_non_psd(self):
        with pytest.raises(PreconditionError):
            synthesize_closed_form(np.diag([1.0, -1.0]), 0.5)


def _candidate(rng, kind):
    n = int(rng.integers(2, 7))
    r = int(rng.integers(1, n + 1))
    u = haar_unitary(rng, n)
    low, high = {"projection": (1.0, 1.0), "spectrum": (0.3, 2.5), "dominated": (1.0, 3.0)}[kind]
    lam = rng.uniform(low, high, r)
    return (u[:, :r] * lam) @ dagger(u[:, :r]), lam


class TestClosedFormOracle:
    """The closed form against the bilinear solver on random PSD candidates:
    it solves every case the solver solves, and every verdict of no solution
    names its obstruction."""

    @given(st.integers(0, 10**6),
           st.sampled_from(["projection", "spectrum", "dominated"]),
           st.one_of(st.just(1.0), st.floats(0.02, 0.98)))
    @settings(max_examples=60, deadline=None)
    def test_against_bilinear_solver(self, seed, kind, c):
        rng = np.random.default_rng(seed)
        v, lam = _candidate(rng, kind)
        n = v.shape[0]
        try:
            res = synthesize_closed_form(v, c)
        except InfeasibleError as exc:
            res = None
            assert exc.reason in ("norm", "rank")
            assert re.search(r"\d", str(exc))
        else:
            assert res.residuals["unitarity"] <= 1e-12
            assert res.residuals["constraint"] <= 1e-12
            # 2x2 rotations [[a, d], [d, -a]] in V's eigenbasis: a Hermitian U
            assert np.abs(res.unitary - dagger(res.unitary)).max() <= 1e-12
            if lam.min() >= 1.0:
                # V^2 >= V: V U V = sqrt(1-c) Q implies G(V) <= -c V
                model = LindbladModel(TensorStructure((n,)), np.zeros((n, n), dtype=complex),
                                      [res.coupling])
                certified = check_condition_es(v, model)
                assert certified is not None and certified >= c - 1e-6
        try:
            system = assemble_bilinear_system(v, sqrtm_psd(v), c)
        except InfeasibleError:
            assert res is None
            return
        x, _ = solve_bilinear(system, rng, restarts=2, iters=150)
        assert x is None or res is not None


def test_no_runtime_path_reaches_the_bilinear_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a runtime synthesis path reached the bilinear oracle")

    for name in ("assemble_bilinear_system", "solve_bilinear", "synthesize_pinv"):
        assert not hasattr(synthesis, name)  # the oracle lives in the tests only
        monkeypatch.setattr(oracles, name, forbidden)
    rng = np.random.default_rng(81)
    p = random_projection(rng, 4, 1)
    assert synthesize(p, 0.64).residuals["unitarity"] < 1e-12
    assert len(synthesize(p, 1.0, channels=2)) == 2
    assert len(synthesize(random_projection(rng, 6, 2), 1.0, channels=3)) == 3
    assert synthesize(np.diag([2.0, 1.5, 0.0, 0.0]), 0.5).residuals["unitarity"] < 1e-12
    for v, c, reason in ((random_projection(rng, 4, 3), 0.5, "rank"),
                         (random_projection(rng, 4, 3), None, "rank"),
                         (np.diag([1.0, 0.2, 0.0, 0.0]), 0.5, "norm")):
        with pytest.raises(InfeasibleError) as err:
            synthesize(v, c)
        assert err.value.reason == reason


class TestBilinearSystem:
    def test_free_parameter_blocks(self):
        system = assemble_bilinear_system(V2, sqrtm_psd(V2), 1.0)
        a1 = np.zeros((2, 4))
        a1[1, 1] = 1.0
        a2 = np.zeros((2, 4))
        a2[0, 2] = 1.0
        a2[1, 3] = 1.0
        assert np.allclose(system.a_blocks[0], a1, atol=1e-12)
        assert np.allclose(system.a_blocks[1], a2, atol=1e-12)
        assert all(np.linalg.norm(b) < 1e-12 for b in system.b_blocks)

    def test_partial_case_offsets(self):
        c = 0.64
        system = assemble_bilinear_system(V2, sqrtm_psd(V2), c)
        assert np.allclose(system.b_blocks[0], [np.sqrt(1 - c), 0.0], atol=1e-12)
        assert np.allclose(system.b_blocks[1], [0.0, 0.0], atol=1e-12)

    def test_solution_structure_c1(self):
        system = assemble_bilinear_system(V2, sqrtm_psd(V2), 1.0)
        x, res = solve_bilinear(system, np.random.default_rng(0))
        assert x is not None and res <= 1e-10
        # x = (x1, x2, x3, x4): unit moduli off-diagonal, vanishing corner
        assert abs(x[1]) == pytest.approx(1.0, abs=1e-9)
        assert abs(x[2]) == pytest.approx(1.0, abs=1e-9)
        assert abs(x[3]) <= 1e-9

    def test_homogeneous_reduction_when_c_is_one(self):
        system = assemble_bilinear_system(V2, sqrtm_psd(V2), 1.0)
        x, _ = solve_bilinear(system, np.random.default_rng(1))
        u = system.unitary_from(x)
        # residual identical to the quadratic-only constraint set
        gram = dagger(u) @ u
        assert np.allclose(gram, np.eye(2), atol=1e-9)

    def test_infeasible_budget_exhausted(self):
        # identity is full rank: a unitary with vanishing support block cannot exist
        system = assemble_bilinear_system(np.eye(2, dtype=complex),
                                          np.eye(2, dtype=complex), 0.5)
        x, best = solve_bilinear(system, np.random.default_rng(2), restarts=4, iters=50)
        assert x is None
        assert best > 1e-6


class TestSynthesizePinv:
    def test_full_rotation_values(self):
        res = synthesize_pinv(V2, c=1.0, seed=0)
        assert abs(res.coupling[0, 0]) <= 1e-9
        assert abs(res.coupling[1, 0]) == pytest.approx(1.0, abs=1e-9)
        # phase convention pins the first nonzero column entry
        assert res.coupling[1, 0].real == pytest.approx(1.0, abs=1e-9)

    def test_partial_rotation_values(self):
        c = 0.64
        res = synthesize_pinv(V2, c=c, seed=0)
        assert res.coupling[0, 0] == pytest.approx(0.6, abs=1e-9)
        assert abs(res.coupling[1, 0]) ** 2 == pytest.approx(c, abs=1e-9)

    def test_full_rank_candidate_infeasible(self):
        with pytest.raises((InfeasibleError, SolverBudgetError)):
            synthesize_pinv(np.eye(2, dtype=complex), c=0.5, seed=0, restarts=4, iters=50)

    def test_post_verified_against_certifier(self):
        rng = np.random.default_rng(31)
        v = random_projection(rng, 4, 1)
        for c in (1.0, 0.5):
            res = synthesize_pinv(v, c=c, seed=3)
            model = LindbladModel(TensorStructure((4,)), np.zeros((4, 4), dtype=complex),
                                  [res.coupling])
            certified = check_condition_es(v, model)
            assert certified is not None and certified >= c - 1e-6

    def test_rejects_bad_factor(self):
        with pytest.raises(PreconditionError):
            synthesize_pinv(V2, q=np.eye(2, dtype=complex), c=0.5)


class TestSynthesizeMulti:
    def test_single_channel_reduces_to_projection_case(self):
        res = synthesize(V2, 1.0, channels=1)
        assert isinstance(res, synthesis.SynthesisResult)
        assert np.allclose(res.coupling, np.array([[0, 0], [1.0, 0]]), atol=1e-12)

    def test_two_channel_split(self):
        results = synthesize(V2, 1.0, channels=2)
        assert len(results) == 2
        for res in results:
            assert abs(res.coupling[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-8)

    def test_summed_certificate(self):
        results = synthesize(V2, 1.0, channels=2)
        total = sum(generator_single_channel(V2, r.coupling) for r in results)
        assert is_psd(-total - 1.0 * V2, 1e-8)

    def test_three_channels_on_larger_projection(self):
        rng = np.random.default_rng(35)
        v = random_projection(rng, 4, 1)
        results = synthesize(v, 2.0, channels=3)
        assert len(results) == 3
        total = sum(generator_single_channel(v, r.coupling) for r in results)
        assert is_psd(-total - 2.0 * v, 1e-8)

    def test_rejects_constant_above_channel_count(self):
        with pytest.raises(PreconditionError, match=r"c must lie in \(0, 2\], got 2.5"):
            synthesize(V2, 2.5, channels=2)


class TestCheckFactorizable:
    def test_ladder_swap_coupling_is_not_factorizable(self):
        m = three_level_example()
        chk = check_factorizable(m.model.couplings[1], m.candidates["V"])
        assert not chk.factorizable
        # the defect lives on the top level where L'L = diag(0,1,1) != V^2
        assert abs(chk.witness[2]) == pytest.approx(1.0, abs=1e-9)
        direction = dagger(chk.witness) @ (dagger(m.model.couplings[1]) @ m.model.couplings[1]
                                           - m.candidates["V"] @ m.candidates["V"]) @ chk.witness
        assert abs(direction) > 0.5

    def test_random_constructions_recovered(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n + 1))
            u = haar_unitary(rng, n)
            v = random_projection(rng, n, r)
            chk = check_factorizable(u @ v, v)
            assert chk.factorizable
            assert is_unitary(chk.unitary, 1e-9)
            assert np.linalg.norm(chk.unitary @ v - u @ v) <= 1e-9

    def test_zero_zero(self):
        chk = check_factorizable(np.zeros((2, 2), dtype=complex),
                                 np.zeros((2, 2), dtype=complex))
        assert chk.factorizable


class TestV2Dominated:
    def test_projection_agrees_with_projection_case(self):
        res = synthesize(V2, 0.5)
        assert verify_v2_dominated(V2, res.unitary, 0.5)
        assert not verify_v2_dominated(V2, np.eye(2, dtype=complex), 0.5)

    def test_spread_spectrum_candidate(self):
        v = np.diag([0.0, 1.0, 2.0]).astype(complex)  # v^2 = diag(0,1,4) >= v
        u = np.zeros((3, 3), dtype=complex)           # cyclic shift rotates levels down
        u[0, 1] = 1.0
        u[1, 2] = 1.0
        u[2, 0] = 1.0
        assert is_unitary(u)
        lhs = v @ dagger(u) @ (v @ v) @ u @ v
        margin_holds = is_psd((1 - 0.1) * v - lhs)
        assert verify_v2_dominated(v, u, 0.1) == margin_holds

    def test_rejects_small_eigenvalues(self):
        with pytest.raises(PreconditionError):
            verify_v2_dominated(np.diag([0.0, 0.5]).astype(complex),
                                np.eye(2, dtype=complex), 0.5)


class TestDispatcher:
    def test_default_constant_prefers_one(self):
        res = synthesize(V2)
        assert res.c == 1.0

    def test_falls_back_on_rank_obstruction(self):
        rng = np.random.default_rng(51)
        v = random_projection(rng, 3, 2)  # rank 2 of 3: c=1 infeasible, c=1/2 feasible?
        # 2r > n so the corner cannot vanish; the fallback must also fail here
        with pytest.raises(InfeasibleError) as err:
            synthesize(v)
        assert err.value.reason == "rank"

    def test_multi_channel_dispatch(self):
        results = synthesize(V2, c=1.0, channels=2)
        assert isinstance(results, list) and len(results) == 2


class TestProjectionCaseInvariant:
    def test_dissipation_reduces_to_rotated_corner(self):
        # for L = U V with projection V: D(V) = -V U' V U V + V >= c V,
        # so the exponential and dissipative certificates coincide
        from dissipctl.lindblad import dissipation_single_channel

        rng = np.random.default_rng(71)
        for c in (1.0, 0.6, 0.25):
            v = random_projection(rng, 4, 1)
            res = synthesize(v, c)
            d = dissipation_single_channel(v, res.coupling)
            alt = -v @ dagger(res.unitary) @ v @ res.unitary @ v + v
            assert np.allclose(d, alt, atol=1e-10)
            assert is_psd(d - c * v, 1e-8)


class TestFeasibilityAgreement:
    def test_dilation_and_pinv_verdicts_match(self):
        # c = 1 over all ranks and dims <= 6: feasible iff rank <= dim - rank
        rng = np.random.default_rng(61)
        for n in range(2, 7):
            for r in range(1, n + 1):
                v = random_projection(rng, n, r)
                dilation_feasible = r <= n - r
                try:
                    res = synthesize_pinv(v, c=1.0, seed=int(10 * n + r),
                                          restarts=12, iters=250)
                    pinv_feasible = res.residuals["unitarity"] <= 1e-9
                except (SolverBudgetError, InfeasibleError):
                    pinv_feasible = False
                assert pinv_feasible == dilation_feasible, (n, r)
