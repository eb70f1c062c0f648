import dataclasses

import numpy as np
import pytest

from dissipctl.errors import (
    DimensionCapError, DimensionMismatchError, NonHermitianError, PreconditionError,
)
from dissipctl.lindblad import LindbladModel, evolve, generator
from dissipctl.linalg import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    LocalOperator,
    TensorStructure,
    haar_pure_state,
    max_eigenvalue,
)
from dissipctl.models import (
    cluster_chain,
    complementary_witnesses,
    three_level_example,
    toric_patch,
    two_qubit_aggregation_example,
)
from dissipctl.scalability import (
    AggregateSpec,
    check_corollary_commuting,
    check_incremental,
    check_theorem_ds_aggregation,
    check_theorem_es_aggregation,
    simulate_aggregate,
)
from dissipctl.stability import certify_ground_state_stability
from oracles import (
    check_scalability_condition,
    dense_view,
    dissipation_cross_term,
    expectation,
    ground_space,
    random_hermitian,
)


class TestScalabilityCondition:
    def test_cluster_cross_channels_vanish(self):
        m = cluster_chain(4)
        for lam in range(m.aggregate.n_terms):
            ok, margin = check_scalability_condition(m.aggregate, lam, lam)
            assert ok
            assert margin == pytest.approx(0.0, abs=1e-12)

    def test_single_channel_is_vacuous(self):
        m = two_qubit_aggregation_example()
        ok, margin = check_scalability_condition(m.aggregate, 0, 0)
        assert ok and margin == pytest.approx(0.0, abs=1e-12)

    def test_toric_extended_v3_against_z1_channel(self):
        m = toric_patch(extended=True)
        # designate the Z1-built channel for V3: the remaining channels only
        # ever lower V3, so the cross condition holds with zero margin
        ok, margin = check_scalability_condition(m.aggregate, 2, 0)
        assert ok
        assert margin >= -1e-9

    def test_toric_extended_v3_against_own_channel_fails(self):
        # the Z1-built channel re-excites V3: with it in the cross sum the
        # condition is genuinely violated
        m = toric_patch(extended=True)
        ok, margin = check_scalability_condition(m.aggregate, 2, 2)
        assert not ok
        assert margin == pytest.approx(-4.0, abs=1e-9)

    def test_index_validation(self):
        m = cluster_chain(4)
        with pytest.raises(PreconditionError):
            check_scalability_condition(m.aggregate, 5, 0)
        with pytest.raises(PreconditionError):
            check_scalability_condition(m.aggregate, 0, -1)


class TestTheoremAggregation:
    def test_cluster_es_certified_with_rate_four(self):
        m = cluster_chain(4)
        report = check_theorem_es_aggregation(m.aggregate)
        assert report.overall
        for c in report.constants:
            assert c == pytest.approx(4.0, abs=1e-6)
        assert report.d_total == pytest.approx(0.0, abs=1e-12)

    def test_failing_term_blocks_overall(self):
        # couple only the first witness; the second has no certifying channel
        w1 = np.diag([1.0, 0.0]).astype(complex)
        w2 = np.diag([0.0, 1.0]).astype(complex)
        spec = AggregateSpec(TensorStructure((2,)), [w1, w2],
                             [SIGMA_MINUS.copy(), np.zeros((2, 2), dtype=complex)])
        report = check_theorem_es_aggregation(spec)
        assert not report.overall
        assert report.per_term[0]["certified"]
        assert not report.per_term[1]["certified"]

    def test_cluster_ds_certified(self):
        m = cluster_chain(4)
        report = check_theorem_ds_aggregation(m.aggregate)
        assert report.overall
        for c in report.constants:
            assert c == pytest.approx(4.0, abs=1e-6)

    def test_ladder_term_with_grouped_channels(self):
        # three-level witness on the first factor, qubit witness on the second;
        # the ladder needs both of its channels, the qubit channel commutes
        tl = three_level_example()
        eye2 = np.eye(2, dtype=complex)
        eye3 = np.eye(3, dtype=complex)
        structure = TensorStructure((3, 2))
        w_a = np.kron(tl.candidates["V"], eye2)
        w_b = np.kron(eye3, np.diag([1.0, 0.0]).astype(complex))
        couplings = [np.kron(l.matrix, eye2) for l in tl.model.couplings]
        couplings.append(np.kron(eye3, SIGMA_MINUS))
        spec = AggregateSpec(structure, [w_a, w_b], couplings,
                             assignment=[[0, 1], [2]])
        report = check_theorem_ds_aggregation(spec)
        assert report.overall
        assert report.constants[0] == pytest.approx(0.5, abs=1e-6)
        assert report.constants[1] == pytest.approx(1.0, abs=1e-6)

    def test_empty_aggregate_rejected(self):
        with pytest.raises(PreconditionError):
            AggregateSpec(TensorStructure((2,)), [np.eye(2, dtype=complex)],
                          []).channel_groups()

    @pytest.mark.parametrize("op", [LocalOperator((3,), np.eye(2)),
                                    LocalOperator((1,), np.eye(4))], ids=["site", "dim"])
    def test_local_operator_that_does_not_fit(self, op):
        with pytest.raises(DimensionMismatchError, match="term 0 of dim"):
            AggregateSpec(TensorStructure((2, 2)), [op])

    def test_no_terms_is_vacuously_stable(self):
        spec = AggregateSpec(TensorStructure((2,)), [], [])
        assert check_theorem_es_aggregation(spec).overall
        assert check_theorem_ds_aggregation(spec).overall

    def test_two_qubit_per_term_route_honestly_fails(self):
        # no single channel certifies the parity witness; only the
        # incremental/ground-energy-free route applies to this example
        m = two_qubit_aggregation_example()
        report = check_theorem_es_aggregation(m.aggregate)
        assert not report.overall
        assert report.per_term[0]["certified"]
        assert not report.per_term[1]["certified"]


class TestHamiltonianDrift:
    """H enters each term's own condition as -i[W_t, H]: summed over the
    terms with the scalability condition, that is G(W)."""

    # W = |0><0| relaxed by sigma_minus at rate 1, but H = 5 X rotates it
    # away faster: a certificate with c = 1 would promise W(20) <= 0.5 e^-20
    SPEC = AggregateSpec(structure=TensorStructure([2]), terms=[np.diag([1.0, 0.0])],
                         couplings=[SIGMA_MINUS], hamiltonian=5.0 * np.array([[0.0, 1], [1, 0]]),
                         unitaries=[np.array([[0.0, 1], [1, 0]])])

    def test_driven_decay_is_not_certified(self):
        spec = self.SPEC
        model = spec.to_model()
        assert max_eigenvalue(generator(spec.total(), model)) == pytest.approx(4.52494, abs=1e-5)
        w = evolve(model, np.eye(2) / 2, 20.0, observables={"W": spec.total()}).observables["W"]
        assert w[-1] > 0.4
        es, ds = check_theorem_es_aggregation(spec), check_theorem_ds_aggregation(spec)
        assert es.per_term[0]["c"] is None and not es.overall
        assert ds.per_term[0]["generator_nonpositive"] is False and not ds.overall
        assert not check_corollary_commuting(spec).overall

    def test_commuting_hamiltonian_keeps_the_constant(self):
        spec = dataclasses.replace(self.SPEC, hamiltonian=np.diag([2.0, -1.0]))
        report = check_theorem_es_aggregation(spec)
        assert report.overall and report.per_term[0]["c"] == pytest.approx(1.0)

    def test_non_hermitian_hamiltonian_refused(self):
        with pytest.raises(NonHermitianError, match="hamiltonian must be Hermitian"):
            dataclasses.replace(self.SPEC, hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestIncremental:
    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
    def test_constant_must_be_positive(self, c):
        with pytest.raises(PreconditionError, match="c must be positive"):
            check_incremental(two_qubit_aggregation_example().aggregate, 1, c)

    def test_two_qubit_unit_constant(self):
        m = two_qubit_aggregation_example()
        holds, info = check_incremental(m.aggregate, 1, 1.0)
        assert holds
        assert info["margin"] == pytest.approx(0.0, abs=1e-9)
        assert info["d_n"] == pytest.approx(0.0, abs=1e-12)
        assert info["d_next"] == pytest.approx(0.0, abs=1e-12)
        assert info["d_ladder_ok"]

    def test_two_qubit_larger_constant_fails(self):
        m = two_qubit_aggregation_example()
        with pytest.raises(PreconditionError):
            # the prior channel only certifies c = 1
            check_incremental(m.aggregate, 1, 2.0)

    def test_commuting_new_couplings_reduce_to_per_term(self):
        m = cluster_chain(5)
        agg = m.aggregate
        prior = AggregateSpec(agg.structure, agg.terms, agg.couplings[:2],
                              assignment=None, hamiltonian=agg.hamiltonian,
                              term_names=agg.term_names, new_couplings=[agg.couplings[2]])
        holds, info = check_incremental(prior, 2, 4.0)
        assert holds
        assert info["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_incremental_ds_cluster(self):
        m = cluster_chain(5)
        agg = m.aggregate
        prior = AggregateSpec(agg.structure, agg.terms, agg.couplings[:2],
                              assignment=None, hamiltonian=agg.hamiltonian,
                              term_names=agg.term_names, new_couplings=[agg.couplings[2]])
        holds, info = check_incremental(prior, 2, 4.0, mode="ds")
        assert holds
        assert info["cross_norm"] == pytest.approx(0.0, abs=1e-9)

    def test_zero_next_term_is_vacuous(self):
        w1 = np.diag([1.0, 0.0]).astype(complex)
        spec = AggregateSpec(TensorStructure((2,)), [w1, np.zeros((2, 2), dtype=complex)],
                             [SIGMA_MINUS.copy()], assignment=[0, []])
        holds_es, info_es = check_incremental(spec, 1, 1.0)
        holds_ds, info_ds = check_incremental(spec, 1, 1.0, mode="ds")
        assert holds_es and holds_ds
        assert info_es["margin"] == pytest.approx(0.0, abs=1e-12)
        assert info_ds["dissipation_margin"] == pytest.approx(0.0, abs=1e-12)

    def test_incremental_ds_two_qubit_cross_terms_defeat_it(self):
        # the cross terms push an eigenvalue to -1: the dissipative route
        # fails here for every c even though the exponential route certifies
        m = two_qubit_aggregation_example()
        holds, info = check_incremental(m.aggregate, 1, 1.0, mode="ds")
        assert not holds
        assert info["generator_margin"] >= -1e-9
        assert info["dissipation_margin"] == pytest.approx(-1.0, abs=1e-9)
        assert info["cross_norm"] > 1.0


class TestCorollaries:
    def test_two_qubit_d_free(self):
        m = two_qubit_aggregation_example()
        holds, info = check_incremental(m.aggregate, 1, 1.0, d_free=True)
        assert holds
        assert info["margin"] >= -1e-9

    def test_d_gap_separates_corollary_from_incremental(self):
        # complementary witnesses: the ground energy jumps from 0 to 1, the
        # d-aware inequality holds with c = 1 while the d-free one fails
        w1 = np.diag([1.0, 0.0]).astype(complex)
        w2 = np.diag([0.0, 1.0]).astype(complex)
        spec = AggregateSpec(TensorStructure((2,)), [w1, w2], [SIGMA_MINUS.copy()],
                             assignment=[0, []])
        holds_inc, info_inc = check_incremental(spec, 1, 1.0)
        assert holds_inc
        assert info_inc["d_next"] == pytest.approx(1.0, abs=1e-12)
        holds_free, _ = check_incremental(spec, 1, 1.0, d_free=True)
        assert not holds_free

    def test_d_free_implies_incremental(self):
        m = two_qubit_aggregation_example()
        # W = P0 + 0.1 P0 relaxed by sigma-minus; the new sigma-plus coupling
        # drives the qubit to the maximally mixed state, so no step certifies
        p0 = np.diag([1.0, 0.0]).astype(complex)
        pumped = AggregateSpec(TensorStructure((2,)), [p0, 0.1 * p0], [SIGMA_MINUS.copy()],
                               assignment=[0, 0], new_couplings=[SIGMA_PLUS.copy()])
        for spec in (m.aggregate, pumped):
            for mode in ("es", "ds"):
                holds_free, info_free = check_incremental(spec, 1, 1.0, mode=mode, d_free=True)
                holds_inc, info_inc = check_incremental(spec, 1, 1.0, mode=mode)
                assert holds_inc or not holds_free, (spec.n_channels, mode)
                if mode == "ds":
                    assert info_free["generator_margin"] == info_inc["generator_margin"]
        holds_free, info_free = check_incremental(pumped, 1, 1.0, mode="ds", d_free=True)
        assert not holds_free
        assert info_free["generator_margin"] == pytest.approx(-1.1, abs=1e-12)
        assert info_free["margin"] > 0  # the dissipation inequality alone would pass

    def test_small_constant_limit_reduces_to_drift_sign(self):
        m = two_qubit_aggregation_example()
        holds, info = check_incremental(m.aggregate, 1, 1e-7, d_free=True)
        assert holds


class TestCommutingCorollary:
    def test_cluster_certified(self):
        m = cluster_chain(4)
        report = check_corollary_commuting(m.aggregate)
        assert report.overall
        assert any("ground-state stable" in note for note in report.notes)

    def test_toric_base_certified(self):
        m = toric_patch()
        report = check_corollary_commuting(m.aggregate)
        assert report.overall

    def test_toric_candidates_do_not_disturb_plaquette(self):
        m = toric_patch()
        structure = m.aggregate.structure
        v2 = dense_view(m.aggregate).terms[1]
        for u in m.extras["candidate_unitaries"]:
            u = u.on(structure.sites, structure)
            assert np.linalg.norm(u @ v2 - v2 @ u) < 1e-12

    def test_toric_extended_names_failing_pair(self):
        m = toric_patch(extended=True)
        report = check_corollary_commuting(m.aggregate)
        assert not report.overall
        failing = [n for n in report.notes if "commutation clause fails" in n]
        assert len(failing) == 1
        assert "(U[0], V3)" in failing[0]
        assert "rerun with --theorem es" in failing[0]


class TestCrossTerms:
    def test_generator_is_additive(self):
        rng = np.random.default_rng(17)
        structure = TensorStructure((4,))
        terms = [random_hermitian(rng, 4) for _ in range(3)]
        couplings = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                     for _ in range(2)]
        h = random_hermitian(rng, 4)
        model = LindbladModel(structure, h, couplings)
        total = generator(sum(terms), model)
        acc = sum(generator(t, model) for t in terms)
        assert np.linalg.norm(total - acc) < 1e-12

    def test_dissipation_cross_term_nonzero(self):
        m = two_qubit_aggregation_example()
        spec = AggregateSpec(m.aggregate.structure, m.aggregate.terms,
                             list(m.model.couplings), assignment=[0, [1, 2]],
                             hamiltonian=m.model.hamiltonian)
        cross = dissipation_cross_term(spec)
        assert np.linalg.norm(cross, 2) > 0.5


class TestSimulateAggregate:
    def test_cluster_converges_to_ground_space(self):
        m = cluster_chain(4)
        rng = np.random.default_rng(19)
        psi = haar_pure_state(rng, 16)
        traj = simulate_aggregate(m.aggregate, 30.0, rho0=np.outer(psi, psi.conj()))
        for name in m.aggregate.names():
            assert traj.observables[name][-1] < 1e-6
        gs = ground_space(m.aggregate.total())
        assert expectation(gs.projector, traj.final_state()) > 0.999

    def test_complementary_witnesses_cannot_both_relax(self):
        m = complementary_witnesses()
        traj = simulate_aggregate(m.aggregate, 5.0, n_samples=21)
        assert np.allclose(traj.observables["W"], 1.0, atol=1e-10)

    def test_toric_patch_relaxes(self):
        m = toric_patch()
        traj = simulate_aggregate(m.aggregate, 4.0, n_samples=81, rtol=1e-8, atol=1e-8)
        assert traj.observables["W"][0] > 0.9
        assert traj.observables["W"][-1] < 1e-4

    def test_mean_additivity_and_joint_convergence(self):
        m = cluster_chain(4)
        traj = simulate_aggregate(m.aggregate, 10.0, n_samples=51)
        total = sum(traj.observables[n] for n in m.aggregate.names())
        assert np.allclose(total, traj.observables["W"], atol=1e-12)
        assert traj.observables["W"][-1] < 1e-8
        assert ground_space(m.aggregate.total()).energy == pytest.approx(0.0, abs=1e-12)

    def test_clashing_names_raise_library_error(self):
        # a term named like the total column breaks the additivity check
        m = complementary_witnesses()
        spec = dataclasses.replace(m.aggregate, term_names=["W", "X"])
        with pytest.raises(PreconditionError, match="do not add up"):
            simulate_aggregate(spec, 1.0, n_samples=5)

    def test_dimension_cap(self):
        m = toric_patch(extended=True)
        with pytest.raises(DimensionCapError):
            simulate_aggregate(m.aggregate, 1.0)


class TestAggregateImpliesTotalCertificate:
    def test_cluster_total_witness_certifies(self):
        m = cluster_chain(4)
        report = check_theorem_es_aggregation(m.aggregate)
        assert report.overall
        total = m.aggregate.total()
        cert = certify_ground_state_stability(total, m.model)
        assert cert.certified
        assert cert.c_es is not None
        assert cert.c_es >= min(report.constants) - 1e-6

    def test_d_ladder_monotone_over_prefixes(self):
        m = cluster_chain(5)
        agg = m.aggregate
        d_values = []
        for n in range(1, agg.n_terms + 1):
            d_values.append(float(np.linalg.eigvalsh(dense_view(agg).partial_sum(n))[0]))
        assert all(b >= a - 1e-12 for a, b in zip(d_values, d_values[1:]))
