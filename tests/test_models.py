"""Every expected record shipped with a built-in model is re-derived here by
the certification/simulation pipeline; no stored number is trusted untagged."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from dissipctl.errors import DimensionCapError, InputFormatError, PreconditionError
from dissipctl.lindblad import evolve, generator, dissipation_functional
from dissipctl.linalg import PAULI_X, PAULI_Z, commutator, embed, is_projection
from dissipctl.models import (
    REGISTRY,
    build,
    cluster_chain,
    complementary_witnesses,
    three_level_example,
    toric_patch,
    two_level_example,
    two_qubit_aggregation_example,
)
from dissipctl.scalability import (
    check_corollary_commuting,
    check_incremental,
)
from dissipctl.stability import check_condition_ds, check_condition_es, largest_constant
from oracles import check_scalability_condition, dense_view, frustration_free_check, ground_space


def test_every_expected_entry_is_tagged():
    for name in REGISTRY:
        named = build(name)
        assert named.expected, name
        for key, record in named.expected.items():
            assert set(record) == {"value", "tag"}, (name, key)
            assert record["tag"] in ("exact", "derived", "trivial"), (name, key)


class TestTwoLevel:
    def test_expected_record(self):
        m = two_level_example()
        v = m.candidates["V"]
        assert check_condition_es(v, m.model) == pytest.approx(
            m.expected["c_es"]["value"], abs=1e-6)
        assert check_condition_ds(v, m.model) == pytest.approx(
            m.expected["c_ds"]["value"], abs=1e-6)
        assert np.linalg.norm(commutator(v, m.model.hamiltonian.matrix)) \
            == m.expected["commutes_with_hamiltonian"]["value"] - 1

        traj = evolve(m.model, np.diag([1.0, 0.0]).astype(complex), 25.0)
        eq = np.array(m.expected["equilibrium"]["value"], dtype=complex)
        assert np.linalg.norm(traj.final_state() - eq) < 1e-8
        assert traj.purities()[-1] == pytest.approx(
            m.expected["equilibrium_purity"]["value"], abs=1e-8)

    def test_general_family_member(self):
        m = two_level_example(l00=0.3 + 0.1j, l10=1.5)
        v = m.candidates["V"]
        assert m.expected["c_es"]["value"] == pytest.approx(2.25)
        assert check_condition_es(v, m.model) == pytest.approx(
            m.expected["c_es"]["value"], abs=1e-6)
        assert check_condition_ds(v, m.model) == pytest.approx(
            m.expected["decay_rate"]["value"], abs=1e-6)

    def test_rejects_vanishing_l10(self):
        with pytest.raises(PreconditionError):
            two_level_example(l10=0.0)


class TestThreeLevel:
    def test_expected_record(self):
        m = three_level_example()
        v = m.candidates["V"]
        g = generator(v, m.model)
        d = dissipation_functional(v, m.model)
        assert np.allclose(np.diag(g).real, m.expected["generator_diag"]["value"], atol=1e-12)
        assert np.allclose(np.diag(d).real, m.expected["dissipation_diag"]["value"], atol=1e-12)
        assert check_condition_es(v, m.model) is m.expected["c_es"]["value"]
        assert check_condition_ds(v, m.model) == pytest.approx(
            m.expected["c_ds"]["value"], abs=1e-6)
        # largest c with D(V) >= c V^2
        assert largest_constant(d, v @ v) == pytest.approx(
            m.expected["dissipation_square_c"]["value"], abs=1e-6)


class TestTwoQubit:
    def test_expected_record(self):
        m = two_qubit_aggregation_example()
        total = m.aggregate.total()
        assert np.allclose(np.diag(total).real, m.expected["sum_diag"]["value"], atol=0)
        assert ground_space(total).energy == pytest.approx(m.expected["d"]["value"], abs=1e-12)
        assert frustration_free_check(dense_view(m.aggregate).terms) \
            is m.expected["frustration_free"]["value"]

        holds_free, _ = check_incremental(m.aggregate, 1, 1.0, d_free=True)
        assert holds_free is m.expected["corollary_d_free_c1"]["value"]
        holds_inc, _ = check_incremental(m.aggregate, 1, 1.0)
        assert holds_inc is m.expected["incremental_es_c1"]["value"]
        holds_ds, _ = check_incremental(m.aggregate, 1, 1.0, mode="ds")
        assert holds_ds is m.expected["incremental_ds_holds"]["value"]


class TestClusterChain:
    def test_expected_record(self):
        m = cluster_chain(4)
        view = dense_view(m.aggregate)
        terms = view.terms
        defect = max(float(np.linalg.norm(commutator(a, b))) for a, b in combinations(terms, 2))
        assert (defect == 0.0) is m.expected["terms_commute"]["value"]
        for w in terms:
            assert is_projection(w)
        wuw = max(float(np.linalg.norm(w @ u @ w)) for w, u in zip(terms, view.unitaries))
        assert (wuw == 0.0) is m.expected["wuw_zero"]["value"]
        report = check_corollary_commuting(m.aggregate)
        assert report.overall is m.expected["commuting_certified"]["value"]
        for c in report.constants:
            assert c == pytest.approx(m.expected["per_term_c"]["value"], abs=1e-6)
        gs = ground_space(sum(terms))
        assert gs.dimension == m.expected["ground_space_dim"]["value"]

    def test_size_validation(self):
        with pytest.raises(PreconditionError):
            cluster_chain(2)
        with pytest.raises(DimensionCapError):
            cluster_chain(30)

    def test_five_qubit_chain(self):
        m = cluster_chain(5)
        assert m.aggregate.n_terms == 3
        assert ground_space(m.aggregate.total()).dimension == 2**5 // 2**3


class TestToricPatch:
    def test_base_expected_record(self):
        m = toric_patch()
        structure, view = m.aggregate.structure, dense_view(m.aggregate)
        defect = max(float(np.linalg.norm(commutator(u.on(structure.sites, structure),
                                                     view.terms[1])))
                     for u in m.extras["candidate_unitaries"])
        assert (defect == 0.0) is m.expected["candidates_commute_with_v2"]["value"]
        gs = ground_space(view.partial_sum(2))
        assert gs.dimension == m.expected["ground_space_dim_v1_v2"]["value"]
        report = check_corollary_commuting(m.aggregate)
        assert report.overall is m.expected["commuting_certified"]["value"]

    def test_extended_expected_record(self):
        m = toric_patch(extended=True)
        view = dense_view(m.aggregate)
        defect = float(np.linalg.norm(commutator(view.unitaries[0], view.terms[2])))
        assert (defect > 1.0) is m.expected["z1_v3_commutator_nonzero"]["value"]
        ok, margin = check_scalability_condition(m.aggregate, 2, 0)
        assert ok is m.expected["scalability_v3_via_z1_channel"]["value"]
        assert margin >= -1e-9
        report = check_corollary_commuting(m.aggregate)
        assert report.overall is m.expected["commuting_certified"]["value"]


class TestRemarkCounterexample:
    def test_expected_record(self):
        m = complementary_witnesses()
        total = m.aggregate.total()
        assert ground_space(total).energy == pytest.approx(m.expected["d"]["value"])
        assert frustration_free_check(dense_view(m.aggregate).terms) \
            is m.expected["frustration_free"]["value"]
        traj = evolve(m.model, None, 3.0, n_samples=11,
                      observables={"W": total})
        constant = bool(np.allclose(traj.observables["W"], 1.0, atol=1e-12))
        assert constant is m.expected["w_expectation_constant"]["value"]


class TestBuildParser:
    def test_plain_name(self):
        assert build("three_level").name == "three_level"

    def test_integer_argument(self):
        m = build("cluster_chain(5)")
        assert m.model.structure.n_sites == 5

    def test_keyword_flag(self):
        m = build("toric_patch(extended)")
        assert m.model.structure.n_sites == 9

    def test_unknown_name(self):
        with pytest.raises(InputFormatError):
            build("no_such_model")

    def test_bad_argument(self):
        with pytest.raises(InputFormatError):
            build("cluster_chain(maybe)")

    @pytest.mark.parametrize("name", ["toric_patch(true)", "toric_patch(1)",
                                      "cluster_chain(5.5)", "cluster_chain(extended)",
                                      "three_level(1)"])
    def test_argument_of_the_wrong_kind(self, name):
        with pytest.raises(InputFormatError):
            build(name)

    def test_huge_qubit_count_hits_the_cap_without_computing_2_to_the_n(self):
        with pytest.raises(DimensionCapError):
            build("cluster_chain(1" + "0" * 400 + ")")


@pytest.mark.parametrize("name", sorted(REGISTRY) + [
    "two_level(0.5, 2)", "cluster_chain(3)", "cluster_chain(6)", "toric_patch(extended)"])
def test_registry_data_is_float64(name):
    # every registry model is real; a stray dtype=complex would silently put
    # the certification path back on complex BLAS
    named = build(name)
    model, spec = named.model, named.aggregate
    ops = [model.hamiltonian, *model.couplings, *named.extras.get("candidate_unitaries", [])]
    if spec is not None:  # an aggregate's candidates are lists of its terms
        ops += [*spec.terms, *(spec.unitaries or [])]
    matrices = [op.matrix for op in ops]
    matrices += [v for v in named.candidates.values() if not isinstance(v, list)]
    assert [a.dtype for a in matrices] == [np.float64] * len(matrices)


@pytest.mark.parametrize("name", ["two_qubit", "cluster_chain", "cluster_chain(5)",
                                  "toric_patch", "toric_patch(extended)",
                                  "complementary_witnesses"])
def test_model_is_built_from_the_aggregate(name):
    # one description: the model holds the aggregate's own channels, then its
    # new ones, and its H; each candidate is a list of the aggregate's terms
    named = build(name)
    spec = named.aggregate
    channels = spec.couplings + spec.new_couplings
    assert len(named.model.couplings) == len(channels)
    assert all(a is b for a, b in zip(named.model.couplings, channels))
    assert named.model.hamiltonian is spec.hamiltonian
    assert all(any(t is w for w in spec.terms) for v in named.candidates.values() for t in v)
    assert set(named.extras) <= {"candidate_unitaries"}


@pytest.mark.parametrize("name", ["two_level", "two_qubit", "toric_patch"])
def test_model_and_candidates_are_built_once(name):
    # an aggregate's model was built anew, H and every coupling checked
    # Hermitian again, on each access
    named = build(name)
    assert named.model is named.model and named.candidates is named.candidates


@pytest.mark.parametrize("name", ["cluster_chain(10)", "toric_patch(extended)"])
def test_build_allocates_no_dense_operator(name):
    # the operators are local; a 2^n x 2^n matrix (8 MB at ten qubits) is
    # built only when the model, a candidate or d is asked for
    tracemalloc.start()
    try:
        build(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("name, sites", [
    ("cluster_chain", [("Z", 2), ("Z", 3)]),
    ("cluster_chain(6)", [("Z", 2), ("Z", 3), ("Z", 4), ("Z", 5)]),
    ("toric_patch", [("Z", 1), ("X", 5)]),
    ("toric_patch(extended)", [("Z", 1), ("X", 5), ("Z", 7)]),
])
def test_stabilizer_aggregates_against_dense_embed(name, sites):
    # U_t is the single-site Pauli, W_t a projection, and L_t = U_t (2 W_t)
    named = build(name)
    spec = named.aggregate
    paulis = {"X": PAULI_X, "Z": PAULI_Z}
    assert len(spec.unitaries) == len(spec.terms) == len(spec.couplings) == len(sites)
    view = dense_view(spec)
    for (letter, site), u, w, l in zip(sites, view.unitaries, view.terms, view.couplings):
        assert np.array_equal(u, embed(paulis[letter], [site], spec.structure))
        assert is_projection(w)
        assert np.array_equal(l, u @ (2.0 * w))
    for i, u in enumerate(named.extras.get("candidate_unitaries", []), start=1):
        assert np.array_equal(u.on(spec.structure.sites, spec.structure),
                              embed(PAULI_Z, [i], spec.structure))
