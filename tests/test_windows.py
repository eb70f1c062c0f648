"""The aggregation theorems on support windows against the dense oracle.

`dissipctl.scalability` computes every quantity on the union of the supports
of the operators it involves; `oracles` keeps the dense theorems, which
compute them on the full space.  Verdicts, channels, notes, flags and
exceptions must be equal, constants, margins, ground energies and cross-term
norms equal to 1e-12, and the commutation defects of every clause equal to
1e-12 as numbers, not only as the three digits a note prints.  Specs arrive
local (the registry builders, Pauli shorthands and the JSON written by
`aggregate_to_json`) or as dense matrices reduced to their supports on load
(arrays passed to `AggregateSpec` and dense JSON).
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dissipctl.linalg import TensorStructure, embed_sum, max_eigenvalue, pauli_string
from dissipctl.models import REGISTRY, build, cluster_chain
from dissipctl.serialize import aggregate_from_json, aggregate_to_json, matrix_to_json
from dissipctl.scalability import (
    AggregateSpec,
    _commutes,
    check_corollary_commuting,
    check_incremental,
    check_theorem_ds_aggregation,
    check_theorem_es_aggregation,
)
from dissipctl.stability import _schur_constant, largest_constant

NUMBERS = ("c", "scalability_margin")


def _close(a, b) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def assert_reports_agree(windowed, dense):
    assert (windowed.mode, windowed.overall, windowed.notes) == \
        (dense.mode, dense.overall, dense.notes)
    assert windowed.d_total == dense.d_total  # one dense eigensolve on both sides
    assert len(windowed.per_term) == len(dense.per_term)
    for w, d in zip(windowed.per_term, dense.per_term):
        assert w.keys() == d.keys()
        assert {k: v for k, v in w.items() if k not in NUMBERS} == \
            {k: v for k, v in d.items() if k not in NUMBERS}
        for key in NUMBERS:
            assert (w[key] is None) == (d[key] is None), key
            if d[key] is not None:
                assert _close(w[key], d[key]), (key, w[key], d[key])


def assert_clauses_agree(spec: AggregateSpec, tol: float = 1e-9):
    """Every commutation clause the corollary can test: each term against
    every other term and every unitary, with its verdict and defect."""
    for i, b in enumerate(spec.terms):
        for kind, ops in (("terms", spec.terms[:i]), ("unitaries", spec.unitaries)):
            for j, a in enumerate(ops):
                ok, defect = _commutes(spec.structure, a, b, tol)
                dense_ok, dense_defect = oracles.clause(spec, kind, j, i, tol)
                assert ok == dense_ok and _close(defect, dense_defect), (defect, dense_defect)


def assert_theorems_agree(spec: AggregateSpec):
    assert_reports_agree(check_theorem_es_aggregation(spec),
                         oracles.check_theorem_es_aggregation(spec))
    assert_reports_agree(check_theorem_ds_aggregation(spec),
                         oracles.check_theorem_ds_aggregation(spec))
    if spec.unitaries is not None:
        assert_reports_agree(check_corollary_commuting(spec),
                             oracles.check_corollary_commuting(spec))
        assert_clauses_agree(spec)


def _outcome(check, spec, n, c, mode, d_free):
    try:
        return check(spec, n, c, mode=mode, d_free=d_free)
    except Exception as exc:  # the type and message must agree too
        return type(exc), str(exc)


def assert_incremental_agrees(spec: AggregateSpec):
    """`check_incremental` against the dense oracle at every n (the two out
    of range included), both modes, with and without d, and c = 1, 1/4; the
    dense operators that depend on neither c nor d_free are built once per n."""
    for n in range(spec.n_terms + 1):
        ops = oracles.incremental_operators(spec, n) if 1 <= n < spec.n_terms else None
        for mode in ("es", "ds"):
            for d_free in (False, True):
                for c in (1.0, 0.25):
                    windowed = _outcome(check_incremental, spec, n, c, mode, d_free)
                    dense = _outcome(partial(oracles.check_incremental, ops=ops),
                                     spec, n, c, mode, d_free)
                    case = (n, mode, d_free, c)
                    if isinstance(dense[0], type) or isinstance(windowed[0], type):
                        assert windowed == dense, case
                        continue
                    (holds, info), (dense_holds, dense_info) = windowed, dense
                    assert holds == dense_holds and info.keys() == dense_info.keys(), case
                    for key, value in dense_info.items():
                        if isinstance(value, bool):
                            assert info[key] == value, (case, key)
                        else:
                            assert _close(info[key], value), (case, key, info[key], value)


def via_json(spec: AggregateSpec) -> AggregateSpec:
    """The spec written by `aggregate_to_json`, each operator on its sites."""
    return aggregate_from_json(aggregate_to_json(spec))


def via_dense_json(spec: AggregateSpec) -> AggregateSpec:
    """The spec written as dense JSON matrices and reduced again on load."""
    view = oracles.dense_view(spec)

    def dense(ops) -> list:
        return list(map(matrix_to_json, ops))

    obj = dict(aggregate_to_json(spec), terms=dense(view.terms), couplings=dense(view.couplings),
               new_couplings=dense(view.new_couplings))
    if spec.unitaries is not None:
        obj["unitaries"] = dense(view.unitaries)
    if spec.hamiltonian is not None:
        obj["H"] = matrix_to_json(view.hamiltonian)
    return aggregate_from_json(obj)


AGGREGATES = sorted(name for name in REGISTRY if build(name).aggregate is not None)


@pytest.mark.parametrize("name", AGGREGATES + ["toric_patch(extended)"])
def test_registry_aggregates(name):
    assert_theorems_agree(build(name).aggregate)
    assert_incremental_agrees(build(name).aggregate)


@pytest.mark.parametrize("name", AGGREGATES + ["toric_patch(extended)"])
def test_registry_aggregates_via_json(name):
    assert_theorems_agree(via_json(build(name).aggregate))


@pytest.mark.parametrize("name", AGGREGATES)
def test_registry_aggregates_via_dense_json(name):
    spec = via_dense_json(build(name).aggregate)
    assert_theorems_agree(spec)
    assert_incremental_agrees(spec)


@pytest.mark.parametrize("n", range(3, 10))
def test_cluster_chains(n):
    assert_theorems_agree(cluster_chain(n).aggregate)


@pytest.mark.parametrize("n", range(3, 10))
def test_incremental_cluster_chains(n):
    assert_incremental_agrees(cluster_chain(n).aggregate)


def test_incremental_memory_is_that_of_its_window():
    # the window of W_1..W_3 and the channels that meet them is 7 of the 10
    # qubits; the check on the whole space peaked at 168 MB
    spec = cluster_chain(10).aggregate
    tracemalloc.start()
    try:
        holds, _ = check_incremental(spec, 2, 1.0, mode="ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds and peak < 8e6


@st.composite
def pauli_aggregates(draw, separated: bool = False):
    """Terms a_t (1 +- S_t) with channels U_t (1 +- S_t), S_t and U_t Pauli
    strings on up to three and two random sites, so supports overlap in every
    pattern, and U_t at times chosen to anticommute with S_t; extra
    unassigned Pauli channels; at times one dense term of full support
    with a dense channel, which every other channel meets; new channels of
    the extra channels' form; and at times H, a Pauli string on up to two
    sites, which commutes or anticommutes with each S_t.

    With `separated`, the S_t cover disjoint blocks of consecutive sites,
    each U_t anticommutes with its S_t, and H is always there and nothing
    else: every term has its own constant and no other channel meets it,
    so H decides the verdict."""
    n = draw(st.integers(3, 5), label="qubits")
    structure = TensorStructure.qubits(n)
    eye = np.eye(structure.total_dim)

    def pauli_sites(max_sites: int) -> list[tuple[str, int]]:
        sites = draw(st.lists(st.integers(1, n), min_size=1, max_size=max_sites, unique=True))
        return [(draw(st.sampled_from("XYZ")), s) for s in sites]

    def pauli(factors) -> np.ndarray:
        return pauli_string(" ".join(f"{p}{s}" for p, s in factors), structure)

    def projector(factors) -> np.ndarray:
        return eye + draw(st.sampled_from([1.0, -1.0])) * pauli(factors)

    if separated:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)), label="blocks"))
        stabilizers = [[(draw(st.sampled_from("XYZ")), s) for s in range(a + 1, b + 1)]
                       for a, b in zip([0, *cuts], [*cuts, n])]
    else:
        stabilizers = [pauli_sites(3) for _ in range(draw(st.integers(1, 4), label="pauli terms"))]
    terms, couplings, unitaries = [], [], []
    for factors in stabilizers:
        if separated or draw(st.booleans(), label="flipping channel"):
            # one site of S_t with another letter: U_t anticommutes with S_t
            letter, site = draw(st.sampled_from(factors))
            unitary = [(draw(st.sampled_from("XYZ".replace(letter, ""))), site)]
        else:
            unitary = pauli_sites(2)
        p, u = projector(factors), pauli(unitary)
        terms.append(draw(st.sampled_from([0.5, 0.3, 1.25])) * p)
        couplings.append(u @ p)
        unitaries.append(u)
    extras = 0 if separated else 2  # the most extra and new channels
    if extras and draw(st.booleans(), label="dense term"):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16), label="seed"))
        g = rng.standard_normal((structure.total_dim,) * 2)
        u, _ = np.linalg.qr(rng.standard_normal(g.shape))
        terms.append(g @ g.T / np.linalg.norm(g) ** 2)
        couplings.append(u @ terms[-1])
        unitaries.append(u)
    assignment = list(range(len(terms)))
    for _ in range(draw(st.integers(0, extras), label="extra channels")):
        u = pauli(pauli_sites(2))
        couplings.append(draw(st.sampled_from([1.0, 0.5])) * u @ projector(pauli_sites(3)))
        unitaries.append(u)
    new = [draw(st.sampled_from([1.0, 0.5])) * pauli(pauli_sites(2)) @ projector(pauli_sites(3))
           for _ in range(draw(st.integers(0, extras), label="new channels"))]
    h = None
    if separated or draw(st.booleans(), label="hamiltonian"):
        h = draw(st.sampled_from([0.5, 2.0])) * pauli(pauli_sites(2))
    return AggregateSpec(structure=structure, terms=terms, couplings=couplings,
                         assignment=assignment, unitaries=unitaries, new_couplings=new,
                         hamiltonian=h)


@settings(max_examples=60, deadline=None)
@given(pauli_aggregates())
def test_random_pauli_aggregates(spec):
    assert_theorems_agree(spec)
    assert_theorems_agree(via_dense_json(spec))


@settings(max_examples=40, deadline=None)
@given(pauli_aggregates())
def test_random_incremental(spec):
    assert_incremental_agrees(spec)


@settings(max_examples=60, deadline=None)
@given(st.one_of(pauli_aggregates(), pauli_aggregates(separated=True)))
def test_certificates_bound_the_dense_generator(spec):
    """An es certificate gives G(W) <= -min(c) W and a ds certificate
    G(W) <= 0, with G the dense generator of the spec's model, H included."""
    view = oracles.dense_view(spec)
    w = view.total
    g = oracles.generator(w, view.model())
    es, ds = check_theorem_es_aggregation(spec), check_theorem_ds_aggregation(spec)
    if es.overall:
        bound = g + min(es.constants) * w
        assert max_eigenvalue(bound) <= 1e-9 * max(1.0, np.linalg.norm(bound))
    if ds.overall:
        assert max_eigenvalue(g) <= 1e-9 * max(1.0, np.linalg.norm(g))


@st.composite
def pauli_shorthand_specs(draw):
    """Aggregate JSON whose operators arrive local: terms a (1 +- S_t) and
    unitaries U_t as Pauli shorthands, at times with an identity factor on
    another site; channels as shorthands b P, or as the dense matrix of
    U_t (1 +- S_t), which is reduced on load."""
    n = draw(st.integers(3, 5), label="qubits")
    structure = TensorStructure.qubits(n)

    def pauli_text(max_sites: int) -> str:
        sites = draw(st.lists(st.integers(1, n), min_size=1, max_size=max_sites, unique=True))
        factors = [f"{draw(st.sampled_from('XYZ'))}{s}" for s in sites]
        idle = [s for s in range(1, n + 1) if s not in sites]
        if idle and draw(st.booleans(), label="identity factor"):
            factors.append(f"I{draw(st.sampled_from(idle))}")
        return " ".join(draw(st.permutations(factors)))

    terms, couplings, unitaries = [], [], []
    for _ in range(draw(st.integers(1, 4), label="terms")):
        stabilizer, unitary = pauli_text(3), pauli_text(2)
        a, sign = draw(st.sampled_from([0.5, 1.25])), draw(st.sampled_from([1.0, -1.0]))
        terms.append({"pauli": stabilizer, "coeff": sign * a, "offset": a})
        unitaries.append({"pauli": unitary})
        if draw(st.booleans(), label="dense channel"):
            projector = np.eye(2 ** n) + sign * pauli_string(stabilizer, structure)
            couplings.append(matrix_to_json(pauli_string(unitary, structure) @ projector))
        else:
            couplings.append({"pauli": unitary, "coeff": draw(st.sampled_from([1.0, 0.5]))})
    return {"dims": [2] * n, "terms": terms, "couplings": couplings,
            "assignment": list(range(len(terms))), "unitaries": unitaries}


@settings(max_examples=40, deadline=None)
@given(pauli_shorthand_specs())
def test_pauli_shorthand_specs(obj):
    spec = aggregate_from_json(obj)
    for op, term in zip(spec.terms, obj["terms"]):  # the sites of the X, Y and Z factors
        assert op.sites == tuple(sorted(int(f[1:]) for f in term["pauli"].split()
                                        if f[0] != "I"))
    assert_theorems_agree(spec)


def test_schur_constant_of_copies_is_the_dense_constant():
    # B = 1e-9 against ker(C): below the threshold tol * sqrt(2) on its own,
    # above it in four copies, where its Frobenius norm is 2e-9
    w = np.diag([1.0, 0.0])
    m = np.array([[2.0, 1e-9], [1e-9, 0.0]])
    assert largest_constant(m, w) == _schur_constant(m, *np.linalg.eigh(w), 1e-9) == 2.0
    dense = largest_constant(np.kron(m, np.eye(4)), np.kron(w, np.eye(4)))
    assert dense is None
    assert _schur_constant(m, *np.linalg.eigh(w), 1e-9, copies=4) is None


def assert_sums_are_the_reference(spec: AggregateSpec):
    """`embed_sum` of each operator list of the spec, and of all of them, is
    the dense reference sum bitwise, values and dtype."""
    h = [] if spec.hamiltonian is None else [spec.hamiltonian]
    lists = [spec.terms, spec.couplings, spec.unitaries or [], spec.new_couplings, h]
    for ops in [*lists, [op for ops in lists for op in ops]]:
        got, want = embed_sum(ops, spec.structure), oracles.embed_sum(ops, spec.structure)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", AGGREGATES + ["toric_patch(extended)"])
def test_embed_sum_of_registry_aggregates(name):
    assert_sums_are_the_reference(build(name).aggregate)


@settings(max_examples=60, deadline=None)
@given(st.one_of(pauli_aggregates(), pauli_aggregates(separated=True)))
def test_embed_sum_of_random_pauli_aggregates(spec):
    assert_sums_are_the_reference(spec)
