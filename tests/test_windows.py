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

import dataclasses
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dissipctl.linalg import LocalOperator, TensorStructure, eigenvalues, embed_sum
from dissipctl.models import REGISTRY, build, cluster_chain
from dissipctl.serialize import aggregate_from_json, aggregate_to_json, matrix_to_json
from dissipctl.scalability import (
    AggregateSpec,
    _commutes,
    _factor,
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
    every other term, every unitary U_k and every factor U_k' L_k, with its
    verdict and defect."""
    factors = [_factor(spec.structure, u, l) for u, l in zip(spec.unitaries, spec.couplings)]
    for i, b in enumerate(spec.terms):
        for kind, ops in (("terms", spec.terms[:i]), ("unitaries", spec.unitaries),
                          ("factors", factors)):
            for j, a in enumerate(ops):
                ok, defect = _commutes(spec.structure, a, b, tol)
                dense_ok, dense_defect = oracles.clause(spec, kind, j, i, tol)
                assert ok == dense_ok and _close(defect, dense_defect), (defect, dense_defect)


def assert_theorems_agree(spec: AggregateSpec):
    """The windowed theorems against the dense ones; and a commuting
    certificate, whose clauses make every cross-channel generator vanish,
    implies the direct one."""
    es = check_theorem_es_aggregation(spec)
    assert_reports_agree(es, oracles.check_theorem_es_aggregation(spec))
    assert_reports_agree(check_theorem_ds_aggregation(spec),
                         oracles.check_theorem_ds_aggregation(spec))
    if spec.unitaries is not None:
        commuting = check_corollary_commuting(spec)
        assert_reports_agree(commuting, oracles.check_corollary_commuting(spec))
        assert_clauses_agree(spec)
        assert es.overall or not commuting.overall


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


def qutrit_cycle() -> AggregateSpec:
    """Terms |1><1| and |2><2| of a qutrit, each channel moving its term's
    level to the other's, with identity unitaries: every clause of the U_k
    holds, while the population cycles between the two levels."""
    e = np.eye(3)
    return AggregateSpec(TensorStructure((3,)), [np.diag(e[1]), np.diag(e[2])],
                         [np.outer(e[2], e[1]), np.outer(e[1], e[2])], assignment=[0, 1],
                         unitaries=[e, e])


def identity_unitaries(name: str) -> AggregateSpec:
    spec = build(name).aggregate
    identity = LocalOperator((), np.ones((1, 1)))
    return dataclasses.replace(spec, unitaries=[identity] * spec.n_channels)


@pytest.mark.parametrize("make", [qutrit_cycle,
                                  partial(identity_unitaries, "toric_patch(extended)")],
                         ids=["qutrit_cycle", "toric_patch(extended)"])
def test_commuting_certificate_needs_the_factor_clause(make):
    # both were certified by the corollary, and neither by es
    spec = make()
    assert_theorems_agree(spec)
    assert not check_theorem_es_aggregation(spec).overall
    assert any(" L[" in note for note in check_corollary_commuting(spec).notes)


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
        return oracles.pauli_string(" ".join(f"{p}{s}" for p, s in factors), structure)

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
    h = {}  # no H: zero
    if separated or draw(st.booleans(), label="hamiltonian"):
        h["hamiltonian"] = draw(st.sampled_from([0.5, 2.0])) * pauli(pauli_sites(2))
    return AggregateSpec(structure=structure, terms=terms, couplings=couplings,
                         assignment=assignment, unitaries=unitaries, new_couplings=new, **h)


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
        assert eigenvalues(bound)[-1] <= 1e-9 * max(1.0, np.linalg.norm(bound))
    if ds.overall:
        assert eigenvalues(g)[-1] <= 1e-9 * max(1.0, np.linalg.norm(g))


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
            projector = np.eye(2 ** n) + sign * oracles.pauli_string(stabilizer, structure)
            couplings.append(matrix_to_json(oracles.pauli_string(unitary, structure) @ projector))
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
    lists = [spec.terms, spec.couplings, spec.unitaries or [], spec.new_couplings,
             [spec.hamiltonian]]
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


# -- idle qubits -----------------------------------------------------------------
#
# Every eigenvalue verdict reads the spectral rule of the spectrum it
# decomposes, and spec(Y (x) I) = spec(Y), so qubits on which no operator acts
# change no verdict, constant or margin.  Only d, an eigenvalue of the whole
# space, is recomputed.

_SCALES = [1e-2, 1e-1, 1.0, 1e1, 1e2]


@st.composite
def pumped_specs(draw):
    """Specs on one to three qubits, every operator scale from 1e-2 to 1e2.
    Each term is a P, with P = R|0><0|R' on one site or that times |0><0|
    on the next, R a rotation of the term's first site, and has its own
    decay r R sigma_- R' there, with U = R X R'.  At times the term also
    meets an unassigned weak pump R sigma_+ R' (1e-2 or 1e-1) against one or
    two strong decays (1e1 or 1e2): the positive eigenvalue of its
    generator is then down to 1e-8 of the generator's norm, which a
    tolerance growing with the idle qubits passed.  Unassigned decays, pumps
    and dephasings R Z R' (U = I) fall on any site; at times there are an
    H, h R X R', and a new channel."""
    n = draw(st.integers(1, 3), label="qubits")
    rotations = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
                 for t in draw(st.lists(st.sampled_from([0.0, 0.3, 1.1]), min_size=n,
                                        max_size=n), label="angles")]
    scale = st.sampled_from(_SCALES)

    def on(site: int, m: np.ndarray) -> LocalOperator:
        return LocalOperator((site,), rotations[site - 1] @ m @ rotations[site - 1].T)

    p, minus, z = np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    identity = LocalOperator((), np.ones((1, 1)))
    terms, couplings, unitaries = [], [], []
    for site in draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True),
                     label="term sites"):
        term = on(site, draw(scale) * p)
        if site < n and draw(st.booleans(), label="two-site term"):
            term = LocalOperator((site, site + 1), np.kron(term.matrix, p))
        terms.append(term)
        couplings.append(on(site, draw(scale) * minus))
        unitaries.append(on(site, np.array([[0.0, 1.0], [1.0, 0.0]])))
        if draw(st.booleans(), label="pumped"):  # against one or two strong decays
            others = [minus] * draw(st.integers(1, 2)) + [minus.T]
            couplings += [on(site, draw(st.sampled_from(_SCALES[3:] if kind is minus else
                                                          _SCALES[:2])) * kind) for kind in others]
            unitaries += [identity] * len(others)
    for kind in draw(st.lists(st.sampled_from([minus, minus.T, z]), max_size=2), label="others"):
        couplings.append(on(draw(st.integers(1, n)), draw(scale) * kind))
        unitaries.append(identity)
    h = {}
    if draw(st.booleans(), label="hamiltonian"):
        h["hamiltonian"] = on(draw(st.integers(1, n)), draw(scale) * np.array([[0.0, 1.0],
                                                                                 [1.0, 0.0]]))
    new = [on(draw(st.integers(1, n)), draw(scale) * minus)
           for _ in range(draw(st.integers(0, 1), label="new channels"))]
    return AggregateSpec(TensorStructure.qubits(n), terms, couplings,
                         assignment=list(range(len(terms))), unitaries=unitaries,
                         new_couplings=new, **h)


def _verdicts(spec: AggregateSpec) -> tuple[dict, list[float]]:
    """Every theorem's outcome, its numbers as exact reprs and the notes
    without the printed norms, which are those of the whole space; and the
    ground energies d of the aggregate reports."""
    out, d = {}, []
    for check in (check_theorem_es_aggregation, check_theorem_ds_aggregation,
                  check_corollary_commuting):
        report = check(spec)
        notes = [re.sub(r"norm [^)]*\)", "norm)", note) for note in report.notes]
        out[report.mode] = repr((report.overall, report.per_term, notes))
        d.append(report.d_total)
    for mode, d_free in (("es", False), ("ds", False), ("es", True), ("ds", True)):
        out[mode, d_free] = repr(_outcome(check_incremental, spec, spec.n_terms - 1, 1.0,
                                          mode, d_free))
    return out, d


@settings(max_examples=80, deadline=None)
@given(pumped_specs())
def test_idle_qubits_change_no_verdict(spec):
    verdicts, d = _verdicts(spec)
    for k in (2, 5):
        idle = dataclasses.replace(spec, structure=TensorStructure(spec.structure.dims + (2,) * k))
        idle_verdicts, idle_d = _verdicts(idle)
        assert idle_verdicts == verdicts, k
        assert all(_close(x, y) for x, y in zip(idle_d, d)), k


@pytest.mark.parametrize("n_qubits", [1, 4, 8, 12])
def test_a_tilted_projector_commutes_at_no_size(n_qubits):
    # [P, Q] for P = diag(1, 0) and Q = P tilted by 3e-8 has the norm 4.2e-8,
    # 42 tol; the threshold carried the copies of the other sites twice and
    # passed it from N = 12
    v = np.array([np.cos(3e-8), np.sin(3e-8)])
    ok, defect = _commutes(TensorStructure.qubits(n_qubits), LocalOperator((1,), np.diag(
        [1.0, 0.0])), LocalOperator((1,), np.outer(v, v)), 1e-9)
    assert not ok
    assert defect == pytest.approx(np.sqrt(2.0 ** n_qubits) * 3e-8, rel=1e-6)
