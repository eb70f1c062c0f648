"""Gauge-twin oracle for the real arithmetic path.

Every registry model is real, so its certificates run in float64.  Its twin
D X D' under a random diagonal phase unitary D (Hamiltonian, couplings,
candidates, aggregate terms, unitary factors and new channels alike) holds
complex data with the same spectra, generator spectra and commutation
relations, so every verdict, constant and margin must agree with the real
path to 1e-12.
"""

import numpy as np
import pytest

from dissipctl.errors import DissipctlError
from dissipctl.lindblad import LindbladModel
from dissipctl.linalg import as_operator
from dissipctl.models import REGISTRY, NamedModel, build
from dissipctl.scalability import (
    AggregateSpec,
    check_corollary_commuting,
    check_incremental,
    check_theorem_ds_aggregation,
    check_theorem_es_aggregation,
)
from dissipctl.stability import certify_ground_state_stability
from oracles import DenseModel, dense_candidate, dense_view

TOL = 1e-12
NAMES = sorted(REGISTRY) + ["two_level(0.5, 2)", "cluster_chain(5)"]


def gauge_twin(named: NamedModel, seed: int) -> NamedModel:
    theta = 2 * np.pi * np.random.default_rng(seed).random(named.model.dim)
    twist = np.exp(1j * (theta[:, None] - theta))  # exactly 1 on the diagonal

    def conj(a):
        return twist * a

    structure = named.model.structure
    model = DenseModel.of(named.model)
    twin_model = LindbladModel(structure, conj(model.hamiltonian),
                               [conj(l) for l in model.couplings])
    spec = named.aggregate
    view = None if spec is None else dense_view(spec)
    twin_spec = None if spec is None else AggregateSpec(
        structure=structure, terms=[conj(t) for t in view.terms],
        couplings=[conj(l) for l in view.couplings], assignment=spec.assignment,
        hamiltonian=None if spec.hamiltonian is None else conj(view.hamiltonian),
        term_names=spec.term_names,
        unitaries=None if view.unitaries is None else [conj(u) for u in view.unitaries],
        new_couplings=[conj(l) for l in view.new_couplings])
    extras = {k: [conj(a.on(structure.sites, structure)) for a in v]
              for k, v in named.extras.items()}
    return NamedModel(named.name, named.description, twin_model,
                      {k: as_operator(conj(dense_candidate(v, structure)))
                       for k, v in named.candidates.items()},
                      twin_spec, named.expected, extras)


def _operators(named: NamedModel) -> list[np.ndarray]:
    """The model's, candidates' and aggregate's operators as matrices of the
    whole space."""
    structure = named.model.structure
    model = DenseModel.of(named.model)
    ops = [model.hamiltonian, *model.couplings,
           *(dense_candidate(v, structure) for v in named.candidates.values())]
    if named.aggregate is not None:
        view = dense_view(named.aggregate)
        ops += [*view.terms, *view.couplings, *(view.unitaries or []), *view.new_couplings]
    return ops


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type of the library error it raised."""
    try:
        return fn(*args, **kwargs)
    except DissipctlError as exc:
        return type(exc)


def _assert_close(real, twin, where):
    if isinstance(real, dict):
        assert set(real) == set(twin), where
        for key in real:
            _assert_close(real[key], twin[key], f"{where}.{key}")
    elif isinstance(real, float) and not isinstance(twin, bool):
        assert twin == pytest.approx(real, abs=TOL), where
    else:
        assert twin == real, where


def _scale_outcomes(named: NamedModel) -> dict:
    spec = named.aggregate
    if spec is None:
        return {}
    n, c = spec.n_terms - 1, 1.0
    reports = {
        "es": _outcome(check_theorem_es_aggregation, spec),
        "ds": _outcome(check_theorem_ds_aggregation, spec),
        "commuting": _outcome(check_corollary_commuting, spec),
        "inc-es": _outcome(check_incremental, spec, n, c),
        "inc-ds": _outcome(check_incremental, spec, n, c, mode="ds"),
        "d-free": _outcome(check_incremental, spec, n, c, d_free=True),
        "d-free-ds": _outcome(check_incremental, spec, n, c, mode="ds", d_free=True),
    }
    out = {}
    for theorem, r in reports.items():
        if isinstance(r, type):
            out[theorem] = r
        elif isinstance(r, tuple):  # incremental: (holds, info)
            out[theorem] = {"holds": r[0], **r[1]}
        else:
            out[theorem] = {"overall": r.overall, "d": r.d_total,
                            "c": {e["term"]: e["c"] for e in r.per_term}}
    return out


@pytest.mark.parametrize("name", NAMES)
def test_twin_data_is_complex(name):
    named = build(name)
    twin = gauge_twin(named, seed=5)
    # a diagonal operator is its own twin; every other one turns complex
    for real, op in zip(_operators(named), _operators(twin)):
        diagonal = np.count_nonzero(real - np.diag(np.diagonal(real))) == 0
        assert op.dtype == (np.float64 if diagonal else np.complex128)
    assert any(op.dtype == np.complex128 for op in _operators(twin)) \
        or name == "complementary_witnesses"


@pytest.mark.parametrize("name", NAMES)
def test_check_matches_the_complex_twin(name):
    named = build(name)
    twin = gauge_twin(named, seed=11)
    for key, v in named.candidates.items():
        real = certify_ground_state_stability(v, named.model)
        other = certify_ground_state_stability(twin.candidates[key], twin.model)
        assert (other.is_lyapunov, other.convergence) == (real.is_lyapunov, real.convergence)
        assert set(other.diagnostics) == set(real.diagnostics)
        _assert_close({"c_es": real.c_es, "c_ds": real.c_ds, "d": real.d, **real.margins},
                      {"c_es": other.c_es, "c_ds": other.c_ds, "d": other.d, **other.margins},
                      f"{name}:{key}")


@pytest.mark.parametrize("name", NAMES)
def test_scale_matches_the_complex_twin(name):
    named = build(name)
    _assert_close(_scale_outcomes(named), _scale_outcomes(gauge_twin(named, seed=17)), name)


@pytest.mark.parametrize("name, theorem", [
    ("cluster_chain", "commuting"), ("cluster_chain(5)", "commuting"),
    ("toric_patch", "commuting"), ("two_qubit", "inc-es"), ("two_qubit", "d-free"),
])
def test_twin_reaches_the_certificate(name, theorem):
    # the twin's unitary factors and new channels come along: the commuting
    # and incremental routes certify, instead of failing on a missing operator
    outcome = _scale_outcomes(gauge_twin(build(name), seed=17))[theorem]
    assert isinstance(outcome, dict)
    assert outcome.get("overall", outcome.get("holds")) is True
