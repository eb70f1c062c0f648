"""Independent oracles and sampling helpers of the test suite.

Nothing here is reached by the command line, `scripts/` or the benchmark:
each function is an independent way to compute a quantity that the runtime
computes another way (the bilinear synthesis solver against the closed form,
the Liouvillian kernel against simulation, the RK45 integrator against the
Krylov propagator, dense ground spaces, and the dense
generator, dissipation functional and aggregation theorems against the
windowed ones), or a random ensemble the property tests draw from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np

from dissipctl import lindblad
from dissipctl.errors import (
    DimensionMismatchError, DissipctlError, InfeasibleError, IntegrationError, NonHermitianError,
    PreconditionError,
)
from dissipctl.lindblad import (
    LindbladModel, _observable, dissipation_single_channel, generator_single_channel, liouvillian,
)
from dissipctl.linalg import (
    DEFAULT_TOL, TensorStructure, as_operator, commutator, dagger, hermitian_part, is_hermitian,
    is_psd, max_eigenvalue, min_eigenvalue, psd_spectrum, scaled_tol,
)
from dissipctl.scalability import AggregateReport, AggregateSpec, _cross_single_channel
from dissipctl.stability import largest_constant
from dissipctl.synthesis import BilinearSystem, SynthesisResult, _result


class SolverBudgetError(DissipctlError):
    """Iterative solver exhausted its budget without converging (raised by
    the ``synthesize_pinv`` test oracle; no command-line path reaches it)."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


# -- linear algebra -----------------------------------------------------------


def kron(a, b) -> np.ndarray:
    return np.kron(as_operator(a), as_operator(b))


@dataclass
class Spectrum:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(a, tol: float = DEFAULT_TOL) -> Spectrum:
    """Eigendecomposition restricted to Hermitian input."""
    a = as_operator(a)
    if not is_hermitian(a, tol):
        raise NonHermitianError(
            f"hermitian_eig requires a Hermitian matrix; defect {np.linalg.norm(a - dagger(a)):.3e}"
        )
    w, q = np.linalg.eigh(hermitian_part(a))
    return Spectrum(values=w, vectors=q)


def pinv(a, rtol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below rtol * s_max are zeroed."""
    return np.linalg.pinv(np.asarray(a, dtype=complex), rcond=rtol)


def vec(a) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvec(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != n * n:
        raise DimensionMismatchError(f"vector of length {v.size} is not {n}x{n}")
    return v.reshape(n, n, order="F")


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(a)
    return float(np.linalg.norm(dagger(a) @ a - np.eye(a.shape[0]))) <= scaled_tol(a, tol)


def sqrtm_psd(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues within tolerance of zero are flushed to zero first; the square
    root would otherwise amplify rounding noise from 1e-16 to 1e-8.
    """
    s = hermitian_eig(a, tol)
    w = s.values.copy()
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    w[w < tol * scale] = 0.0
    return (s.vectors * np.sqrt(w)) @ dagger(s.vectors)


# -- random ensembles ---------------------------------------------------------


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * hermitian_part(g)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def random_density(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    r = rank or n
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_projection(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    u = haar_unitary(rng, n)
    cols = u[:, :rank]
    return cols @ dagger(cols)


# -- the dense kernel -----------------------------------------------------------
#
# `lindblad.generator` and `dissipation_functional` as they were before the
# kernels moved onto support windows: every product on the whole space, for a
# model whose H and couplings are matrices of the whole space (`DenseModel`).


@dataclass
class DenseModel:
    """H and the couplings of a model as matrices of the whole space."""

    structure: TensorStructure
    hamiltonian: np.ndarray
    couplings: list[np.ndarray]

    @property
    def dim(self) -> int:
        return self.structure.total_dim

    @classmethod
    def of(cls, model: LindbladModel) -> "DenseModel":
        structure, sites = model.structure, model.structure.sites
        return cls(structure, model.hamiltonian.on(sites, structure),
                   [l.on(sites, structure) for l in model.couplings])


def embed_sum(ops, structure: TensorStructure) -> np.ndarray:
    """The reference of `linalg.embed_sum`, which adds on a window of every
    site: each local operator embedded in the whole space and added, in
    list order, to zeros of the result type of the operators."""
    acc = np.zeros((structure.total_dim,) * 2,
                   dtype=np.result_type(float, *(op.matrix for op in ops)))
    for op in ops:
        acc += op.on(structure.sites, structure)
    return acc


def dense_candidate(v, structure: TensorStructure) -> np.ndarray:
    """A candidate, a matrix or a list of LocalOperators (their sum), as a
    matrix of the whole space."""
    return embed_sum(v, structure) if isinstance(v, list) else v


def _channel_sum(kernel, x: np.ndarray, couplings, start: np.ndarray | None = None) -> np.ndarray:
    """start (default 0) plus kernel(x, L) summed over couplings in list order."""
    acc = np.zeros_like(x) if start is None else start
    for l in couplings:
        acc = acc + kernel(x, l)
    return acc


def generator(x: np.ndarray, model: DenseModel, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Heisenberg-picture drift of the observable ``x``.

    A term -i[x, H] that is exactly zero is dropped, so real x and couplings
    give a real drift.
    """
    x = as_operator(x)
    if not is_hermitian(x, tol):
        raise NonHermitianError("generator is defined here for Hermitian observables")
    h = model.hamiltonian
    if x.shape != h.shape:
        raise DimensionMismatchError(f"observable dim {x.shape[0]} != model dim {h.shape[0]}")
    comm = x @ h - h @ x if h.any() else np.zeros_like(x)
    return _channel_sum(generator_single_channel, x, model.couplings,
                        -1j * comm if comm.any() else None)


def dissipation_functional(x: np.ndarray, model: DenseModel,
                           tol: float = DEFAULT_TOL) -> np.ndarray:
    """Energy-dissipation operator sum_k [L_k', x][x, L_k]."""
    x = as_operator(x)
    if not is_hermitian(x, tol):
        raise NonHermitianError("dissipation functional requires a Hermitian observable")
    return _channel_sum(dissipation_single_channel, x, model.couplings)


# -- dynamics -----------------------------------------------------------------


def expectation(x: np.ndarray, rho: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Mean value tr(x rho) of a Hermitian observable."""
    rho = as_operator(rho)
    x = _observable(x, rho.shape[0], tol)
    return float(complex(np.trace(x @ rho)).real)


def stationary_state(model: LindbladModel, tol: float = 1e-8) -> np.ndarray:
    """A stationary density matrix, from the kernel of the Liouvillian."""
    lam = liouvillian(model)
    w, v = np.linalg.eig(lam)
    idx = int(np.argmin(np.abs(w)))
    rho = unvec(v[:, idx], model.dim)
    rho = hermitian_part(rho)
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-12:
        raise PreconditionError("kernel vector is traceless; stationary state not isolated")
    rho = rho / tr
    if not is_stationary(model, rho, tol):
        raise PreconditionError("no stationary state found within tolerance")
    return rho


def is_stationary(model: LindbladModel, rho: np.ndarray, tol: float = 1e-8) -> bool:
    """||Lambda vec(rho)|| <= tol * ||Lambda|| declares stationarity."""
    lam = liouvillian(model)
    return float(np.linalg.norm(lam @ vec(rho))) <= tol * max(1.0, float(np.linalg.norm(lam)))


def propagate(model: LindbladModel, rho: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(t Lambda) rho, (T, n, n), at the equally spaced `times`: scipy's
    expm_multiply (Al-Mohy and Higham 2011) on the Liouvillian of
    column-stacked states, applied from the defining form -i[H, rho] +
    sum_k L_k rho L_k' - (1/2){L_k'L_k, rho} without forming its n^2 x n^2
    matrix; its adjoint, the Heisenberg drift, serves the norm estimates."""
    from scipy.sparse.linalg import LinearOperator, expm_multiply

    n = model.dim
    dense = DenseModel.of(model)
    h, couplings = dense.hamiltonian, dense.couplings
    k = sum((dagger(l) @ l for l in couplings), np.zeros((n, n)))

    def apply(v, adjoint):
        x = np.asarray(v).reshape(n, n, order="F")
        sign = 1j if adjoint else -1j
        out = sign * (h @ x - x @ h) - 0.5 * (k @ x + x @ k)
        for l in couplings:
            out = out + (dagger(l) @ x @ l if adjoint else l @ x @ dagger(l))
        return out.reshape(-1, order="F")

    op = LinearOperator((n * n, n * n), matvec=lambda v: apply(v, False),
                        rmatvec=lambda v: apply(v, True), dtype=complex)
    # tr(conj(L) (x) L) = |tr L|^2 and tr(I (x) K) = tr(K^T (x) I) = n tr K
    trace = sum(abs(np.trace(l)) ** 2 for l in couplings) - n * np.trace(k).real
    out = expm_multiply(op, rho.reshape(-1, order="F").astype(complex), start=times[0],
                        stop=times[-1], num=len(times), endpoint=True, traceA=trace)
    return out.reshape(len(times), n, n).swapaxes(-1, -2)


# Dormand-Prince 5(4) tableau.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4


def rk45_samples(model: LindbladModel, rho: np.ndarray, times: np.ndarray, h: float,
                 rtol: float, atol: float):
    """The stack (S, n, n) at each sample time, by adaptive RK45 with one step
    size for all states, controlled by the largest per-state error norm;
    hermitizes after every accepted step.  The last stage is evaluated at the
    new state before hermitization, so an accepted step takes its slope as the
    next k[0] (first same as last): six RHS calls a step."""
    rhs = lindblad._rhs_factory(model)
    k = [rhs(rho)] + [None] * 6  # k[0] is the slope at rho
    yield rho
    for t, t1 in zip(times[:-1], times[1:]):
        while t < t1 - 1e-15 * max(1.0, abs(t1)):
            h = min(h, t1 - t)
            if h < 1e-14 * max(1.0, abs(t1)):
                raise IntegrationError(f"step size underflow at t={t:.6g}")
            for i in range(1, 7):
                acc = rho + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
                k[i] = rhs(acc)
            err_mat = h * sum(e * k[i] for i, e in enumerate(_DP_E) if e != 0.0)
            rho_new = rho + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
            scale = atol + rtol * np.maximum(np.abs(rho), np.abs(rho_new))
            err = float(np.sqrt(np.mean(np.abs(err_mat / scale) ** 2, axis=(-2, -1))).max())
            if err <= 1.0:
                t += h
                rho = hermitian_part(rho_new)
                k[0] = k[6]
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = h * factor
        yield rho


# -- ground spaces ------------------------------------------------------------


@dataclass
class GroundSpace:
    energy: float
    projector: np.ndarray
    dimension: int


def ground_space(v: np.ndarray, degeneracy_tol: float = 1e-8) -> GroundSpace:
    """Smallest eigenvalue and the projector onto its eigenspace."""
    spec = hermitian_eig(v)
    d = float(spec.values[0])
    scale = max(1.0, float(np.abs(spec.values).max()))
    sel = spec.values <= d + degeneracy_tol * scale
    cols = spec.vectors[:, sel]
    return GroundSpace(energy=d, projector=cols @ dagger(cols), dimension=int(sel.sum()))


def frustration_free_check(terms, tol: float = DEFAULT_TOL) -> bool:
    """All ground states of the sum are common ground states of each term.

    With every term PSD this reduces to the sum having smallest eigenvalue 0.
    """
    ops = [as_operator(t) for t in terms]
    if not ops:
        raise PreconditionError("need at least one term")
    n = ops[0].shape[0]
    for i, t in enumerate(ops):
        if t.shape[0] != n:
            raise PreconditionError(f"term {i} has mismatched dimension")
        if not is_psd(t, tol):
            raise PreconditionError(f"term {i} is not PSD")
    total = sum(ops)
    d = min_eigenvalue(total)
    return abs(d) <= tol * max(1.0, float(np.linalg.norm(total, 2)))


# -- aggregates ---------------------------------------------------------------


@dataclass
class DenseSpec:
    """The operators of an `AggregateSpec` as matrices of the whole space
    (H zero when the spec has none), with the total and the eigenvalues of
    each term; `memo` keeps results that the dense theorems compute more
    than once for a spec."""

    structure: TensorStructure
    terms: list[np.ndarray]
    couplings: list[np.ndarray]
    new_couplings: list[np.ndarray]
    unitaries: list[np.ndarray] | None
    hamiltonian: np.ndarray
    total: np.ndarray
    spectra: list[np.ndarray]
    memo: dict = field(default_factory=dict)

    def model(self, new: bool = False) -> DenseModel:
        """H and the spec's channels, then with `new` its new channels."""
        return DenseModel(self.structure, self.hamiltonian,
                          self.couplings + (self.new_couplings if new else []))

    def partial_sum(self, n: int) -> np.ndarray:
        """W_1 + ... + W_n, in order from zero."""
        acc = np.zeros_like(self.total, dtype=np.result_type(float, *self.terms[:n]))
        for w in self.terms[:n]:
            acc += w
        return acc


_DENSE_VIEWS: dict[int, tuple] = {}


def dense_view(spec: AggregateSpec) -> DenseSpec:
    """The `DenseSpec` of `spec`, built once and kept for the last few specs."""
    hit = _DENSE_VIEWS.get(id(spec))
    if hit is None or hit[0] is not spec:
        structure = spec.structure

        def dense(ops):
            return [op.on(structure.sites, structure) for op in ops]

        terms = dense(spec.terms)
        h = spec.hamiltonian
        view = DenseSpec(
            structure, terms, dense(spec.couplings), dense(spec.new_couplings),
            None if spec.unitaries is None else dense(spec.unitaries),
            np.zeros((structure.total_dim,) * 2) if h is None else dense([h])[0],
            embed_sum(spec.terms, structure),
            [np.linalg.eigvalsh(hermitian_part(t)) for t in terms])
        if len(_DENSE_VIEWS) >= 4:
            _DENSE_VIEWS.pop(next(iter(_DENSE_VIEWS)))
        hit = _DENSE_VIEWS[id(spec)] = (spec, view)
    return hit[1]


def check_scalability_condition(spec: AggregateSpec, term_index: int, channel_index: int,
                                tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Cross-channel condition: sum over channels other than `channel_index`
    of the single-channel generator of the term is <= 0.

    Returns (holds, margin) with margin = -(largest eigenvalue of the sum);
    an empty sum passes with margin 0.
    """
    if not 0 <= term_index < spec.n_terms:
        raise PreconditionError(f"term index {term_index} out of range")
    if not 0 <= channel_index < spec.n_channels:
        raise PreconditionError(f"channel index {channel_index} out of range")
    return _cross_channel_margin(spec, term_index, [channel_index], tol)


def dissipation_cross_term(spec: AggregateSpec) -> np.ndarray:
    """D(sum W_t) - sum_t D(W_t): the cross part of the dissipation operator."""
    view = dense_view(spec)
    model = view.model()
    total = dissipation_functional(view.total, model)
    for w in view.terms:
        total = total - dissipation_functional(w, model)
    return total


# -- the dense aggregation theorems ---------------------------------------------
#
# The aggregation theorems as they were before the support windows: every
# quantity on the full space.  Bodies unchanged, except that they read the
# spec's operators through its dense view, that the per-term conditions
# count the drift -i[W_t, H] of the spec's H, as the windowed ones do, and
# that `incremental_operators` computes the operators of `check_incremental`
# that depend on neither c nor d_free.


def _require_terms_psd(spec: AggregateSpec, tol: float) -> None:
    """`is_psd` of every term, from the spectra of its dense view; computed
    once per spec."""
    view = dense_view(spec)
    if ("psd", tol) not in view.memo:
        view.memo["psd", tol] = [is_hermitian(t, tol) and psd_spectrum(w, tol)
                                 for t, w in zip(view.terms, view.spectra)]
    for i, ok in enumerate(view.memo["psd", tol]):
        if not ok:
            raise PreconditionError(f"term {i} is not PSD")


def _nonpositive(a: np.ndarray, scale: np.ndarray, tol: float) -> tuple[bool, float]:
    """(a <= 0 within scaled_tol(scale), margin = -(largest eigenvalue of a))."""
    margin = -max_eigenvalue(a)
    return margin >= -scaled_tol(scale, tol), margin


def _cross_channel_margin(spec: AggregateSpec, t: int, ks, tol: float) -> tuple[bool, float]:
    """Scalability margin of term `t` against every channel outside `ks`,
    computed once per spec."""
    view = dense_view(spec)
    key = ("scalability", t, tuple(ks), tol)
    if key not in view.memo:
        others = [l for k, l in enumerate(view.couplings) if k not in ks]
        acc = _channel_sum(generator_single_channel, view.terms[t], others)
        view.memo[key] = _nonpositive(acc, acc, tol)
    return view.memo[key]


def _own_drift(w: np.ndarray, own: list, h: np.ndarray) -> np.ndarray:
    """-i[W_t, H] + G_own(W_t), the exactly zero commutator dropped as in
    `generator`."""
    comm = commutator(w, h) if h.any() else np.zeros_like(w)
    return _channel_sum(generator_single_channel, w, own, -1j * comm if comm.any() else None)


def _es_term(w: np.ndarray, own: list, h: np.ndarray, tol: float) -> dict:
    """Largest c with -i[W_t, H] + G_own(W_t) <= -c W_t."""
    if not own:
        return {"c": None}
    return {"c": largest_constant(-_own_drift(w, own, h), w, tol)}


def _ds_term(w: np.ndarray, own: list, h: np.ndarray, tol: float) -> dict:
    """-i[W_t, H] + G_own(W_t) <= 0, and the largest c with D_own(W_t) >= c W_t."""
    gen_ok = is_psd(-_own_drift(w, own, h), tol)
    c = None
    if gen_ok and own:
        c = largest_constant(_channel_sum(dissipation_single_channel, w, own), w, tol)
    return {"c": c, "generator_nonpositive": gen_ok}


def _aggregate(spec: AggregateSpec, mode: str, term_constant, note: str,
               tol: float) -> AggregateReport:
    """Per-term constants from `term_constant` (given the term, its own
    channels and H) plus the scalability condition of every term."""
    _require_terms_psd(spec, tol)
    if not spec.terms:
        return AggregateReport(mode=mode, per_term=[], overall=True, d_total=0.0,
                               notes=["no terms: vacuously stable"])
    groups = spec.channel_groups()
    names = spec.names()
    view = dense_view(spec)
    per_term = []
    for t, (w, ks) in enumerate(zip(view.terms, groups)):
        entry = {"term": names[t], "channels": ks,
                 **term_constant(w, [view.couplings[k] for k in ks], view.hamiltonian, tol)}
        scal_ok, margin = _cross_channel_margin(spec, t, ks, tol)
        entry.update(scalability=scal_ok, scalability_margin=margin,
                     certified=entry["c"] is not None and scal_ok)
        per_term.append(entry)
    overall = all(entry["certified"] for entry in per_term)
    return AggregateReport(mode=mode, per_term=per_term, overall=overall,
                           d_total=min_eigenvalue(view.total),
                           notes=[note] if overall else [])


def check_theorem_es_aggregation(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Per-term exponential certificates plus the scalability condition.

    Each term must satisfy (with its assigned channels) a per-term decay bound
    with some c > 0, and every term must pass the cross-channel condition.
    When all terms pass, the sum is certified asymptotically ground-state
    stable and is itself a valid stability witness.  Computed once per spec.
    """
    memo = dense_view(spec).memo
    if ("es", tol) not in memo:
        memo["es", tol] = _aggregate(
            spec, "es", _es_term, "aggregate certified: the sum is a valid stability witness", tol)
    return memo["es", tol]


def check_theorem_ds_aggregation(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Per-term dissipative certificates plus the scalability condition."""
    return _aggregate(spec, "ds", _ds_term, "aggregate satisfies the dissipative condition", tol)


def incremental_operators(spec: AggregateSpec, n: int) -> SimpleNamespace:
    """The operators of `check_incremental` at `n` that depend on neither c
    nor d_free, through the dense `generator` and `dissipation_functional` of
    the spec's model."""
    view = dense_view(spec)
    w_n = view.partial_sum(n)
    w_next = view.terms[n]
    full = view.model(new=True)  # the spec's channels, then the new ones
    prior = view.model()
    gen = _channel_sum(generator_single_channel, w_n, view.new_couplings, generator(w_next, full))
    cross = _channel_sum(partial(_cross_single_channel, w_n), w_next, full.couplings)
    g = generator(w_n, prior)
    return SimpleNamespace(
        w_n=w_n, w_next=w_next, d_n=min_eigenvalue(w_n), d_next=min_eigenvalue(w_n + w_next),
        g=g, g_margin=-max_eigenvalue(g), d_op=dissipation_functional(w_n, prior),
        gen=gen, gen_margin=-max_eigenvalue(gen), cross_norm=float(np.linalg.norm(cross, 2)),
        diss=dissipation_functional(w_next, full) + cross)


def check_incremental(spec: AggregateSpec, n: int, c: float, mode: str = "es",
                      d_free: bool = False, tol: float = DEFAULT_TOL,
                      ops: SimpleNamespace | None = None) -> tuple[bool, dict]:
    """`scalability.check_incremental` (Theorems 4 and 5 and their d-free
    corollary) with every quantity on the whole space; `ops` are the
    `incremental_operators` of (spec, n), computed here when not given."""
    if mode not in ("es", "ds"):
        raise PreconditionError(f"mode must be 'es' or 'ds', got {mode!r}")
    _require_terms_psd(spec, tol)
    if not 1 <= n < spec.n_terms:
        raise PreconditionError(f"n must satisfy 1 <= n < {spec.n_terms}, got {n}")
    o = incremental_operators(spec, n) if ops is None else ops
    w_n, w_next, d_n, d_next, g = o.w_n, o.w_next, o.d_n, o.d_next, o.g
    eye = np.eye(w_n.shape[0])

    shifted = w_n - d_n * eye
    prior_tol = max(tol, 1e-8)
    if mode == "es" and not _nonpositive(g + c * shifted, g, prior_tol)[0]:
        raise PreconditionError(
            f"prior certificate missing: existing channels do not give the decay bound at c={c}"
        )
    if mode == "ds":
        if not o.g_margin >= -scaled_tol(g, prior_tol):
            raise PreconditionError("prior certificate missing: generator not non-positive")
        if not _nonpositive(c * shifted - o.d_op, o.d_op, prior_tol)[0]:
            raise PreconditionError(f"prior certificate missing: dissipation bound fails at c={c}")

    gen = o.gen
    shift = 0.0 if d_free else c * (d_next - d_n) * eye
    if mode == "es":
        holds, margin = _nonpositive(gen + c * w_next - shift, gen, tol)
        info = {"margin": margin}
    else:
        gen_ok, gen_margin = o.gen_margin >= -scaled_tol(gen, tol), o.gen_margin
        diss = o.diss
        diss_margin = min_eigenvalue(diss - c * w_next + shift)
        holds = gen_ok and diss_margin >= -scaled_tol(diss, tol)
        info = {"generator_margin": gen_margin,
                "margin" if d_free else "dissipation_margin": diss_margin,
                "cross_norm": o.cross_norm}
    info.update(d_n=d_n, d_next=d_next)
    if not d_free:
        info["d_ladder_ok"] = d_next >= d_n - scaled_tol(w_n, tol)
    return holds, info


def _commutes(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[bool, float]:
    """([a, b] = 0 within scaled_tol(a) * max(1, ||b||), the defect ||[a, b]||)."""
    defect = float(np.linalg.norm(commutator(a, b)))
    return defect <= scaled_tol(a, tol) * max(1.0, float(np.linalg.norm(b))), defect


def clause(spec: AggregateSpec, kind: str, a: int, t: int, tol: float = DEFAULT_TOL):
    """`_commutes` of operator `a` of `kind` ("terms" or "unitaries") with
    term `t`, on the dense view; computed once per spec."""
    view = dense_view(spec)
    key = ("clause", kind, a, t, tol)
    if key not in view.memo:
        view.memo[key] = _commutes(getattr(view, kind)[a], view.terms[t], tol)
    return view.memo[key]


def check_corollary_commuting(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Commuting-family certificate for couplings of the form L_k = U_k W_k,
    with the U_k read from `spec.unitaries`.

    Verifies [W_a, W_b] = 0 for all pairs, [U_k, W_t] = 0 whenever channel k
    is not assigned to term t, and the per-term exponential condition.  A
    failing commutation pair is reported with guidance to evaluate the
    scalability condition directly.
    """
    # the aggregation theorem checks that every term is PSD, before anything else
    base = check_theorem_es_aggregation(spec, tol)
    unitaries = dense_view(spec).unitaries or []
    if len(unitaries) != spec.n_channels:
        raise PreconditionError("one unitary per channel is required")
    names = spec.names()
    notes: list[str] = []
    for a in range(spec.n_terms):
        for b in range(a + 1, spec.n_terms):
            ok, defect = clause(spec, "terms", a, b, tol)
            if not ok:
                notes.append(f"terms {names[a]} and {names[b]} do not commute (norm {defect:.3e})")
    for t, ks in enumerate(spec.channel_groups()):
        for k in range(len(unitaries)):
            if k in ks:
                continue
            ok, defect = clause(spec, "unitaries", k, t, tol)
            if not ok:
                notes.append(f"commutation clause fails for (U[{k}], {names[t]}) "
                             f"(norm {defect:.3e}); rerun with --theorem es")
    # the notes so far are the failing clauses
    overall = not notes and all(e["c"] is not None for e in base.per_term)
    if overall:
        notes.append("commuting-family certificate holds; aggregate ground-state stable")
    return AggregateReport(mode="commuting-es", per_term=base.per_term, overall=overall,
                           d_total=base.d_total, notes=notes)


# -- synthesis: the pseudoinverse and bilinear route --------------------------


def assemble_bilinear_system(v: np.ndarray, q: np.ndarray, c: float,
                             tol: float = DEFAULT_TOL) -> BilinearSystem:
    """Set up the free-parameter system for V U V = sqrt(1-c) Q.

    Raises InfeasibleError when the right-hand side is outside the range of
    V^T (x) V (the linear part has no solution at all).
    """
    v, q = as_operator(v), as_operator(q)
    n = v.shape[0]
    m = kron(v.T, v)
    m_pinv = pinv(m)
    target = vec(np.sqrt(max(0.0, 1.0 - c)) * q)
    if float(np.linalg.norm(m @ (m_pinv @ target) - target)) > tol * max(1.0, float(np.linalg.norm(target))):
        raise InfeasibleError("sqrt(1-c) Q is outside the range of V^T (x) V")
    b_vec = m_pinv @ target
    p = np.eye(n * n, dtype=complex) - m_pinv @ m
    a_blocks = [p[i * n:(i + 1) * n, :] for i in range(n)]
    b_blocks = [b_vec[i * n:(i + 1) * n] for i in range(n)]
    return BilinearSystem(a_blocks=a_blocks, b_blocks=b_blocks)


def solve_bilinear(system: BilinearSystem, rng: np.random.Generator | None = None,
                   restarts: int = 32, iters: int = 500,
                   tol: float = 1e-10) -> tuple[np.ndarray | None, float]:
    """Search for free parameters making the candidate matrix unitary.

    Alternates between projecting the candidate onto the unitary group (polar
    factor) and back onto the affine solution set of the linear constraint,
    with seeded random restarts.  Returns (x, residual) on success and
    (None, best_residual) when the budget is exhausted.
    """
    rng = rng or np.random.default_rng(0)
    n = system.n
    p = np.vstack(system.a_blocks)
    b = np.concatenate(system.b_blocks)
    best = np.inf
    if float(np.linalg.norm(p)) <= tol:
        # no freedom: the linear part fully determines the candidate
        x = np.zeros(n * n, dtype=complex)
        res = system.residual(x)
        return (x, res) if res <= tol else (None, res)
    for _ in range(restarts):
        x = (rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)) / np.sqrt(2)
        x = p @ x
        for _ in range(iters):
            u = system.unitary_from(x)
            w, _, vt = np.linalg.svd(u)
            x = p @ (vec(w @ vt) - b)
            res = system.residual(x)
            if res <= tol:
                return x, res
        best = min(best, res)
    return None, best


def _phase_normalize(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rotate a global phase so the first nonzero column-major entry is
    real non-negative (only valid when the constraint target vanishes)."""
    flat = vec(u)
    scale = float(np.abs(flat).max())
    if scale == 0.0:
        return u
    idx = int(np.argmax(np.abs(flat) > tol * scale))
    z = flat[idx]
    if abs(z) == 0.0:
        return u
    return u * (z.conjugate() / abs(z))


def synthesize_pinv(v: np.ndarray, q: np.ndarray | None = None, c: float = 1.0, *,
                    seed: int = 0, restarts: int = 32, iters: int = 500,
                    tol: float = DEFAULT_TOL) -> SynthesisResult:
    """General-solution route: pseudoinverse for the linear constraint, then
    the bilinear unitarity system for the free parameters.

    Raises SolverBudgetError (with the best residual) when no unitary point of
    the solution manifold is found within the restart budget.
    """
    v = as_operator(v)
    if not is_psd(v, tol):
        raise PreconditionError("candidate must be PSD")
    if q is None:
        q = sqrtm_psd(v)
    q = as_operator(q)
    if float(np.linalg.norm(dagger(q) @ q - v)) > scaled_tol(v, max(tol, 1e-8)):
        raise PreconditionError("factor Q must satisfy Q'Q = V")
    system = assemble_bilinear_system(v, q, c, tol)
    x, residual = solve_bilinear(system, np.random.default_rng(seed),
                                 restarts=restarts, iters=iters)
    if x is None:
        raise SolverBudgetError(
            f"bilinear solver exhausted {restarts} restarts (best residual {residual:.3e})",
            best_residual=residual,
        )
    u = system.unitary_from(x)
    if all(float(np.linalg.norm(b)) <= tol for b in system.b_blocks):
        u = _phase_normalize(u)
    return _result(v, u, q, c)


@dataclass
class FactorizationCheck:
    """Outcome of deciding L = U V for some unitary U."""

    factorizable: bool
    unitary: np.ndarray | None
    witness: np.ndarray | None
    defect: float


def check_factorizable(l: np.ndarray, v: np.ndarray,
                       tol: float = DEFAULT_TOL) -> FactorizationCheck:
    """Decide whether L = U V admits a unitary factor U.

    A unitary factor preserves lengths on the range of V, which forces
    L'L = V^2; when that holds, U is constructed on range(V) from the
    eigenbasis and completed unitarily on the kernel.
    """
    l, v = as_operator(l), as_operator(v)
    if l.shape != v.shape:
        raise DimensionMismatchError(f"shapes {l.shape} and {v.shape} differ")
    if not is_hermitian(v, tol):
        raise PreconditionError("V must be Hermitian")
    n = v.shape[0]
    delta = dagger(l) @ l - v @ v
    defect = float(np.linalg.norm(delta, 2))
    if defect > tol * max(1.0, float(np.linalg.norm(v @ v, 2))):
        w, q = np.linalg.eigh(hermitian_part(delta))
        idx = int(np.argmax(np.abs(w)))
        return FactorizationCheck(False, None, q[:, idx], defect)
    spec = hermitian_eig(v)
    scale = max(1.0, float(np.abs(spec.values).max()))
    nonzero = np.abs(spec.values) > tol * scale
    q_range = spec.vectors[:, nonzero]
    q_kernel = spec.vectors[:, ~nonzero]
    if q_range.shape[1] == 0:
        return FactorizationCheck(True, np.eye(n, dtype=complex), None, defect)
    # columns l q_i / lambda_i are orthonormal because L'L = V^2
    u_range = (l @ q_range) / spec.values[nonzero][None, :]
    if q_kernel.shape[1]:
        # orthonormal completion of the partial isometry
        full = np.linalg.svd(u_range, full_matrices=True)[0]
        u_completion = full[:, q_range.shape[1]:]
        u = u_range @ dagger(q_range) + u_completion @ dagger(q_kernel)
    else:
        u = u_range @ dagger(q_range)
    return FactorizationCheck(True, u, None, defect)


def verify_v2_dominated(v: np.ndarray, u: np.ndarray, c: float,
                        tol: float = DEFAULT_TOL) -> bool:
    """Check V U' V^2 U V <= (1-c) V for the case V^2 >= V.

    Success implies the single-channel decay bound with constant c for
    L = U V, since G(V) = V U' V U V - V^3 <= V U' V^2 U V - V <= -c V.
    """
    v, u = as_operator(v), as_operator(u)
    if not is_psd(v, tol):
        raise PreconditionError("V must be PSD")
    if min_eigenvalue(v @ v - v) < -scaled_tol(v, tol):
        raise PreconditionError("V^2 >= V does not hold")
    if not is_unitary(u, max(tol, 1e-8)):
        raise PreconditionError("U must be unitary")
    lhs = v @ dagger(u) @ (v @ v) @ u @ v
    return is_psd((1.0 - c) * v - lhs, tol)
