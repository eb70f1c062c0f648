"""Markovian open-system dynamics: generator, dissipation functional and
master-equation propagation.

Conventions (hbar = 1):

* Heisenberg drift   G(X) = -i[X, H] + sum_k L_k' X L_k - (1/2){L_k' L_k, X}
* state evolution    drho/dt = -i[H, rho] + sum_k L_k rho L_k' - (1/2){L_k' L_k, rho}

where a prime denotes the adjoint.  Couplings carry units sqrt(rate).  The
Krylov propagator uses the effective-Hamiltonian form of the state equation,

    drho/dt = M rho + rho M' + sum_k L_k rho L_k',   M = -iH - (1/2) sum_k L_k' L_k,

which for a Hermitian rho is M rho + (M rho)' + sum_k L_k rho L_k'.

Its adjoint, the Heisenberg drift, is G(X) = M'X + (M'X)' + sum_k L_k' X L_k for
a Hermitian X.  Propagation runs in the dtype of the data: float64 when H = 0
and every coupling and the propagated operator are real, complex128 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    DimensionCapError,
    DimensionMismatchError,
    IntegrationError,
    NonHermitianError,
    PreconditionError,
    StateValidityError,
)
from .linalg import (
    DEFAULT_TOL,
    MAX_MODEL_DIM,
    LocalOperator,
    TensorStructure,
    _sum_meeting,
    _Window,
    as_operator,
    commutator,
    dagger,
    embed_sum,
    expm,
    hermitian_part,
    is_hermitian,
    local_operator,
    real_or_complex,
)


@dataclass
class LindbladModel:
    """A finite-level open system: a Hermitian H and the couplings, each held
    as a `LocalOperator`; one given as a matrix is held on every site.  Each
    is checked by `local_operator` as `model.H` or `model.L[i]`."""

    structure: TensorStructure
    hamiltonian: LocalOperator
    couplings: list[LocalOperator] = field(default_factory=list)

    def __post_init__(self):
        self.hamiltonian, = _hermitian_terms(self.hamiltonian, self.structure, "hamiltonian",
                                             "model.H")
        self.couplings = [local_operator(l, self.structure, f"model.L[{i}]")
                          for i, l in enumerate(self.couplings)]

    @property
    def dim(self) -> int:
        return self.structure.total_dim


def _hermitian_terms(x, structure: TensorStructure, what: str, field: str,
                     reduce: bool = False, tol: float = DEFAULT_TOL) -> list[LocalOperator]:
    """`x`, an operator or a list of operators that stands for their sum, as
    a list of `local_operator`s of `structure`, each refused naming `field`
    (`field[i]` for term i of a list), by NonHermitianError, "`what` must be
    Hermitian", unless it is Hermitian."""
    named = [(t, f"{field}[{i}]") for i, t in enumerate(x)] if isinstance(x, list) \
        else [(x, field)]
    terms = [local_operator(t, structure, f, reduce) for t, f in named]
    for t, (_, f) in zip(terms, named):
        if not is_hermitian(t.matrix, tol, _Window(structure, t).copies):
            raise NonHermitianError(f"{what} must be Hermitian", field=f)
    return terms


def _operator(x, structure: TensorStructure, what: str, field: str,
              tol: float = DEFAULT_TOL) -> tuple[list[LocalOperator], np.ndarray]:
    """The `_hermitian_terms` of `x` and their sum as a matrix of the whole
    space; a matrix of the whole space is that matrix itself."""
    terms = _hermitian_terms(x, structure, what, field, tol=tol)
    return terms, (embed_sum(terms, structure) if isinstance(x, list)
                   else terms[0].on(structure.sites, structure))


def _matrices(model: LindbladModel) -> tuple[np.ndarray, list[np.ndarray]]:
    """H and the couplings as matrices of the whole space."""
    sites = model.structure.sites
    return (model.hamiltonian.on(sites, model.structure),
            [l.on(sites, model.structure) for l in model.couplings])


def _checked(x: np.ndarray, tol: float, where, floor: float | None = None,
             field: str | None = None) -> np.ndarray:
    """The Hermitian parts of the stack x (S, n, n), each checked as a density
    matrix (Hermitian, unit trace and PSD within tol) or, given a `floor`, as
    an operator >= floor I within tol, the bound that the positive, unital
    exp(tG) keeps for V(t) with floor = lambda_min(V).

    One batched Cholesky factorization of h - floor I + (tol / 2) I accepts,
    which needs lambda_min(h) - floor > -tol / 2; where it fails, an
    eigensolve decides.  A StateValidityError of `field`, prefixed by
    `where(i)`, names the earliest failing matrix i and the first of its tests
    that fails.
    """
    h, tests, shift = hermitian_part(x), [], floor or 0.0
    if floor is None:
        scale = tol * np.maximum(1.0, np.linalg.norm(x, axis=(-2, -1)))
        tr = np.trace(x, axis1=-2, axis2=-1)
        tests = [(np.linalg.norm(x - dagger(x), axis=(-2, -1)) <= scale,
                  lambda i: "density matrix is not Hermitian"),
                 (np.abs(tr - 1.0) <= scale,
                  lambda i: f"trace {complex(tr[i]):.12g} differs from 1")]
    k = min((int(ok.argmin()) for ok, _ in tests if not ok.all()), default=len(x))
    try:  # the matrices ahead of the first that fails a test above
        np.linalg.cholesky(h[:k] + (tol / 2 - shift) * np.eye(x.shape[-1]))
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(h[:k]) - shift
        ok = w[:, 0] >= -tol * np.maximum(1.0, np.abs(w).max(axis=-1))
        if not ok.all():
            i = int(ok.argmin())
            raise StateValidityError(where(i) + (
                f"smallest eigenvalue {w[i, 0]:.3e} below -tol" if floor is None else
                f"V(t) has eigenvalue {w[i, 0] + floor:.3e}, below the smallest of V, "
                f"{floor:.3e}"), field=field)
    if k < len(x):
        raise StateValidityError(where(k) + next(m(k) for ok, m in tests if not ok[k]),
                                 field=field)
    return h


def generator_single_channel(x: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Single-channel drift L' X L - (1/2){L'L, X} of a Hermitian X.

    With K = L'L, {K, X} = KX + (KX)' for Hermitian X: four products.
    """
    x, l = as_operator(x), as_operator(coupling)
    if x.shape != l.shape:
        raise DimensionMismatchError(f"shapes {x.shape} and {l.shape} differ")
    ld = dagger(l)
    kx = (ld @ l) @ x
    return ld @ (x @ l) - 0.5 * (kx + dagger(kx))


def _hamiltonian_drift(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """-i[X, H]; an exactly zero one is held as real zeros by `_Window.add`."""
    return -1j * commutator(x, h)


def _drift(terms, channels, h=()) -> list:
    """The `_Window.add` items of -i[W, H] + sum_L G_L(W), W the sum of
    `terms`, H in `h`."""
    return [*((_hamiltonian_drift, t, x) for x in h for t in terms),
            *((generator_single_channel, t, l) for l in channels for t in terms)]


def generator(x, model: LindbladModel, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Heisenberg-picture drift of the observable ``x``, a matrix, a
    LocalOperator or a list of them (their sum), as a matrix of the whole space.

    Each kernel is computed on the sites of its own operators.  A zero H is
    dropped and a term -i[x, H] that is exactly zero held as real zeros, so
    real x and couplings give a real drift.
    """
    terms = _hermitian_terms(x, model.structure, "observable", "x", tol=tol)
    h = [model.hamiltonian] if model.hamiltonian.matrix.any() else []
    return _Window(model.structure, sites=model.structure.sites).add(
        _drift(terms, model.couplings, h))


def dissipation_single_channel(x: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """[L', X][X, L] = C'C with C = [X, L] for a Hermitian X, so PSD: three
    products."""
    x, l = as_operator(x), as_operator(coupling)
    c = x @ l - l @ x
    return dagger(c) @ c


def dissipation_functional(x, model: LindbladModel, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Energy-dissipation operator sum_k [L_k', x][x, L_k] of ``x``, a matrix
    or a list of LocalOperators (their sum), as a matrix of the whole space;
    each channel acts on the sum of the terms that meet it."""
    terms = _hermitian_terms(x, model.structure, "observable", "x", tol=tol)
    structure = model.structure
    return _Window(structure, sites=structure.sites).add(
        (dissipation_single_channel, _sum_meeting(structure, terms, l), l)
        for l in model.couplings)


# -- trajectories -------------------------------------------------------------


@dataclass
class Trajectory:
    """Sampled solution of the master equation, ``states`` (T, n, n), with
    named expectation series (T,)."""

    times: np.ndarray
    states: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def traces(self) -> np.ndarray:
        return np.trace(self.states, axis1=-2, axis2=-1).real

    def purities(self) -> np.ndarray:
        # tr(rho^2) = sum_ij |rho_ij|^2 for a Hermitian rho
        return np.einsum("...ij,...ij->...", self.states, self.states.conj()).real

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _rhs_factory(model: LindbladModel, adjoint: bool = False):
    # drho/dt = M rho + (M rho)' + sum_k L_k rho L_k' with M = -iH - (1/2) sum_k L_k'L_k
    # precomputed: 1 + 2K products a call.  Valid only for a Hermitian rho,
    # for which rho M' = (M rho)'.  M is real when H = 0 and the couplings are.
    # The adjoint, G, is the same form with M' and the L_k' in their places.
    h, couplings = _matrices(model)
    pairs = [(l, dagger(l)) for l in couplings]
    m = -0.5 * sum((ld @ l for l, ld in pairs), np.zeros_like(h))
    if h.any():
        m = m - 1j * h
    if adjoint:
        m, pairs = dagger(m), [(ld, l) for l, ld in pairs]

    def rhs(rho: np.ndarray) -> np.ndarray:
        mr = m @ rho
        out = mr + dagger(mr)
        for l, ld in pairs:
            out += (l @ rho) @ ld
        return out

    return rhs


# bound at import: only a state's call looks up `_rhs_factory`, with the one
# argument that the wrapper in bench/layers.py takes
_adjoint_rhs_factory = partial(_rhs_factory, adjoint=True)

_KRYLOV_DIM = 30  # basis vectors of one Krylov step beyond the state itself
_KRYLOV_TOL = 1e-9  # rtol and atol of a Krylov step's error estimate
# simulated systems are refused above it: the trajectory bound counts stored
# samples, not the Krylov basis (31 n^2 entries) or the dense n x n couplings
_SIM_MAX_DIM = 64
_STATE_TOL = DEFAULT_TOL * 10  # of a simulated state, its initial one included
_N_SAMPLES = 201  # the default sample grid of every simulation


def _grid(n: int, t_final: float, n_samples: int) -> np.ndarray:
    """The sample times of a simulation of dimension n, before any sample of
    it is built.  Refuses, in this order, a dimension above _SIM_MAX_DIM or a
    trajectory of more than MAX_MODEL_DIM^2 stored entries (samples x n^2),
    with a DimensionCapError; a horizon that is not finite and positive; and
    fewer than two samples.  The last three name their fields, as the command
    line spells them."""
    if n > _SIM_MAX_DIM:
        raise DimensionCapError(f"dimension {n} exceeds the simulation cap {_SIM_MAX_DIM}")
    entries = n_samples * n * n
    if entries > MAX_MODEL_DIM ** 2:
        raise DimensionCapError(f"{n_samples} samples x {n}^2 = {entries} stored entries "
                                f"exceed {MAX_MODEL_DIM}^2", field="samples")
    if not (np.isfinite(t_final) and t_final > 0):
        raise PreconditionError(f"must be finite and positive, got {t_final}", field="t-final")
    if n_samples < 2:
        raise PreconditionError(f"need at least two sample points, got {n_samples}",
                                field="samples")
    return np.linspace(0.0, float(t_final), n_samples)


def _krylov_samples(rhs, rho: np.ndarray, times: np.ndarray):
    """One state at each time of an equally spaced grid, by Krylov steps (Saad,
    SIAM J. Numer. Anal. 29 (1992) 209; Sidje, ACM TOMS 24 (1998) 130).

    V_0 = rho / beta, beta = ||rho||_F, and V_1..V_m, orthonormal under
    Re<A, B>, span rho, Lambda rho, ..., Lambda^m rho: Hermitian, as the RHS
    needs.  For a state they are but for V_0 traceless, so the trace is kept;
    the adjoint G keeps no trace, only the identity.  With Lambda
    V_{j-1} = sum_k A_kj V_k, exp(s A) e_0 holds the coefficients of
    rho(t + s) / beta and, last, h e_m' s phi_1(s H_m) e_0 (h = A_{m,m-1}),
    beta times which estimates the error.  exp(A dt) steps them across the
    grid while that is within _KRYLOV_TOL (1 + beta); a first sample past it
    takes a shorter sub-step.  A horizon over which exp(A dt) is rounding
    only, eps dt ||A||_1 > _KRYLOV_TOL, is refused; each Arnoldi product is
    scaled by a power of two first, so a huge rate reaches that rule.
    """
    n = rho.shape[-1]
    basis = np.empty((_KRYLOV_DIM + 1, n, n), rho.dtype)
    flat = basis.reshape(len(basis), -1).view(np.float64)  # Re<V_j, V_k> = flat[j] @ flat[k]
    dt = times[1] - times[0]
    t, i = times[0], 1  # the time of rho and the index of the next sample

    def combine(c):  # beta sum_{k<m} c_k V_k
        return hermitian_part((beta * c[:m] @ flat[:m]).view(rho.dtype).reshape(n, n))

    def propagator(s):
        # exp(s A): A's row 0 is 0, so its row 0 is e_0' and c_0, which holds a
        # state's trace, stays 1; set so, as the rounding of expm, scaled up by
        # the squarings of a long step, drifts it
        r = expm(a, s)
        r[0, 0], r[0, 1:] = 1.0, 0.0
        return r

    yield rho
    while i < len(times):
        beta = float(np.linalg.norm(rho))
        basis[0] = hermitian_part(rho) / beta
        a = np.zeros((_KRYLOV_DIM + 1, _KRYLOV_DIM + 1))
        for m in range(1, _KRYLOV_DIM + 1):
            w = rhs(basis[m - 1])
            wf = w.reshape(-1).view(np.float64)
            unit = np.ldexp(1.0, np.frexp(np.abs(wf).max())[1])  # a power of two >= |w_ij|
            w /= unit  # exact, so no square in the norms below overflows on a huge rate
            size = np.linalg.norm(w)
            for _ in range(2):  # classical Gram-Schmidt against V_1..V_{m-1}, twice
                g = flat[1:m] @ wf
                wf -= g @ flat[1:m]
                a[1:m, m - 1] += unit * g
            h = np.linalg.norm(wf)
            a[m, m - 1] = unit * h
            if h <= 1e-12 * size:
                break
            basis[m] = hermitian_part(w) / h
        a, tol = a[:m + 1, :m + 1], _KRYLOV_TOL + _KRYLOV_TOL * beta
        if np.finfo(float).eps * dt * np.linalg.norm(a, 1) > _KRYLOV_TOL:  # exp(A dt)'s own error
            raise IntegrationError(f"t-final {times[-1]:.6g} too large: the propagator over a "
                                   f"sample interval is lost to rounding at rtol {_KRYLOV_TOL:g}")
        step, tau = propagator(dt), times[i] - t
        c = (step if t == times[i - 1] else propagator(tau))[:, 0]
        while not beta * abs(c[m]) <= tol:
            tau *= min(0.9, 0.9 * (tol / (beta * abs(c[m]))) ** (1.0 / m))
            if tau < 1e-14 * max(1.0, abs(times[i])):
                raise IntegrationError(f"step size underflow at t={t:.6g}")
            c = propagator(tau)[:, 0]
        if tau < times[i] - t:  # a sub-step short of the next sample
            rho, t = combine(c), t + tau
            continue
        while i < len(times) and beta * abs(c[m]) <= tol:
            rho, t, i = combine(c), times[i], i + 1
            yield rho
            c = step @ c


def _dtype(model: LindbladModel, x: np.ndarray) -> type:
    """float when H = 0 and the couplings and x are real, complex otherwise:
    -i[H, rho] is real only for H = 0."""
    real = not (model.hamiltonian.matrix.any() or np.iscomplexobj(x)
                or any(np.iscomplexobj(l.matrix) for l in model.couplings))
    return float if real else complex


def _samples(model: LindbladModel, x: np.ndarray, times: np.ndarray, tol: float,
             floor: float | None = None):
    """The Hermitian x at each time of an equally spaced grid, in `_dtype`:
    a state under exp(t Lambda), or, given a ``floor``, an observable under
    exp(t G), by the Krylov steps of `_krylov_samples`.

    Each sample is emitted after `_checked` passes it, at ``tol`` and with
    ``floor``, in chunks of at most 32 KB; an invalid sample is named by its
    t ahead of any later failure of the propagation.
    """
    n, x = model.dim, x.astype(_dtype(model, x), copy=False)
    factory = _rhs_factory if floor is None else _adjoint_rhs_factory
    stream = _krylov_samples(factory(model), x, times)
    chunk = np.empty((max(1, 32768 // (x.itemsize * n * n)), n, n), x.dtype)
    for start in range(0, len(times), len(chunk)):
        k = 0
        try:
            while k < min(len(chunk), len(times) - start):
                chunk[k] = next(stream)
                k += 1
        finally:  # the samples taken so far, also where the propagation failed
            h = _checked(chunk[:k], tol, lambda i: f"at t={times[start + i]:.6g}: ", floor)
        yield from h


def evolve(model: LindbladModel, rho0: np.ndarray | None, t_final: float, *,
           n_samples: int = _N_SAMPLES, observables: dict | None = None) -> Trajectory:
    """Master-equation trajectory of the state ``rho0`` (None: the maximally
    mixed state) by `_samples`, which checks each sample as a density matrix
    within _STATE_TOL, with the expectation series of the Hermitian
    ``observables``, each a matrix, a LocalOperator or a list of them (their sum).

    Emits ``n_samples`` equally spaced samples on the grid of `_grid`, whose
    refusals come before ``rho0`` or any observable is built or tested:
    ``rho0``'s shape, then, within _STATE_TOL, as a density matrix, each
    refusal naming the field ``rho0``.
    """
    n = model.dim
    times = _grid(n, t_final, n_samples)
    rho0 = np.eye(n) / n if rho0 is None else real_or_complex(rho0)
    if rho0.shape != (n, n):
        raise DimensionMismatchError(f"state shape {rho0.shape} != ({n}, {n})", field="rho0")
    _checked(rho0[None], _STATE_TOL, lambda i: "", field="rho0")
    ops = {name: _operator(op, model.structure, "observable", f"observables[{name}]")[1]
           for name, op in (observables or {}).items()}
    states = np.empty((n_samples, n, n), dtype=_dtype(model, rho0))
    for i, rho in enumerate(_samples(model, rho0, times, _STATE_TOL)):
        states[i] = rho
    # tr(X rho) = sum_ij X_ij rho_ji, over every sample at once
    series = {name: np.einsum("ij,...ji->...", op, states).real for name, op in ops.items()}
    return Trajectory(times, states, series)
