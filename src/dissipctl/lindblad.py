"""Markovian open-system dynamics: generator, dissipation functional,
master-equation integration, and the fast-ancilla elimination check.

Conventions (hbar = 1):

* Heisenberg drift   G(X) = -i[X, H] + sum_k L_k' X L_k - (1/2){L_k' L_k, X}
* state evolution    drho/dt = -i[H, rho] + sum_k L_k rho L_k' - (1/2){L_k' L_k, rho}

where a prime denotes the adjoint.  Couplings carry units sqrt(rate).  The
RK45 integrator uses the effective-Hamiltonian form of the state equation,

    drho/dt = M rho + rho M' + sum_k L_k rho L_k',   M = -iH - (1/2) sum_k L_k' L_k,

which for a Hermitian rho is M rho + (M rho)' + sum_k L_k rho L_k'.

Propagation runs in the dtype of the data: float64 when H = 0 and every
coupling and the initial state are real, complex128 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    SIGMA_MINUS,
    SIGMA_PLUS,
    LocalOperator,
    TensorStructure,
    _sum_meeting,
    _Window,
    as_operator,
    commutator,
    dagger,
    expm,
    hermitian_part,
    is_hermitian,
    local_operator,
    real_or_complex,
)


@dataclass
class LindbladModel:
    """A finite-level open system: a Hermitian H and the couplings, each held
    as a `LocalOperator`; one given as a matrix is held on every site."""

    structure: TensorStructure
    hamiltonian: LocalOperator
    couplings: list[LocalOperator] = field(default_factory=list)

    def __post_init__(self):
        self.hamiltonian, = _hermitian_terms(self.hamiltonian, self.structure, "hamiltonian")
        self.couplings = [local_operator(l, self.structure, f"coupling {i}")
                          for i, l in enumerate(self.couplings)]

    @property
    def dim(self) -> int:
        return self.structure.total_dim


def _hermitian_terms(x, structure: TensorStructure, what: str, reduce: bool = False,
                     tol: float = DEFAULT_TOL) -> list[LocalOperator]:
    """`x`, an operator or a list of operators that stands for their sum, as
    a list of `local_operator`s of `structure`; NonHermitianError naming
    `what` unless each is Hermitian."""
    terms = [local_operator(t, structure, what, reduce)
             for t in (x if isinstance(x, list) else [x])]
    if not all(_Window(structure, t).is_hermitian(t.matrix, tol) for t in terms):
        raise NonHermitianError(f"{what} must be Hermitian")
    return terms


def _matrices(model: LindbladModel) -> tuple[np.ndarray, list[np.ndarray]]:
    """H and the couplings as matrices of the whole space."""
    sites = model.structure.sites
    return (model.hamiltonian.on(sites, model.structure),
            [l.on(sites, model.structure) for l in model.couplings])


def maximally_mixed(n: int) -> np.ndarray:
    return np.eye(n) / n


def validate_density_state(rho: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Hermitian, unit trace and PSD within tolerance; raises otherwise.

    A stack (S, n, n) is checked with one batched eigensolve, and the message
    names the first failing state.
    """
    rho = real_or_complex(rho)
    states = rho if rho.ndim == 3 else as_operator(rho)[None]

    def require(ok, message):
        if not ok.all():
            i = int(ok.argmin())
            raise StateValidityError(("" if rho.ndim == 2 else f"state {i}: ") + message(i))

    scale = tol * np.maximum(1.0, np.linalg.norm(states, axis=(-2, -1)))
    require(np.linalg.norm(states - dagger(states), axis=(-2, -1)) <= scale,
            lambda i: "density matrix is not Hermitian")
    tr = np.trace(states, axis1=-2, axis2=-1)
    require(np.abs(tr - 1.0) <= scale, lambda i: f"trace {complex(tr[i]):.12g} differs from 1")
    w = np.linalg.eigvalsh(hermitian_part(states))
    require(w[:, 0] >= -tol * np.maximum(1.0, np.abs(w).max(axis=-1)),
            lambda i: f"smallest eigenvalue {w[i, 0]:.3e} below -tol")


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
    """Heisenberg-picture drift of the observable ``x``, a matrix or a list of
    LocalOperators (their sum), as a matrix of the whole space.

    Each kernel is computed on the sites of its own operators.  A zero H is
    dropped and a term -i[x, H] that is exactly zero held as real zeros, so
    real x and couplings give a real drift.
    """
    terms = _hermitian_terms(x, model.structure, "observable", tol=tol)
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
    terms = _hermitian_terms(x, model.structure, "observable", tol=tol)
    structure = model.structure
    return _Window(structure, sites=structure.sites).add(
        (dissipation_single_channel, _sum_meeting(structure, terms, l), l)
        for l in model.couplings)


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Matrix of the state-evolution map on column-stacked density matrices;
    real when the model is (H = 0 and real couplings)."""
    n = model.dim
    eye = np.eye(n)
    h, couplings = _matrices(model)
    lam = -1j * (np.kron(eye, h) - np.kron(h.T, eye)) if h.any() else np.zeros((n * n, n * n))
    for l in couplings:
        ldl = dagger(l) @ l
        lam = lam + np.kron(l.conj(), l) \
            - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return lam


def _observable(x: np.ndarray, n: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    x = as_operator(x)
    if x.shape[0] != n:
        raise DimensionMismatchError(f"observable dim {x.shape[0]} != state dim {n}")
    if not is_hermitian(x, tol):
        raise NonHermitianError("expectation requires a Hermitian observable")
    return x


# -- trajectories -------------------------------------------------------------


@dataclass
class Trajectory:
    """Sampled solution of the master equation with named expectation series.

    ``states`` is (T, n, n) for one initial state and (S, T, n, n) for a stack
    of S; each series in ``observables`` is (T,) or (S, T) accordingly.
    """

    times: np.ndarray
    states: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def traces(self) -> np.ndarray:
        return np.trace(self.states, axis1=-2, axis2=-1).real

    def purities(self) -> np.ndarray:
        # tr(rho^2) = sum_ij |rho_ij|^2 for a Hermitian rho
        return np.einsum("...ij,...ij->...", self.states, self.states.conj()).real

    def final_state(self) -> np.ndarray:
        return self.states[..., -1, :, :]


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


def _rhs_factory(model: LindbladModel):
    # drho/dt = M rho + (M rho)' + sum_k L_k rho L_k' with M = -iH - (1/2) sum_k L_k'L_k
    # precomputed: 1 + 2K products a call.  Valid only for a Hermitian rho,
    # for which rho M' = (M rho)'.  M is real when H = 0 and the couplings are.
    h, couplings = _matrices(model)
    pairs = [(l, dagger(l)) for l in couplings]
    m = -0.5 * sum((ld @ l for l, ld in pairs), np.zeros_like(h))
    if h.any():
        m = m - 1j * h

    def rhs(rho: np.ndarray) -> np.ndarray:
        mr = m @ rho
        out = mr + dagger(mr)
        for l, ld in pairs:
            out += (l @ rho) @ ld
        return out

    return rhs


def _rk45_samples(model: LindbladModel, rho: np.ndarray, times: np.ndarray, h: float,
                  rtol: float, atol: float):
    """The stack (S, n, n) at each sample time, by adaptive RK45 with one step
    size for all states, controlled by the largest per-state error norm;
    hermitizes after every accepted step.  The last stage is evaluated at the
    new state before hermitization, so an accepted step takes its slope as the
    next k[0] (first same as last): six RHS calls a step."""
    rhs = _rhs_factory(model)
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


def _exact_samples(model: LindbladModel, rho: np.ndarray, times: np.ndarray):
    """The stack at each sample time of an equally spaced grid, by one
    propagator P = expm(Lambda dt), in the dtype common to Lambda and the
    stack, applied to the (n^2, S) block of column-stacked states."""
    s, n = rho.shape[0], model.dim
    lam = liouvillian(model)
    dtype = np.result_type(lam, rho)
    step = expm(lam.astype(dtype, copy=False), times[1] - times[0])
    block = rho.swapaxes(-1, -2).reshape(s, n * n).T
    for _ in times:
        yield hermitian_part(block.T.reshape(s, n, n).swapaxes(-1, -2))
        block = step @ block


def evolve(model: LindbladModel, rho0: np.ndarray, t_final: float, *,
           observables: dict[str, np.ndarray] | None = None, n_samples: int = 201,
           rtol: float = 1e-9, atol: float = 1e-9) -> Trajectory:
    """Master-equation trajectory of one state (n, n) or a stack (S, n, n).

    Up to dim 16 all states are stepped exactly by one propagator
    expm(Lambda dt), above that together by adaptive RK45 (``rtol``, ``atol``).
    The states are float64 when H = 0 and the couplings and ``rho0`` are
    real, complex otherwise.  Emits ``n_samples`` equally spaced samples, each state
    re-validated as a density matrix at 10x the base tolerance.  RK45's first
    trial step is t_final / 100.
    """
    n = model.dim
    rho0 = real_or_complex(rho0)
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (n, n):
        raise DimensionMismatchError(f"state shape {rho0.shape} != ({n}, {n}) or (S, {n}, {n})")
    if t_final <= 0:
        raise PreconditionError(f"t_final must be positive, got {t_final}")
    validate_density_state(rho0, DEFAULT_TOL * 10)
    # -i[H, rho] is real only for H = 0
    real = not (model.hamiltonian.matrix.any() or np.iscomplexobj(rho0)
                or any(np.iscomplexobj(l.matrix) for l in model.couplings))
    dtype = float if real else complex
    stack = rho0.reshape((-1, n, n)).astype(dtype, copy=False)
    if n_samples < 2:
        raise PreconditionError("need at least two sample points")
    times = np.linspace(0.0, float(t_final), n_samples)
    ops = {name: _observable(op, n) for name, op in (observables or {}).items()}
    if n <= 16:  # Lambda is n^2 x n^2, so one expm stays cheap
        samples = _exact_samples(model, stack, times)
    else:
        samples = _rk45_samples(model, stack, times, t_final / 100.0, rtol, atol)

    states = np.empty(rho0.shape[:-2] + (n_samples, n, n), dtype=dtype)
    for i, rho in enumerate(samples):
        if i:
            try:
                validate_density_state(rho, DEFAULT_TOL * 10)
            except StateValidityError as exc:
                raise StateValidityError(f"at t={times[i]:.6g}: {exc}") from exc
        states[..., i, :, :] = rho
    # tr(X rho) = sum_ij X_ij rho_ji, over every sample at once
    series = {name: np.einsum("ij,...ji->...", op, states).real for name, op in ops.items()}
    return Trajectory(times, states, series)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of a - b; of each pair, for stacks (..., n, n)."""
    w = np.linalg.eigvalsh(hermitian_part(real_or_complex(a) - real_or_complex(b)))
    d = 0.5 * np.abs(w).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


def partial_trace_last(rho: np.ndarray, dim_keep: int, dim_drop: int) -> np.ndarray:
    """Trace out the last factor; of each state, for a stack (..., n, n)."""
    r = np.asarray(rho).reshape(np.shape(rho)[:-2] + (dim_keep, dim_drop, dim_keep, dim_drop))
    return np.einsum("...iaja->...ij", r)


# -- fast-ancilla (adiabatic) elimination check -------------------------------


@dataclass
class AdiabaticReport:
    """Sup-over-time trace-distance error between the ancilla-mediated model
    and its fast-decay limit, per scaling factor k."""

    k_values: list[int]
    errors: list[float]
    monotone_tail: bool


def adiabatic_limit_check(model: LindbladModel, omega: float, gamma: float,
                          k_list, t_final: float, *, rho0: np.ndarray | None = None,
                          n_samples: int = 201, joint_dim_cap: int = 64) -> AdiabaticReport:
    """Compare ancilla-mediated dynamics against the fast-decay limit.

    For each scaling factor k, the system is joined with a decaying ancilla
    qubit via H_k = k*omega*(L sp + L' sm) + H_S and ancilla coupling
    k*sqrt(gamma)*sm; the ancilla is traced out and the reduced dynamics is
    compared with the limit model whose coupling is -(2*omega/sqrt(gamma))*L,
    the second-order effective operator of the fast-decay limit.  Errors
    should decrease along the upper half of ``k_list``.
    """
    if len(model.couplings) != 1:
        raise PreconditionError("adiabatic check needs a single designated coupling")
    k_list = [int(k) for k in k_list]
    if any(k2 <= k1 for k1, k2 in zip(k_list, k_list[1:])):
        raise PreconditionError("k_list must be strictly ascending")
    n = model.dim
    if 2 * n > joint_dim_cap:
        raise DimensionCapError(f"joint dimension {2 * n} exceeds cap {joint_dim_cap}")
    h_sys, (l_sys,) = _matrices(model)
    rho0 = maximally_mixed(n) if rho0 is None else as_operator(rho0)

    limit_coupling = -(2.0 * omega / np.sqrt(gamma)) * l_sys
    limit_model = LindbladModel(model.structure, h_sys, [limit_coupling])
    limit_states = evolve(limit_model, rho0, t_final, n_samples=n_samples).states

    anc_ground = np.diag([0.0, 1.0])
    joint_structure = TensorStructure(tuple(model.structure.dims) + (2,))

    errors = []
    for k in k_list:
        h_joint = k * omega * (np.kron(l_sys, SIGMA_PLUS) + np.kron(dagger(l_sys), SIGMA_MINUS)) \
            + np.kron(h_sys, np.eye(2))
        l_joint = k * np.sqrt(gamma) * np.kron(np.eye(n), SIGMA_MINUS)
        joint_model = LindbladModel(joint_structure, h_joint, [l_joint])
        joint_states = evolve(joint_model, np.kron(rho0, anc_ground), t_final,
                              n_samples=n_samples).states
        reduced = partial_trace_last(joint_states, n, 2)
        errors.append(float(trace_distance(reduced, limit_states).max()))  # sup over time

    half = len(k_list) // 2
    tail = errors[max(half - 1, 0):]
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
    return AdiabaticReport(k_values=k_list, errors=errors, monotone_tail=monotone)
