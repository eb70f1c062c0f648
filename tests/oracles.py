"""Independent oracles and sampling helpers of the test suite.

Nothing here is reached by the command line, `scripts/` or the benchmark:
each function is an independent way to compute a quantity that the runtime
computes another way (the bilinear synthesis solver against the closed form,
the Liouvillian kernel against simulation, dense ground spaces against the
aggregation theorems), or a random ensemble the property tests draw from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dissipctl.errors import (
    DimensionMismatchError, DissipctlError, InfeasibleError, NonHermitianError, PreconditionError,
)
from dissipctl.lindblad import LindbladModel, _observable, dissipation_functional, liouvillian
from dissipctl.linalg import (
    DEFAULT_TOL, as_operator, dagger, hermitian_part, is_hermitian, is_psd, min_eigenvalue,
    scaled_tol,
)
from dissipctl.scalability import AggregateSpec, _cross_channel_margin
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
    return _cross_channel_margin(spec, spec.terms[term_index], [channel_index], tol)


def dissipation_cross_term(spec: AggregateSpec) -> np.ndarray:
    """D(sum W_t) - sum_t D(W_t): the cross part of the dissipation operator."""
    model = spec.to_model()
    total = dissipation_functional(spec.total(), model)
    for w in spec.terms:
        total = total - dissipation_functional(w, model)
    return total


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
