"""Synthesis of dissipative couplings of the factorized form L = U V.

A unitary U rotating part of the excited space of V into its ground space
turns V into a certified stability witness for the single channel L = U V.
For projections the constraint is V U' V U V <= (1-c) V.  Every runtime path
solves V U V = sqrt(1-c) Q in closed form (``synthesize_closed_form``): the
constraint pins one corner of U, and a CS dilation completes it or names the
obstruction.  The general solution through the pseudoinverse of V^T (x) V and
a bilinear unitarity system (``synthesize_pinv``) is kept as an independent
oracle for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    PreconditionError,
    SolverBudgetError,
)
from .lindblad import generator_single_channel
from .linalg import (
    DEFAULT_TOL,
    as_operator,
    dagger,
    hermitian_eig,
    hermitian_part,
    is_hermitian,
    is_projection,
    is_psd,
    is_unitary,
    kron,
    max_eigenvalue,
    min_eigenvalue,
    pinv,
    scaled_tol,
    sqrtm_psd,
    vec,
)
from .stability import largest_constant


@dataclass
class SynthesisResult:
    """A synthesized channel: unitary factor, coupling L = U V, target decay
    constant and the residuals of the defining equations."""

    unitary: np.ndarray
    coupling: np.ndarray
    c: float
    residuals: dict[str, float]


@dataclass
class BilinearSystem:
    """Unitarity constraints on the free parameters of the coupling ansatz.

    Column i of the candidate unitary is a_i x + b_i, so U'U = I becomes
    x' a_i' a_j x + x' a_i' b_j + b_i' a_j x + b_i' b_j = delta_ij.
    """

    a_blocks: list[np.ndarray]
    b_blocks: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.a_blocks)

    def unitary_from(self, x: np.ndarray) -> np.ndarray:
        cols = [a @ x + b for a, b in zip(self.a_blocks, self.b_blocks)]
        return np.stack(cols, axis=1)

    def residual(self, x: np.ndarray) -> float:
        u = self.unitary_from(x)
        return float(np.abs(dagger(u) @ u - np.eye(self.n)).max())


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


def _result(v: np.ndarray, u: np.ndarray, q: np.ndarray, c: float) -> SynthesisResult:
    coupling = u @ v
    n = v.shape[0]
    constraint = float(np.abs(v @ u @ v - np.sqrt(max(0.0, 1.0 - c)) * q).max())
    unitarity = float(np.abs(dagger(u) @ u - np.eye(n)).max())
    es_margin = -max_eigenvalue(generator_single_channel(v, coupling) + c * v)
    return SynthesisResult(
        unitary=u, coupling=coupling, c=float(c),
        residuals={"unitarity": unitarity, "constraint": constraint, "es_margin": es_margin},
    )


def synthesize_closed_form(v: np.ndarray, c: float, q: np.ndarray | None = None, *,
                           tol: float = DEFAULT_TOL) -> SynthesisResult:
    """Unitary U with V U V = sqrt(1-c) Q, in closed form, or the reason none exists.

    In the eigenbasis of V (range R with eigenvalues Lambda, kernel K) the
    constraint needs sqrt(1-c) Q to vanish outside the RR block and pins
    U_RR = A := sqrt(1-c) Lambda^-1 Q_RR Lambda^-1.  A unitary with corner A
    exists iff ||A||_2 <= 1 and rank(I - A'A) <= dim K.  With A = X S Y' and
    D = sqrt(I - S^2) it is the CS dilation [[A, X D], [D Y', -S]] on R and
    rank(D) kernel directions, the identity on the rest of K (Paige & Wei,
    Linear Algebra Appl. 208/209 (1994) 303-326; Golub & Van Loan, Matrix
    Computations, 2.5.4).  Q defaults to sqrt(V).

    Raises InfeasibleError with ``reason`` "range", "norm" or "rank".
    """
    v = as_operator(v)
    if not (0.0 < c <= 1.0):
        raise PreconditionError(f"c must lie in (0, 1], got {c}")
    if not is_hermitian(v, tol):
        raise PreconditionError("candidate must be PSD")
    w, vecs = np.linalg.eigh(hermitian_part(v))
    n = v.shape[0]
    scale = max(1.0, float(np.abs(w).max())) if n else 1.0
    if n and w[0] < -tol * scale:
        raise PreconditionError("candidate must be PSD")
    in_range = w > tol * scale
    if q is None:
        q = (vecs * np.sqrt(np.where(in_range, w, 0.0))) @ dagger(vecs)
    else:
        q = as_operator(q)
        if float(np.linalg.norm(dagger(q) @ q - v)) > scaled_tol(v, max(tol, 1e-8)):
            raise PreconditionError("factor Q must satisfy Q'Q = V")
    r = int(in_range.sum())
    basis = np.concatenate([vecs[:, in_range], vecs[:, ~in_range]], axis=1)
    target = np.sqrt(1.0 - c) * (dagger(basis) @ q @ basis)
    outside = target.copy()
    outside[:r, :r] = 0.0
    off, allowed = float(np.linalg.norm(outside)), tol * max(1.0, float(np.linalg.norm(target)))
    if off > allowed:
        raise InfeasibleError(
            f"range obstruction: sqrt(1-c) Q has weight {off:.3e} outside the range "
            f"block of V (allowed {allowed:.3e})", reason="range")
    u_eig = np.eye(n, dtype=complex)
    if r:
        lam = w[in_range]
        a = target[:r, :r] / np.outer(lam, lam)
        x, s, yh = np.linalg.svd(a)
        if s[0] > 1.0 + tol:
            raise InfeasibleError(
                f"norm obstruction: the pinned corner A of U has ||A||_2 = {s[0]:.6g} > 1",
                reason="norm")
        d = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
        # defects below sqrt(tol) are dropped: the unitarity residual stays <= tol
        used = d > np.sqrt(tol)
        k = int(used.sum())
        if k > n - r:
            raise InfeasibleError(
                f"rank obstruction: rank(I - A'A) = {k} exceeds the kernel dimension "
                f"{n - r} of V", reason="rank")
        xk, dk, yk, sk = x[:, used], d[used], dagger(yh)[:, used], s[used]
        # with k = r, kernel direction i follows range direction i: the Halmos
        # dilation [[A, (I - AA')^1/2], [(I - A'A)^1/2, -A']], which does not
        # depend on the SVD's choice of singular vectors and gives
        # [[sqrt(1-c) I, sqrt(c) I], [sqrt(c) I, -sqrt(1-c) I]] on projections
        z1, z2 = (yk, dagger(xk)) if k == r else (np.eye(k), np.eye(k))
        u_eig[:r, :r] = a
        u_eig[:r, r:r + k] = (xk * dk) @ z2
        u_eig[r:r + k, :r] = z1 @ (dk[:, None] * dagger(yk))
        u_eig[r:r + k, r:r + k] = -(z1 * sk) @ z2
    return _result(v, basis @ u_eig @ dagger(basis), q, c)


def synthesize_projection(v: np.ndarray, c: float, *,
                          tol: float = DEFAULT_TOL) -> SynthesisResult:
    """Coupling L = U V for a projection V with target decay constant c.

    The closed form with Q = V: the corner is sqrt(1-c) I_r, completed by the
    block dilation on r ground-space directions.  No unitary exists when the
    rank r exceeds the ground-space dimension n - r, for any c in (0, 1].
    """
    v = as_operator(v)
    if not is_projection(v, tol):
        raise PreconditionError("candidate must be a projection (V^2 = V)")
    return synthesize_closed_form(v, c, v, tol=tol)


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


def synthesize_multi(v: np.ndarray, channels: int, c: float, *,
                     tol: float = DEFAULT_TOL) -> list[SynthesisResult]:
    """K couplings L_k = U_k V jointly certifying decay constant c.

    The target is split evenly, so each channel solves the single-channel
    problem at effective constant c/K; the K channels are that one closed-form
    result, repeated.  The summed inequality V (sum_k U_k' V U_k) V <= (K-c) V
    is post-verified.
    """
    v = as_operator(v)
    k_total = int(channels)
    if not (0.0 < c <= k_total):
        raise PreconditionError(f"c must lie in (0, K], got {c}")
    if not is_projection(v, tol):
        raise PreconditionError("multi-channel synthesis assumes a projection")
    results = [synthesize_projection(v, c / k_total, tol=tol)] * k_total
    acc = np.zeros_like(v)
    gen_sum = np.zeros_like(v)
    for res in results:
        acc = acc + dagger(res.unitary) @ v @ res.unitary
        gen_sum = gen_sum + generator_single_channel(v, res.coupling)
    if not is_psd((k_total - c) * v - v @ acc @ v, max(tol, 1e-8)):
        raise SolverBudgetError("multi-channel post-verification failed", best_residual=np.inf)
    if not is_psd(-gen_sum - c * v, max(tol, 1e-8)):
        raise SolverBudgetError("summed generator bound failed", best_residual=np.inf)
    return results


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


def synthesize(v: np.ndarray, c: float | None = None, channels: int = 1, *,
               tol: float = DEFAULT_TOL):
    """Dispatch synthesis for a candidate V; every path is the closed form.

    When c is omitted, c = 1 is attempted first and c = 1/2 is used as the
    fallback on an infeasible verdict.  Returns a SynthesisResult for a single
    channel and a list for multiple channels.  A non-projection V whose
    coupling misses the decay bound G(V) <= -c V raises InfeasibleError with
    reason "es", naming the constant the coupling does reach.
    """
    v = as_operator(v)
    if channels < 1:
        raise PreconditionError(f"channels must be >= 1, got {channels}")
    if c is None:
        try:
            return synthesize(v, 1.0, channels, tol=tol)
        except InfeasibleError:
            return synthesize(v, 0.5, channels, tol=tol)
    if channels > 1:
        return synthesize_multi(v, channels, c, tol=tol)
    if is_projection(v, tol):
        return synthesize_projection(v, c, tol=tol)
    result = synthesize_closed_form(v, c, tol=tol)
    if result.residuals["es_margin"] < -scaled_tol(v, tol):
        # below V^2 >= V the constraint does not imply G(V) <= -c V
        reached = largest_constant(-generator_single_channel(v, result.coupling), v, tol)
        got = "no positive c" if reached is None else f"c = {reached:.6g}"
        raise InfeasibleError(
            f"es obstruction: the coupling L = U V reaches {got}, below the target "
            f"c = {c:.6g} (es_margin {result.residuals['es_margin']:.3e})", reason="es")
    return result
