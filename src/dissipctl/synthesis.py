"""Synthesis of dissipative couplings of the factorized form L = U V.

A unitary U rotating part of the excited space of V into its ground space
turns V into a certified stability witness for the single channel L = U V.
For projections the constraint is V U' V U V <= (1-c) V.  Every runtime path
(``synthesize``) solves V U V = sqrt(1-c) sqrt(V) in closed form
(``synthesize_closed_form``): in the eigenbasis of V the constraint pins a
diagonal corner of U, which independent 2x2 rotations complete, or the
obstruction is named.  The general solution through the pseudoinverse of
V^T (x) V and a bilinear unitarity system (``synthesize_pinv``) is kept as an
independent oracle for the tests.
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


def synthesize_closed_form(v: np.ndarray, c: float, *,
                           tol: float = DEFAULT_TOL) -> SynthesisResult:
    """Unitary U with V U V = sqrt(1-c) sqrt(V), in closed form, or the reason none exists.

    In the eigenbasis of V (range eigenvalues lambda_i, kernel K) the
    constraint pins the range corner of U to the diagonal a_i =
    sqrt(1-c) lambda_i^(-3/2).  A unitary with that corner exists iff every
    a_i <= 1 and at most dim K of the defects d_i = sqrt(1 - a_i^2) are
    nonzero.  Then each range direction with a defect is paired with the next
    kernel direction by the rotation [[a_i, d_i], [d_i, -a_i]], and U is the
    identity on the rest of K: the CS dilation of a diagonal corner (Paige &
    Wei, Linear Algebra Appl. 208/209 (1994) 303-326; Golub & Van Loan, Matrix
    Computations, 2.5.4).

    Raises InfeasibleError with ``reason`` "norm" or "rank".
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
    ker = int((w <= tol * scale).sum())  # eigh is ascending: the kernel comes first
    lam = w[ker:]
    q = (vecs[:, ker:] * np.sqrt(lam)) @ dagger(vecs[:, ker:])
    a = np.sqrt(1.0 - c) * np.sqrt(lam) / (lam * lam)  # the corner Lambda^-1 Q Lambda^-1
    if lam.size and a.max() > 1.0 + tol:
        raise InfeasibleError(
            f"norm obstruction: the pinned corner A of U has ||A||_2 = {a.max():.6g} > 1",
            reason="norm")
    d = np.sqrt(np.clip(1.0 - a * a, 0.0, None))
    # defects below sqrt(tol) are dropped: the unitarity residual stays <= tol
    used = np.flatnonzero(d > np.sqrt(tol))
    if used.size > ker:
        raise InfeasibleError(
            f"rank obstruction: rank(I - A'A) = {used.size} exceeds the kernel dimension "
            f"{ker} of V", reason="rank")
    basis = np.roll(vecs, -ker, axis=1)  # range, then kernel
    r, paired = lam.size, lam.size + np.arange(used.size)
    u_eig = np.eye(n)
    u_eig[:r, :r] = np.diag(a)
    u_eig[used, paired] = u_eig[paired, used] = d[used]
    u_eig[paired, paired] = -a[used]
    return _result(v, basis @ u_eig @ dagger(basis), q, c)


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


def synthesize(v: np.ndarray, c: float | None = None, channels: int = 1, *,
               tol: float = DEFAULT_TOL):
    """Couplings L_k = U V, k = 1..K, jointly certifying the decay constant c.

    Every channel is the closed form at c/K, so K > 1 needs a projection, for
    which G_L(V) = V U' V U V - V.  When c is omitted, c = 1 is attempted first
    and c = 1/2 is used as the fallback on an infeasible verdict.  Returns a
    SynthesisResult for one channel and a list for several.  Couplings that
    miss the summed decay bound K G_L(V) <= -c V (a non-projection V below
    V^2 >= V) raise InfeasibleError with reason "es", naming the constant they
    do reach.
    """
    v = as_operator(v)
    if channels < 1:
        raise PreconditionError(f"channels must be >= 1, got {channels}")
    if c is None:
        try:
            return synthesize(v, 1.0, channels, tol=tol)
        except InfeasibleError:
            return synthesize(v, 0.5, channels, tol=tol)
    if not (0.0 < c <= channels):
        raise PreconditionError(f"c must lie in (0, {channels}], got {c}")
    if channels > 1 and not is_projection(v, tol):
        raise PreconditionError("multi-channel synthesis assumes a projection")
    result = synthesize_closed_form(v, c / channels, tol=tol)
    margin = channels * result.residuals["es_margin"]
    if margin < -scaled_tol(v, tol):
        reached = largest_constant(-channels * generator_single_channel(v, result.coupling),
                                   v, tol)
        got = "no positive c" if reached is None else f"c = {reached:.6g}"
        who = ("the coupling L = U V reaches" if channels == 1
               else f"the {channels} couplings L_k = U V reach")
        raise InfeasibleError(
            f"es obstruction: {who} {got}, below the target c = {c:.6g} "
            f"(es_margin {margin:.3e})", reason="es")
    return result if channels == 1 else [result] * channels
