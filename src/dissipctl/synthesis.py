"""Synthesis of dissipative couplings of the factorized form L = U V.

A unitary U rotating part of the excited space of V into its ground space
turns V into a certified stability witness for the single channel L = U V.
For projections the constraint is V U' V U V <= (1-c) V.  Every runtime path
(``synthesize``) solves V U V = sqrt(1-c) sqrt(V) in closed form
(``synthesize_closed_form``): in the eigenbasis of V the constraint pins a
diagonal corner of U, which independent 2x2 rotations complete, or the
obstruction is named.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, PreconditionError
from .lindblad import generator_single_channel
from .linalg import (
    DEFAULT_TOL,
    as_operator,
    dagger,
    hermitian_part,
    is_hermitian,
    is_projection,
    max_eigenvalue,
    scaled_tol,
    spectral_tol,
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


# the tests' bilinear oracle builds it; it stays here because bench/layers.py patches .residual
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
    threshold = spectral_tol(w, tol)
    if n and w[0] < -threshold:
        raise PreconditionError("candidate must be PSD")
    ker = int((w <= threshold).sum())  # eigh is ascending: the kernel comes first
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
