"""Ground-state stability certification via operator inequalities.

Two sufficient conditions are certified for a candidate operator V >= 0 with
smallest eigenvalue 0:

* ES (exponential stability):  G(V) <= -c V for some c > 0, which bounds the
  mean by exp(-c t) <V>_0.
* DS (dissipative stability):  G(V) <= 0 together with D(V) >= c V, which
  guarantees asymptotic (possibly sub-exponential) convergence.

Every constant, here and in the aggregation theorems of `scalability`, comes
from one solver, `largest_constant`: the largest c with M - c W >= 0, in
closed form as the smallest eigenvalue of the Schur complement of M over
ker(W), scaled by W on its range (Boyd & Vandenberghe, Convex Optimization,
A.5.5).  At most three eigensolves per constant, no search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionCapError, NonHermitianError, PreconditionError
from .lindblad import (
    LindbladModel,
    dissipation_functional,
    evolve,
    generator,
    maximally_mixed,
)
from .linalg import (
    DEFAULT_TOL,
    as_operator,
    dagger,
    haar_pure_state,
    hermitian_eig,
    is_hermitian,
    is_psd,
    max_eigenvalue,
    min_eigenvalue,
)

_C_MIN = 1e-8


@dataclass
class StabilityReport:
    """Outcome of a ground-state stability certification."""

    is_lyapunov: bool
    c_es: float | None
    c_ds: float | None
    d: float
    margins: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, str] = field(default_factory=dict)
    convergence: str = "not certified"
    simulation: dict | None = None

    @property
    def certified(self) -> bool:
        return self.convergence in ("exponential", "asymptotic only", "trivial")


@dataclass
class GroundSpace:
    energy: float
    projector: np.ndarray
    dimension: int


def _require_candidate(v: np.ndarray, tol: float) -> np.ndarray:
    v = as_operator(v)
    if not is_hermitian(v, tol):
        raise NonHermitianError("candidate must be Hermitian")
    if not is_psd(v, tol):
        raise PreconditionError("candidate must be positive semidefinite")
    return v


def largest_constant(m: np.ndarray, w: np.ndarray, tol: float = DEFAULT_TOL) -> float | None:
    """Largest c with m - c w >= 0 (m, w Hermitian, w >= 0), or None when no
    c >= _C_MIN works.

    In the eigenbasis of w, split m into blocks [[A, B], [B', C]] over range(w),
    where w has eigenvalues Lam, and ker(w).  m - c w >= 0 iff C >= 0,
    B' in range(C) and A - c Lam - B C^+ B' >= 0 (Schur complement), so
    c* = lambda_min(Lam^-1/2 (A - B C^+ B') Lam^-1/2).  Eigenvalues of w up to
    tol * max(1, ||w||_2) count as kernel; C and B are checked against
    tol * max(1, ||m||_F / sqrt(n)), the root-mean-square eigenvalue of m,
    which never exceeds ||m||_2.
    """
    lam, q = np.linalg.eigh(w.real if not np.imag(w).any() else w)  # real w: half the memory
    k = int(np.count_nonzero(lam <= tol * max(1.0, float(np.abs(lam).max(initial=0.0)))))
    if k == lam.size:
        return None
    m = dagger(q) @ m @ q
    atol = tol * max(1.0, float(np.linalg.norm(m)) / np.sqrt(m.shape[0]))
    s, b = m[k:, k:], m[k:, :k]
    if k:
        gam, u = np.linalg.eigh(m[:k, :k])
        pos = gam > atol
        if gam[0] < -atol or np.linalg.norm(b @ u[:, ~pos]) > atol:
            return None
        bu = b @ u[:, pos]
        s = s - (bu / gam[pos]) @ dagger(bu)
    r = 1.0 / np.sqrt(lam[k:])
    c = float(np.linalg.eigvalsh(s * np.outer(r, r))[0])
    return c if c >= _C_MIN else None


def is_lyapunov_operator(v: np.ndarray, model: LindbladModel,
                         tol: float = DEFAULT_TOL) -> tuple[bool, dict[str, str]]:
    """PSD with zero smallest eigenvalue, and non-positive generator."""
    return _lyapunov(v, model, tol)[:2]


def _lyapunov(v: np.ndarray, model: LindbladModel,
              tol: float) -> tuple[bool, dict[str, str], np.ndarray]:
    """`is_lyapunov_operator`, plus the generator G(v) it computed."""
    v = as_operator(v)
    if not is_hermitian(v, tol):
        raise NonHermitianError("candidate must be Hermitian")
    diag: dict[str, str] = {}
    psd_ok = is_psd(v, tol)
    if not psd_ok:
        diag["psd"] = "V >= 0 fails"
    w_min = min_eigenvalue(v)
    scale = max(1.0, float(np.linalg.norm(v, 2))) if v.size else 1.0
    zero_ok = abs(w_min) <= tol * scale
    if psd_ok and not zero_ok:
        diag["ground_energy"] = f"smallest eigenvalue {w_min:.6g} != 0"
    g = generator(v, model)
    gen_ok = is_psd(-g, tol)
    if not gen_ok:
        diag["generator"] = f"G(V) has positive eigenvalue {max_eigenvalue(g):.6g}"
    return (psd_ok and zero_ok and gen_ok), diag, g


def check_condition_es(v: np.ndarray, model: LindbladModel,
                       tol: float = DEFAULT_TOL) -> float | None:
    """Largest c with G(v) <= -c v, or None."""
    v = _require_candidate(v, tol)
    return largest_constant(-generator(v, model), v, tol)


def check_condition_ds(v: np.ndarray, model: LindbladModel,
                       tol: float = DEFAULT_TOL) -> float | None:
    """Largest c with G(v) <= 0 and D(v) >= c v, or None."""
    v = _require_candidate(v, tol)
    g = generator(v, model)
    if not is_psd(-g, tol):
        return None
    return largest_constant(dissipation_functional(v, model), v, tol)


def check_dissipation_square(v: np.ndarray, model: LindbladModel,
                             tol: float = DEFAULT_TOL) -> float | None:
    """Largest c with D(v) >= c v^2, or None."""
    v = _require_candidate(v, tol)
    return largest_constant(dissipation_functional(v, model), v @ v, tol)


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


def certify_ground_state_stability(v: np.ndarray, model: LindbladModel, *,
                                   simulate: bool = False, n_states: int = 20,
                                   t_final: float = 20.0, seed: int = 0,
                                   dim_cap: int = 64,
                                   tol: float = DEFAULT_TOL) -> StabilityReport:
    """Full certification of a candidate operator, optionally cross-checked by
    master-equation simulation from sampled initial states."""
    v = as_operator(v)
    lyap, diagnostics, g = _lyapunov(v, model, tol)
    d = min_eigenvalue(v)
    margins = {"psd": d, "generator": -max_eigenvalue(g)}
    diagnostics.setdefault("mean_dissipation_condition", "not checked (state-dependent)")

    degenerate = float(np.linalg.norm(v, 2)) <= tol
    c_es = c_ds = None
    if degenerate:
        diagnostics["degenerate"] = "candidate is (numerically) zero"
    elif lyap:
        # lyap covers the candidate and G(V) <= 0 checks of check_condition_es/_ds
        d_op = dissipation_functional(v, model)
        c_es = largest_constant(-g, v, tol)
        c_ds = largest_constant(d_op, v, tol)
        if c_es is not None:
            margins["es"] = -max_eigenvalue(g + c_es * v)
        if c_ds is not None:
            margins["ds"] = min_eigenvalue(d_op - c_ds * v)

    if degenerate and lyap:
        convergence = "trivial"
    elif lyap and c_es is not None:
        convergence = "exponential"
    elif lyap and c_ds is not None:
        convergence = "asymptotic only"
    else:
        convergence = "not certified"

    simulation = None
    if simulate and not degenerate:
        n = model.dim
        if n > dim_cap:
            raise DimensionCapError(f"simulation dim {n} exceeds cap {dim_cap}")
        rng = np.random.default_rng(seed)
        pure = [haar_pure_state(rng, n) for _ in range(max(0, n_states - 1))]
        initial = np.array([maximally_mixed(n)] + [np.outer(p, p.conj()) for p in pure])
        traj = evolve(model, initial, t_final, observables={"v": v})
        ev = traj.observables["v"]  # (state, time)
        monotone = convergence not in ("exponential", "asymptotic only") \
            or bool(np.all(np.diff(ev) <= 1e-7))
        simulation = {
            "n_states": len(initial),
            "t_final": float(t_final),
            "max_final_expectation": float(ev[:, -1].max()),
            "monotone": monotone,
            "converged_below_1e-6": bool(np.all(np.abs(ev[:, traj.times >= 0.9 * t_final]) < 1e-6)),
        }
        if c_es is not None:
            bound = np.exp(-c_es * traj.times) * ev[:, :1] + 1e-6
            simulation["exponential_envelope_ok"] = bool(np.all(ev <= bound))

    return StabilityReport(
        is_lyapunov=lyap, c_es=c_es, c_ds=c_ds, d=d, margins=margins,
        diagnostics=diagnostics, convergence=convergence, simulation=simulation,
    )
