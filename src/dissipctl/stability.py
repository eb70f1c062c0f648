"""Ground-state stability certification via operator inequalities.

Two sufficient conditions are certified for a candidate operator V >= 0 with
smallest eigenvalue 0:

* ES (exponential stability):  G(V) <= -c V for some c > 0, which bounds the
  mean by exp(-c t) <V>_0.
* DS (dissipative stability):  G(V) <= 0 together with D(V) >= c V, which
  guarantees asymptotic (possibly sub-exponential) convergence.

Every constant, here and in the aggregation theorems of `scalability`, comes
from one solver, `largest_constant`: the largest c with M - c W >= 0, found
by bisection on semidefiniteness checks.
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
    hermitian_part,
    is_hermitian,
    is_psd,
    max_eigenvalue,
    min_eigenvalue,
)

_C_MIN = 1e-8
_BISECT_ITERS = 40


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


def _smallest_positive_eig(v: np.ndarray, tol: float) -> float | None:
    w = np.linalg.eigvalsh(hermitian_part(v))
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    positive = w[w > tol * scale]
    return float(positive[0]) if positive.size else None


def largest_constant(m: np.ndarray, w: np.ndarray, tol: float = DEFAULT_TOL, *,
                     norm: float | None = None, lam: float | None = None) -> float | None:
    """Largest c with m - c w >= 0 (bisection on [_C_MIN, 2 norm / lam]), or None.

    norm defaults to ||m||_2 and lam to the smallest positive eigenvalue of w.
    For m = -G pass norm = ||G||_2: numpy's 2-norm is not bit-for-bit
    sign-symmetric, and the bracket fixes the last digits of the result.
    """
    if lam is None:
        lam = _smallest_positive_eig(w, tol)
    if norm is None:
        norm = float(np.linalg.norm(m, 2))
    if lam is None or norm == 0.0:
        return None

    def holds(c: float) -> bool:
        return is_psd(m - c * w, tol)

    if not holds(_C_MIN):
        return None
    c_max = 2.0 * norm / lam
    for _ in range(8):  # c_max is a strict bound in theory; widen defensively
        if not holds(c_max):
            break
        c_max *= 2
    else:
        return c_max
    lo, hi = _C_MIN, c_max
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def is_lyapunov_operator(v: np.ndarray, model: LindbladModel,
                         tol: float = DEFAULT_TOL) -> tuple[bool, dict[str, str]]:
    """PSD with zero smallest eigenvalue, and non-positive generator."""
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
    return (psd_ok and zero_ok and gen_ok), diag


def check_condition_es(v: np.ndarray, model: LindbladModel,
                       tol: float = DEFAULT_TOL) -> float | None:
    """Largest c with G(v) <= -c v, or None."""
    v = _require_candidate(v, tol)
    g = generator(v, model)
    return largest_constant(-g, v, tol, norm=float(np.linalg.norm(g, 2)))


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
    d_op = dissipation_functional(v, model)
    lam_plus = _smallest_positive_eig(v, tol)
    if lam_plus is None:
        return None
    return largest_constant(d_op, v @ v, tol, lam=lam_plus**2)


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
    lyap, diagnostics = is_lyapunov_operator(v, model, tol)
    d = min_eigenvalue(v)
    g = generator(v, model)
    margins = {
        "psd": min_eigenvalue(v),
        "generator": -max_eigenvalue(g),
    }
    diagnostics.setdefault("mean_dissipation_condition", "not checked (state-dependent)")

    v_scale = float(np.linalg.norm(v, 2))
    degenerate = v_scale <= tol
    c_es = c_ds = None
    if degenerate:
        diagnostics["degenerate"] = "candidate is (numerically) zero"
    elif lyap:
        c_es = check_condition_es(v, model, tol)
        c_ds = check_condition_ds(v, model, tol)
        if c_es is not None:
            margins["es"] = -max_eigenvalue(g + c_es * v)
        if c_ds is not None:
            d_op = dissipation_functional(v, model)
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
        initial = [maximally_mixed(n)]
        for _ in range(max(0, n_states - 1)):
            psi = haar_pure_state(rng, n)
            initial.append(np.outer(psi, psi.conj()))
        finals = []
        envelope_ok = True
        monotone_ok = True
        converged = True
        for rho0 in initial:
            traj = evolve(model, rho0, t_final, observables={"v": v})
            ev = traj.observables["v"]
            finals.append(float(ev[-1]))
            if c_es is not None:
                bound = np.exp(-c_es * traj.times) * ev[0] + 1e-6
                envelope_ok = envelope_ok and bool(np.all(ev <= bound))
            if convergence in ("exponential", "asymptotic only"):
                monotone_ok = monotone_ok and bool(np.all(np.diff(ev) <= 1e-7))
            tail = ev[traj.times >= 0.9 * t_final]
            converged = converged and bool(np.all(np.abs(tail) < 1e-6))
        simulation = {
            "n_states": len(initial),
            "t_final": float(t_final),
            "max_final_expectation": max(finals),
            "monotone": monotone_ok,
            "converged_below_1e-6": converged,
        }
        if c_es is not None:
            simulation["exponential_envelope_ok"] = envelope_ok

    return StabilityReport(
        is_lyapunov=lyap, c_es=c_es, c_ds=c_ds, d=d, margins=margins,
        diagnostics=diagnostics, convergence=convergence, simulation=simulation,
    )
