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

from .errors import PreconditionError
from .lindblad import (
    _N_SAMPLES,
    LindbladModel,
    _grid,
    _operator,
    _samples,
    dissipation_functional,
    generator,
)
from .linalg import (
    DEFAULT_TOL,
    _frobenius,
    dagger,
    eigenvalues,
    haar_pure_state,
    hermitian_part,
    is_psd,
    psd_spectrum,
    spectral_tol,
)

_C_MIN = 1e-8
_N_STATES = 20  # the seeded states of check --simulate


@dataclass
class StabilityReport:
    """Outcome of a ground-state stability certification."""

    is_lyapunov: bool
    c_es: float | None
    c_ds: float | None
    d: float
    diagnostics: dict[str, str] = field(default_factory=dict)
    convergence: str = "not certified"
    simulation: dict | None = None

    @property
    def certified(self) -> bool:
        return self.convergence in ("exponential", "asymptotic only", "trivial")


def _candidate(v, model: LindbladModel, tol: float) -> tuple:
    """The candidate, a matrix, a LocalOperator or a list of them (their sum),
    as Hermitian terms of the model's structure, as the matrix V of the whole
    space, and the eigenvalues and eigenvectors of V: the one spectrum of V."""
    terms, v = _operator(v, model.structure, "candidate", "V", tol)
    return (terms, v, *np.linalg.eigh(hermitian_part(v)))


def _require_candidate(v, model: LindbladModel, tol: float) -> tuple:
    """`_candidate` but V, refused unless V is PSD."""
    terms, _, lam, q = _candidate(v, model, tol)
    if not psd_spectrum(lam, tol):
        raise PreconditionError("candidate must be positive semidefinite", field="V")
    return terms, lam, q


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
    return _schur_constant(m, *np.linalg.eigh(w), tol)


def _schur_constant(m: np.ndarray, lam: np.ndarray, q: np.ndarray,
                    tol: float, copies: int = 1) -> float | None:
    """`largest_constant` from the eigenpairs of w: lam ascending, q the vectors.

    It is also the constant of m (x) I against w (x) I, with I of dimension
    `copies`: spectra, thresholds and the Schur complement are those of m and
    w, and only the Frobenius norm of the B block grows, as `_frobenius`
    takes it with `copies`."""
    k = int(np.count_nonzero(lam <= spectral_tol(lam, tol)))
    if k == lam.size:
        return None
    m = dagger(q) @ m @ q
    atol = tol * max(1.0, _frobenius(m) / np.sqrt(m.shape[0]))
    s, b = m[k:, k:], m[k:, :k]
    if k:
        gam, u = np.linalg.eigh(m[:k, :k])
        pos = gam > atol
        if gam[0] < -atol or _frobenius(b @ u[:, ~pos], copies) > atol:
            return None
        bu = b @ u[:, pos]
        s = s - (bu / gam[pos]) @ dagger(bu)
    r = 1.0 / np.sqrt(lam[k:])
    c = float(np.linalg.eigvalsh(s * np.outer(r, r))[0])
    return c if c >= _C_MIN else None


def _lyapunov(v: list, lam: np.ndarray, model: LindbladModel,
              tol: float) -> tuple[bool, dict[str, str], np.ndarray]:
    """Whether the sum of the Hermitian terms v, with ascending eigenvalues
    lam, is a Lyapunov operator (PSD, zero smallest eigenvalue, non-positive
    generator), the diagnostics of the parts that fail and the generator G(v)."""
    diag: dict[str, str] = {}
    psd_ok = psd_spectrum(lam, tol)
    if not psd_ok:
        diag["psd"] = "V >= 0 fails"
    zero_ok = bool(abs(lam[0]) <= spectral_tol(lam, tol))
    if psd_ok and not zero_ok:
        diag["ground_energy"] = f"smallest eigenvalue {lam[0]:.6g} != 0"
    g = generator(v, model, tol)
    gen_ok = is_psd(-g, tol)
    if not gen_ok:
        diag["generator"] = f"G(V) has positive eigenvalue {eigenvalues(g)[-1]:.6g}"
    return (psd_ok and zero_ok and gen_ok), diag, g


def check_condition_es(v, model: LindbladModel, tol: float = DEFAULT_TOL) -> float | None:
    """Largest c with G(v) <= -c v, or None; v is a matrix, a LocalOperator or
    a list of them (their sum)."""
    terms, lam, q = _require_candidate(v, model, tol)
    return _schur_constant(-generator(terms, model, tol), lam, q, tol)


def check_condition_ds(v, model: LindbladModel, tol: float = DEFAULT_TOL) -> float | None:
    """Largest c with G(v) <= 0 and D(v) >= c v, or None; v as in
    `check_condition_es`."""
    terms, lam, q = _require_candidate(v, model, tol)
    if not is_psd(-generator(terms, model, tol), tol):
        return None
    return _schur_constant(dissipation_functional(terms, model, tol), lam, q, tol)


def _expectations(v: np.ndarray, d: float, model: LindbladModel, times: np.ndarray, seed: int,
                  tol: float) -> np.ndarray:
    """The (state, time) series tr(V(t) rho_s) of the seeded states on the grid
    `times` of `_grid`, V(t) = exp(tG)(V) propagated once.  exp(tG) is positive
    and unital, so `_samples` checks each V(t) >= d I within 10 tol, d = lambda_min(V)."""
    n = model.dim
    rng = np.random.default_rng(seed)
    psi = np.array([haar_pure_state(rng, n) for _ in range(_N_STATES - 1)])
    ev = np.empty((_N_STATES, len(times)))
    for i, x in enumerate(_samples(model, v, times, 10 * tol, d)):
        ev[0, i] = np.trace(x).real / n  # the maximally mixed state
        ev[1:, i] = ((psi.conj() @ x) * psi).sum(axis=1).real  # <psi_s|V(t)|psi_s>
    return ev


def certify_ground_state_stability(v, model: LindbladModel, *, simulate: bool = False,
                                   t_final: float = 20.0, seed: int = 0,
                                   tol: float = DEFAULT_TOL) -> StabilityReport:
    """Full certification of a candidate operator, a matrix, a LocalOperator or
    a list of them (their sum), optionally cross-checked by master-equation
    simulation from sampled initial states, in the Heisenberg picture."""
    if simulate and seed < 0:  # numpy's generators take no negative seed
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")
    if simulate:
        times = _grid(model.dim, t_final, _N_SAMPLES)
    terms, v, lam, q = _candidate(v, model, tol)
    lyap, diagnostics, g = _lyapunov(terms, lam, model, tol)
    d = float(lam[0])

    degenerate = float(np.abs(lam).max()) <= tol  # ||V||_2
    c_es = c_ds = None
    if degenerate:
        diagnostics["degenerate"] = "candidate is (numerically) zero"
    elif lyap:
        # lyap covers the candidate and G(V) <= 0 checks of check_condition_es/_ds
        c_es = _schur_constant(-g, lam, q, tol)
        c_ds = _schur_constant(dissipation_functional(terms, model, tol), lam, q, tol)

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
        ev = _expectations(v, d, model, times, seed, tol)
        monotone = convergence not in ("exponential", "asymptotic only") \
            or bool(np.all(np.diff(ev) <= 1e-7))
        simulation = {
            "n_states": _N_STATES,
            "t_final": float(t_final),
            "max_final_expectation": float(ev[:, -1].max()),
            "monotone": monotone,
            "converged_below_1e-6": bool(np.all(np.abs(ev[:, times >= 0.9 * t_final]) < 1e-6)),
        }
        if c_es is not None:
            bound = np.exp(-c_es * times) * ev[:, :1] + 1e-6
            simulation["exponential_envelope_ok"] = bool(np.all(ev <= bound))

    return StabilityReport(
        is_lyapunov=lyap, c_es=c_es, c_ds=c_ds, d=d,
        diagnostics=diagnostics, convergence=convergence, simulation=simulation,
    )
