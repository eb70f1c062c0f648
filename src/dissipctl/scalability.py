"""Aggregation of per-term stability certificates.

A composite witness W = sum_t W_t (every W_t PSD) is certified from per-term
conditions plus a cross-channel scalability condition: channels not assigned
to a term must not push its generator positive.  Incremental variants certify
W_(n+1) = W_n + W_next given a certificate for the first n terms, with the
ground-energy ladder d_n entering the inequalities; the d-free corollary
drops those d-dependent shifts.  All checks sum the single-channel kernels of
`lindblad` and the one cross term [L', W_n][W_next, L] over channel lists, in
list order, and take constants from `stability.largest_constant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionCapError, DimensionMismatchError, PreconditionError
from .lindblad import (
    LindbladModel,
    Trajectory,
    channel_sum,
    dissipation_functional,
    dissipation_single_channel,
    evolve,
    generator,
    generator_single_channel,
    maximally_mixed,
)
from .linalg import (
    DEFAULT_TOL,
    TensorStructure,
    as_operator,
    commutator,
    dagger,
    is_psd,
    max_eigenvalue,
    min_eigenvalue,
    scaled_tol,
)
from .stability import largest_constant


@dataclass
class AggregateSpec:
    """Terms, channels, and the term-to-channel assignment of an aggregate,
    with the unitary factors U_k of couplings L_k = U_k W_k (for the
    commuting corollary; None when not given) and the new channels of an
    incremental step."""

    structure: TensorStructure
    terms: list[np.ndarray]
    couplings: list[np.ndarray] = field(default_factory=list)
    assignment: list | None = None
    hamiltonian: np.ndarray | None = None
    term_names: list[str] | None = None
    unitaries: list[np.ndarray] | None = None
    new_couplings: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        n = self.structure.total_dim

        def operators(ops, kind):
            ops = [as_operator(a) for a in ops]
            for i, a in enumerate(ops):
                if a.shape[0] != n:
                    raise DimensionMismatchError(f"{kind} {i} dim {a.shape[0]} != {n}")
            return ops

        self.terms = operators(self.terms, "term")
        self.couplings = operators(self.couplings, "coupling")
        if self.unitaries is not None:
            self.unitaries = operators(self.unitaries, "unitary")
        self.new_couplings = operators(self.new_couplings, "new coupling")
        if self.hamiltonian is not None:
            self.hamiltonian = as_operator(self.hamiltonian)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_channels(self) -> int:
        return len(self.couplings)

    def names(self) -> list[str]:
        if self.term_names:
            return list(self.term_names)
        return [f"W{i + 1}" for i in range(self.n_terms)]

    def channel_groups(self) -> list[list[int]]:
        """Channel indices assigned to each term (singletons by default)."""
        if self.assignment is None:
            if self.n_terms != self.n_channels:
                raise PreconditionError(
                    "assignment required when terms and channels do not pair one-to-one"
                )
            return [[i] for i in range(self.n_terms)]
        groups = []
        for entry in self.assignment:
            ks = [entry] if isinstance(entry, int) else list(entry)
            for k in ks:
                if not 0 <= k < self.n_channels:
                    raise PreconditionError(f"assignment index {k} out of range")
            groups.append([int(k) for k in ks])
        if len(groups) != self.n_terms:
            raise PreconditionError("assignment must name channels for every term")
        return groups

    def to_model(self, new_couplings=()) -> LindbladModel:
        """The model with every channel, plus `new_couplings` appended."""
        h = self.hamiltonian
        if h is None:
            h = np.zeros((self.structure.total_dim,) * 2)
        return LindbladModel(self.structure, h, list(self.couplings) + list(new_couplings))

    def total(self) -> np.ndarray:
        return sum(self.terms, np.zeros((self.structure.total_dim,) * 2))


@dataclass
class AggregateReport:
    """Per-term verdicts and the overall certification outcome."""

    mode: str
    per_term: list[dict]
    overall: bool
    d_total: float
    notes: list[str] = field(default_factory=list)

    @property
    def constants(self) -> list[float | None]:
        return [entry.get("c") for entry in self.per_term]


def _require_terms_psd(spec: AggregateSpec, tol: float) -> None:
    for i, t in enumerate(spec.terms):
        if not is_psd(t, tol):
            raise PreconditionError(f"term {i} is not PSD")


def _cross_single_channel(w_n: np.ndarray, w_next: np.ndarray, l: np.ndarray) -> np.ndarray:
    """2 Re([L', W_n][W_next, L]) with Re(M) = (M + M')/2."""
    ld = dagger(l)
    m = (ld @ w_n - w_n @ ld) @ (w_next @ l - l @ w_next)
    return m + dagger(m)


def _nonpositive(a: np.ndarray, scale: np.ndarray, tol: float) -> tuple[bool, float]:
    """(a <= 0 within scaled_tol(scale), margin = -(largest eigenvalue of a))."""
    margin = -max_eigenvalue(a)
    return margin >= -scaled_tol(scale, tol), margin


def _cross_channel_margin(spec: AggregateSpec, w: np.ndarray, ks, tol: float) -> tuple[bool, float]:
    """Scalability margin of a term against every channel outside `ks`."""
    others = [l for k, l in enumerate(spec.couplings) if k not in ks]
    acc = channel_sum(generator_single_channel, w, others)
    return _nonpositive(acc, acc, tol)


def _es_term(w: np.ndarray, own: list, tol: float) -> dict:
    """Largest c with G_own(W_t) <= -c W_t."""
    if not own:
        return {"c": None}
    return {"c": largest_constant(-channel_sum(generator_single_channel, w, own), w, tol)}


def _ds_term(w: np.ndarray, own: list, tol: float) -> dict:
    """G_own(W_t) <= 0, and the largest c with D_own(W_t) >= c W_t."""
    gen_ok = is_psd(-channel_sum(generator_single_channel, w, own), tol)
    c = None
    if gen_ok and own:
        c = largest_constant(channel_sum(dissipation_single_channel, w, own), w, tol)
    return {"c": c, "generator_nonpositive": gen_ok}


def _aggregate(spec: AggregateSpec, mode: str, term_constant, note: str,
               tol: float) -> AggregateReport:
    """Per-term constants from `term_constant` (given the term and its own
    channels) plus the scalability condition of every term."""
    _require_terms_psd(spec, tol)
    if not spec.terms:
        return AggregateReport(mode=mode, per_term=[], overall=True, d_total=0.0,
                               notes=["no terms: vacuously stable"])
    groups = spec.channel_groups()
    names = spec.names()
    per_term = []
    for t, (w, ks) in enumerate(zip(spec.terms, groups)):
        entry = {"term": names[t], "channels": ks,
                 **term_constant(w, [spec.couplings[k] for k in ks], tol)}
        scal_ok, margin = _cross_channel_margin(spec, w, ks, tol)
        entry.update(scalability=scal_ok, scalability_margin=margin,
                     certified=entry["c"] is not None and scal_ok)
        per_term.append(entry)
    overall = all(entry["certified"] for entry in per_term)
    return AggregateReport(mode=mode, per_term=per_term, overall=overall,
                           d_total=min_eigenvalue(spec.total()),
                           notes=[note] if overall else [])


def check_theorem_es_aggregation(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Per-term exponential certificates plus the scalability condition.

    Each term must satisfy (with its assigned channels) a per-term decay bound
    with some c > 0, and every term must pass the cross-channel condition.
    When all terms pass, the sum is certified asymptotically ground-state
    stable and is itself a valid stability witness.
    """
    return _aggregate(spec, "es", _es_term,
                      "aggregate certified: the sum is a valid stability witness", tol)


def check_theorem_ds_aggregation(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Per-term dissipative certificates plus the scalability condition."""
    return _aggregate(spec, "ds", _ds_term, "aggregate satisfies the dissipative condition", tol)


def check_incremental(spec: AggregateSpec, n: int, c: float, mode: str = "es",
                      d_free: bool = False, tol: float = DEFAULT_TOL) -> tuple[bool, dict]:
    """Certificate for the (n+1)-term partial sum W_n + W_next under the
    spec's channels plus `spec.new_couplings`, after verifying the prior
    certificate of W_n (PreconditionError otherwise).  With d_n the ground
    energy of W_n and Re(M) = (M + M')/2, it checks
        es:  G(W_next) + sum_new G(W_n)_L  <=  -c W_next + c (d_(n+1) - d_n);
        ds:  G(W_next) + sum_new G(W_n)_L  <=  0  and
             D(W_next) + 2 sum_k Re([L_k', W_n][W_next, L_k])  >=  c W_next - c (d_(n+1) - d_n),
    and reports the cross-term norm.  `d_free`, the ground-energy-free
    corollary, drops the shifts c (d_(n+1) - d_n); the ladder d_(n+1) >= d_n
    makes it strictly stronger.
    """
    if mode not in ("es", "ds"):
        raise PreconditionError(f"mode must be 'es' or 'ds', got {mode!r}")
    _require_terms_psd(spec, tol)
    if not 1 <= n < spec.n_terms:
        raise PreconditionError(f"n must satisfy 1 <= n < {spec.n_terms}, got {n}")
    w_n = sum(spec.terms[:n])
    w_next = spec.terms[n]
    d_n = min_eigenvalue(w_n)
    d_next = min_eigenvalue(w_n + w_next)
    eye = np.eye(w_n.shape[0])

    prior = spec.to_model()
    g = generator(w_n, prior)
    shifted = w_n - d_n * eye
    prior_tol = max(tol, 1e-8)
    if mode == "es" and not _nonpositive(g + c * shifted, g, prior_tol)[0]:
        raise PreconditionError(
            f"prior certificate missing: existing channels do not give the decay bound at c={c}"
        )
    if mode == "ds":
        if not _nonpositive(g, g, prior_tol)[0]:
            raise PreconditionError("prior certificate missing: generator not non-positive")
        d_op = dissipation_functional(w_n, prior)
        if not _nonpositive(c * shifted - d_op, d_op, prior_tol)[0]:
            raise PreconditionError(f"prior certificate missing: dissipation bound fails at c={c}")

    new = spec.new_couplings
    full = spec.to_model(new)
    gen = channel_sum(generator_single_channel, w_n, new, generator(w_next, full))
    shift = 0.0 if d_free else c * (d_next - d_n) * eye
    if mode == "es":
        holds, margin = _nonpositive(gen + c * w_next - shift, gen, tol)
        info = {"margin": margin}
    else:
        gen_ok, gen_margin = _nonpositive(gen, gen, tol)
        cross = channel_sum(partial(_cross_single_channel, w_n), w_next, full.couplings)
        diss = dissipation_functional(w_next, full) + cross
        diss_margin = min_eigenvalue(diss - c * w_next + shift)
        holds = gen_ok and diss_margin >= -scaled_tol(diss, tol)
        info = {"generator_margin": gen_margin,
                "margin" if d_free else "dissipation_margin": diss_margin,
                "cross_norm": float(np.linalg.norm(cross, 2))}
    info.update(d_n=d_n, d_next=d_next)
    if not d_free:
        info["d_ladder_ok"] = d_next >= d_n - scaled_tol(w_n, tol)
    return holds, info


def _commutes(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[bool, float]:
    """([a, b] = 0 within scaled_tol(a) * max(1, ||b||), the defect ||[a, b]||)."""
    defect = float(np.linalg.norm(commutator(a, b)))
    return defect <= scaled_tol(a, tol) * max(1.0, float(np.linalg.norm(b))), defect


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
    unitaries = spec.unitaries or []
    if len(unitaries) != spec.n_channels:
        raise PreconditionError("one unitary per channel is required")
    names = spec.names()
    notes: list[str] = []
    for a in range(spec.n_terms):
        for b in range(a + 1, spec.n_terms):
            ok, defect = _commutes(spec.terms[a], spec.terms[b], tol)
            if not ok:
                notes.append(f"terms {names[a]} and {names[b]} do not commute (norm {defect:.3e})")
    for t, ks in enumerate(spec.channel_groups()):
        for k, u in enumerate(unitaries):
            if k in ks:
                continue
            ok, defect = _commutes(u, spec.terms[t], tol)
            if not ok:
                notes.append(f"commutation clause fails for (U[{k}], {names[t]}) "
                             f"(norm {defect:.3e}); rerun with --theorem es")
    # the notes so far are the failing clauses
    overall = not notes and all(e["c"] is not None for e in base.per_term)
    if overall:
        notes.append("commuting-family certificate holds; aggregate ground-state stable")
    return AggregateReport(mode="commuting-es", per_term=base.per_term, overall=overall,
                           d_total=base.d_total, notes=notes)


def simulate_aggregate(spec: AggregateSpec, t_final: float, *,
                       model: LindbladModel | None = None,
                       rho0: np.ndarray | None = None, dim_cap: int = 64,
                       n_samples: int = 201, rtol: float = 1e-9,
                       atol: float = 1e-9) -> Trajectory:
    """Evolve `model` (default: the spec's own channels, `spec.to_model()`)
    and record the total and per-term expectations of the spec's terms.

    Additivity of the mean, <W> = sum_t <W_t>, is checked on the emitted
    samples (PreconditionError otherwise).  Runs regardless of certification
    status (diagnosis tool).
    """
    n = spec.structure.total_dim
    if n > dim_cap:
        raise DimensionCapError(f"aggregate dim {n} exceeds cap {dim_cap}")
    if model is None:
        model = spec.to_model()
    if rho0 is None:
        rho0 = maximally_mixed(n)
    names = spec.names()
    observables = {"W": spec.total()}
    for name, w in zip(names, spec.terms):
        observables[name] = w
    traj = evolve(model, rho0, t_final, observables=observables,
                  n_samples=n_samples, rtol=rtol, atol=atol)
    total = sum(traj.observables[name] for name in names)
    if not np.allclose(total, traj.observables["W"], atol=1e-10):
        raise PreconditionError("per-term expectations do not add up to the total; "
                                "term names must be distinct and differ from 'W'")
    return traj
