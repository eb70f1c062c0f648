"""Aggregation of per-term stability certificates.

A composite witness W = sum_t W_t (every W_t PSD) is certified from per-term
conditions plus a cross-channel scalability condition: channels not assigned
to a term must not push its generator positive.  Incremental variants certify
W_(n+1) = W_n + W_next given a certificate for the first n terms, with the
ground-energy ladder d_n entering the inequalities; the d-free corollary
drops those d-dependent shifts.  Constants come from the one Schur-complement
solver of `stability`.

Every operator is held as a `LocalOperator`, X (x) I as X on its sites.  Each
check runs on a support window (`_Window`), the sites of its terms and of the
channels and H that meet them, and `_Window.add` sums its kernels there (G_L,
D_L, -i[W, H], the cross term [L', W_n][W_next, L]), each computed on the
sites of its own operators; one that misses a term commutes with it and drops
out.  Only the ground energy d of an aggregate report uses the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionCapError, PreconditionError
from .lindblad import (
    LindbladModel,
    Trajectory,
    _drift,
    _hermitian_terms,
    dissipation_single_channel,
    evolve,
    maximally_mixed,
)
from .linalg import (
    DEFAULT_TOL,
    LocalOperator,
    TensorStructure,
    _frobenius,
    _meet,
    _sum_meeting,
    _Window,
    commutator,
    dagger,
    embed_sum,
    is_psd,
    local_operator,
    max_eigenvalue,
    min_eigenvalue,
    scaled_tol,
)
from .stability import _schur_constant


@dataclass
class AggregateSpec:
    """Terms, channels, and the term-to-channel assignment of an aggregate,
    with the unitary factors U_k of couplings L_k = U_k W_k (for the
    commuting corollary; None when not given) and the new channels of an
    incremental step.

    Every operator is held once, as a `LocalOperator`.  One given as a matrix
    of the whole space is reduced to its support on construction; only the
    ground energy d and simulation embed operators back into the whole
    space.  H must be Hermitian.
    """

    structure: TensorStructure
    terms: list[LocalOperator]
    couplings: list[LocalOperator] = field(default_factory=list)
    assignment: list | None = None
    hamiltonian: LocalOperator | None = None
    term_names: list[str] | None = None
    unitaries: list[LocalOperator] | None = None
    new_couplings: list[LocalOperator] = field(default_factory=list)

    def __post_init__(self):
        def operators(ops, kind):
            return [local_operator(a, self.structure, f"{kind} {i}", reduce=True)
                    for i, a in enumerate(ops)]

        self.terms = operators(self.terms, "term")
        self.couplings = operators(self.couplings, "coupling")
        if self.unitaries is not None:
            self.unitaries = operators(self.unitaries, "unitary")
        self.new_couplings = operators(self.new_couplings, "new coupling")
        if self.hamiltonian is not None:
            self.hamiltonian, = _hermitian_terms(self.hamiltonian, self.structure, "hamiltonian",
                                                 reduce=True)

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
        """The model of the spec's own operators: H (zero when not given) and
        every channel, plus `new_couplings` appended."""
        h = LocalOperator((), np.zeros((1, 1))) if self.hamiltonian is None else self.hamiltonian
        return LindbladModel(self.structure, h, [*self.couplings, *new_couplings])

    def total(self) -> np.ndarray:
        return embed_sum(self.terms, self.structure)


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
    """Every term checked PSD on its own sites."""
    for i, t in enumerate(spec.terms):
        if not is_psd(t.matrix, tol, _Window(spec.structure, t).copies):
            raise PreconditionError(f"term {i} is not PSD")


def _cross_single_channel(w_n: np.ndarray, w_next: np.ndarray, l: np.ndarray) -> np.ndarray:
    """2 Re([L', W_n][W_next, L]) with Re(M) = (M + M')/2."""
    ld = dagger(l)
    m = (ld @ w_n - w_n @ ld) @ (w_next @ l - l @ w_next)
    return m + dagger(m)


def _nonpositive(a: np.ndarray, atol: float) -> tuple[bool, float]:
    """(a <= 0 within atol, margin = -(largest eigenvalue of a))."""
    margin = -max_eigenvalue(a)
    return margin >= -atol, margin


def _aggregate(spec: AggregateSpec, mode: str, note: str, tol: float) -> AggregateReport:
    """Per-term constants of the drift -i[W_t, H] + G_own(W_t) under the
    term's own channels (`mode` es or ds), plus the scalability condition of
    every term: its generator under every other channel is <= 0.  Summed
    over the terms, the two drifts give G(W)."""
    _require_terms_psd(spec, tol)
    if not spec.terms:
        return AggregateReport(mode=mode, per_term=[], overall=True, d_total=0.0,
                               notes=["no terms: vacuously stable"])
    groups = spec.channel_groups()
    names = spec.names()
    h = [x for x in [spec.hamiltonian] if x is not None]
    per_term = []
    for t, (term, ks) in enumerate(zip(spec.terms, groups)):
        meets = [k for k, l in enumerate(spec.couplings) if _meet(l, term)]
        own = [spec.couplings[k] for k in ks if k in meets]
        others = [spec.couplings[k] for k in meets if k not in ks]
        win = _Window(spec.structure, term, *own, *(x for x in h if _meet(x, term)))
        gen, w = win.add(_drift([term], own, h)), win.embed(term)
        entry = {"term": names[t], "channels": ks}
        if mode == "es":  # the largest c with gen <= -c W_t
            entry["c"] = _schur_constant(-gen, *np.linalg.eigh(w), tol,
                                         copies=win.copies) if own else None
        else:  # gen <= 0, and the largest c with D_own(W_t) >= c W_t
            ok, c = is_psd(-gen, tol, win.copies), None
            if ok and own:
                diss = win.add((dissipation_single_channel, term, l) for l in own)
                c = _schur_constant(diss, *np.linalg.eigh(w), tol, copies=win.copies)
            entry.update(c=c, generator_nonpositive=ok)
        win = _Window(spec.structure, term, *others)
        acc = win.add(_drift([term], others))
        scal_ok, margin = _nonpositive(acc, scaled_tol(acc, tol, win.copies))
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
    return _aggregate(spec, "es", "aggregate certified: the sum is a valid stability witness", tol)


def check_theorem_ds_aggregation(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Per-term dissipative certificates plus the scalability condition."""
    return _aggregate(spec, "ds", "aggregate satisfies the dissipative condition", tol)


def check_incremental(spec: AggregateSpec, n: int, c: float, mode: str = "es",
                      d_free: bool = False, tol: float = DEFAULT_TOL) -> tuple[bool, dict]:
    """Certificate for the (n+1)-term partial sum W_n + W_next under the
    spec's channels plus `spec.new_couplings`, after verifying the prior
    certificate of W_n (PreconditionError otherwise).  With d_n the ground
    energy of W_n, c > 0 and Re(M) = (M + M')/2, it checks
        es:  G(W_next) + sum_new G(W_n)_L  <=  -c W_next + c (d_(n+1) - d_n);
        ds:  G(W_next) + sum_new G(W_n)_L  <=  0  and
             D(W_next) + 2 sum_k Re([L_k', W_n][W_next, L_k])  >=  c W_next - c (d_(n+1) - d_n),
    and reports the cross-term norm.  `d_free`, the ground-energy-free
    corollary, drops the shifts c (d_(n+1) - d_n); the ladder d_(n+1) >= d_n
    makes it strictly stronger.  d_n and d_(n+1) are eigenvalues on the window
    of W_1..W_(n+1), equal to those of the whole space.
    """
    if mode not in ("es", "ds"):
        raise PreconditionError(f"mode must be 'es' or 'ds', got {mode!r}")
    if not c > 0:
        raise PreconditionError(f"c must be positive, got {c}")
    _require_terms_psd(spec, tol)
    if not 1 <= n < spec.n_terms:
        raise PreconditionError(f"n must satisfy 1 <= n < {spec.n_terms}, got {n}")
    prior, nxt = spec.terms[:n], spec.terms[n]
    channels = [*spec.couplings, *spec.new_couplings]  # the spec's, then the new ones
    h = [x for x in [spec.hamiltonian] if x is not None]
    win = _Window(spec.structure, *prior, nxt,
                  *(x for x in h + channels if any(_meet(x, t) for t in (*prior, nxt))))
    w_n = win.add((np.asarray, t) for t in prior)  # the terms as they are
    w_next = win.embed(nxt)
    d_n = min_eigenvalue(w_n)
    d_next = min_eigenvalue(w_n + w_next)
    eye = np.eye(w_n.shape[0])

    g = win.add(_drift(prior, spec.couplings, h))
    shifted = w_n - d_n * eye
    prior_tol = max(tol, 1e-8)
    if mode == "es" and not _nonpositive(g + c * shifted, scaled_tol(g, prior_tol, win.copies))[0]:
        raise PreconditionError(
            f"prior certificate missing: existing channels do not give the decay bound at c={c}"
        )
    if mode == "ds":
        if not _nonpositive(g, scaled_tol(g, prior_tol, win.copies))[0]:
            raise PreconditionError("prior certificate missing: generator not non-positive")
        d_op = win.add((dissipation_single_channel, _sum_meeting(spec.structure, prior, l), l)
                       for l in spec.couplings)
        if not _nonpositive(c * shifted - d_op, scaled_tol(d_op, prior_tol, win.copies))[0]:
            raise PreconditionError(f"prior certificate missing: dissipation bound fails at c={c}")

    gen = win.add(_drift([nxt], channels, h) + _drift(prior, spec.new_couplings))
    shift = 0.0 if d_free else c * (d_next - d_n) * eye
    if mode == "es":
        holds, margin = _nonpositive(gen + c * w_next - shift, scaled_tol(gen, tol, win.copies))
        info = {"margin": margin}
    else:
        gen_ok, gen_margin = _nonpositive(gen, scaled_tol(gen, tol, win.copies))
        cross = win.add((_cross_single_channel, t, nxt, l) for l in channels for t in prior)
        diss = win.add((dissipation_single_channel, nxt, l) for l in channels) + cross
        diss_margin = min_eigenvalue(diss - c * w_next + shift)
        holds = gen_ok and diss_margin >= -scaled_tol(diss, tol, win.copies)
        info = {"generator_margin": gen_margin,
                "margin" if d_free else "dissipation_margin": diss_margin,
                "cross_norm": float(np.linalg.norm(cross, 2))}
    info.update(d_n=d_n, d_next=d_next)
    if not d_free:
        info["d_ladder_ok"] = d_next >= d_n - scaled_tol(w_n, tol, win.copies)
    return holds, info


def _commutes(structure: TensorStructure, a: LocalOperator, b: LocalOperator,
              tol: float) -> tuple[bool, float]:
    """([a, b] = 0 within scaled_tol(a) * max(1, ||b||), the defect ||[a, b]||),
    on the window of the two; disjoint supports commute exactly."""
    win = _Window(structure, a, b)
    defect = _frobenius(win.add([(commutator, a, b)]), win.copies)
    a_tol = scaled_tol(win.embed(a), tol, win.copies)
    return defect <= a_tol * max(1.0, _frobenius(win.embed(b), win.copies)), defect


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
    terms = spec.terms
    notes: list[str] = []
    for a in range(spec.n_terms):
        for b in range(a + 1, spec.n_terms):
            ok, defect = _commutes(spec.structure, terms[a], terms[b], tol)
            if not ok:
                notes.append(f"terms {names[a]} and {names[b]} do not commute (norm {defect:.3e})")
    for t, ks in enumerate(spec.channel_groups()):
        for k, unit in enumerate(unitaries):
            if k in ks:
                continue
            ok, defect = _commutes(spec.structure, unit, terms[t], tol)
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
        observables[name] = w.on(spec.structure.sites, spec.structure)
    traj = evolve(model, rho0, t_final, observables=observables,
                  n_samples=n_samples, rtol=rtol, atol=atol)
    total = sum(traj.observables[name] for name in names)
    if not np.allclose(total, traj.observables["W"], atol=1e-10):
        raise PreconditionError("per-term expectations do not add up to the total; "
                                "term names must be distinct and differ from 'W'")
    return traj
